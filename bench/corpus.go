package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"rsgen/internal/dag"
	"rsgen/internal/xrand"
)

// Corpus shapes. The sizes are chosen against the server's 1024-entry
// response cache: spec_single must overflow it (each request stores an exact
// and a shape key, so 640 x 2 > 1024 and cyclic order evicts every entry
// before its next use), spec_batch must fit its shapes (128) but not its
// exact keys.
const (
	singleDAGs     = 640
	singleTasks    = 400
	batchShapes    = 128
	batchBodies    = 256
	batchMembers   = 32
	batchTasks     = 40
	leaseDAGs      = 256
	leaseTasks     = 40
	mogaDAGs       = 64
	mogaTasks      = 64
	serverCacheCap = 1024 // rsgend -spec-cache-size default
)

// corpus is one workload's generated input: request bodies cycled in fixed
// order, and the DAGs they were rendered from.
type corpus struct {
	workload string
	// bodies are the primary request bodies. For moga_front they are the
	// /v1/advise bodies; selectBodies holds the matching moga selects.
	bodies       [][]byte
	selectBodies [][]byte
	// dags[i] is the JSON of the i-th source DAG; for spec_batch,
	// memberDAGs[b][m] is member m of body b.
	dags       [][]byte
	memberDAGs [][][]byte
}

// hash fingerprints every byte a run would send, for the determinism test
// and the result document.
func (c *corpus) hash() string {
	h := sha256.New()
	for _, set := range [][][]byte{c.bodies, c.selectBodies} {
		for _, b := range set {
			fmt.Fprintf(h, "%d:", len(b))
			h.Write(b)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// buildCorpus generates the workload's inputs from the seed alone.
func buildCorpus(workload string, seed uint64) (*corpus, error) {
	switch workload {
	case wlSpecSingle:
		return buildSpecSingle(seed, singleDAGs, singleTasks)
	case wlSpecBatch:
		return buildSpecBatch(seed)
	case wlLeaseCycle:
		return buildLeaseCycle(seed)
	case wlMogaFront:
		return buildMogaFront(seed)
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

// dagSource draws a corpus's random workflows: CCR U(0.1,1), parallelism
// U(0.3,0.7), density U(densLo,densHi), as cmd/loadgen does — but stratified.
// Each parameter takes one draw from each of n equal strata, in shuffled
// order: every DAG is still uniformly distributed, while the corpus as a whole
// covers the ranges evenly, so the work in a corpus barely depends on the
// seed's luck. The driver judges run-to-run spread across seeds.
type dagSource struct {
	rng            *xrand.RNG
	tasks          int
	densLo, densHi float64
	ccr, par, den  []float64
	next           int
}

func newDAGSource(rng *xrand.RNG, n, tasks int, densLo, densHi float64) *dagSource {
	strata := func() []float64 {
		out := make([]float64, n)
		for i, k := range rng.Perm(n) {
			out[i] = (float64(k) + rng.Float64()) / float64(n)
		}
		return out
	}
	return &dagSource{rng: rng, tasks: tasks, densLo: densLo, densHi: densHi, ccr: strata(), par: strata(), den: strata()}
}

// draw generates the next of the source's n DAGs and its JSON.
func (s *dagSource) draw() (*dag.DAG, []byte, error) {
	i := s.next
	s.next++
	d, err := dag.Generate(dag.GenSpec{
		Size:        s.tasks,
		CCR:         0.1 + 0.9*s.ccr[i],
		Parallelism: 0.3 + 0.4*s.par[i],
		Density:     s.densLo + (s.densHi-s.densLo)*s.den[i],
		Regularity:  0.5,
		MeanCost:    40,
	}, s.rng.Split())
	if err != nil {
		return nil, nil, err
	}
	b, err := json.Marshal(d)
	return d, b, err
}

// relabel builds an isomorph: task IDs permuted, fresh names, edges
// shuffled. Same shape and costs, different bytes and exact fingerprint — only
// dag.Normalize can merge it with its original.
func relabel(d *dag.DAG, rng *xrand.RNG) ([]byte, error) {
	n := d.Size()
	perm := rng.Perm(n)
	tasks := make([]dag.Task, n)
	for old := 0; old < n; old++ {
		tasks[perm[old]] = dag.Task{
			ID:   dag.TaskID(perm[old]),
			Name: fmt.Sprintf("t%d-%d", perm[old], rng.Intn(1<<16)),
			Cost: d.Task(dag.TaskID(old)).Cost,
		}
	}
	edges := make([]dag.Edge, 0, d.NumEdges())
	for _, e := range d.Edges() {
		edges = append(edges, dag.Edge{From: dag.TaskID(perm[e.From]), To: dag.TaskID(perm[e.To]), Cost: e.Cost})
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	iso, err := dag.New(tasks, edges)
	if err != nil {
		return nil, err
	}
	return json.Marshal(iso)
}

func wrap(prefix string, dagJSON []byte, suffix string) []byte {
	b := make([]byte, 0, len(prefix)+len(dagJSON)+len(suffix))
	b = append(b, prefix...)
	b = append(b, dagJSON...)
	return append(b, suffix...)
}

func specBody(dagJSON []byte) []byte { return wrap(`{"dag":`, dagJSON, `}`) }

func buildSpecSingle(seed uint64, n, tasks int) (*corpus, error) {
	rng := xrand.NewFrom(seed, 0x5e1)
	c := &corpus{workload: wlSpecSingle}
	src := newDAGSource(rng, n, tasks, 0.1, 0.3)
	for i := 0; i < n; i++ {
		_, b, err := src.draw()
		if err != nil {
			return nil, fmt.Errorf("spec_single dag %d: %w", i, err)
		}
		c.dags = append(c.dags, b)
		c.bodies = append(c.bodies, specBody(b))
	}
	return c, nil
}

func buildSpecBatch(seed uint64) (*corpus, error) {
	rng := xrand.NewFrom(seed, 0xba7c)
	c := &corpus{workload: wlSpecBatch}
	shapes := make([]*dag.DAG, batchShapes)
	src := newDAGSource(rng, batchShapes, batchTasks, 0.3, 0.7)
	for i := range shapes {
		d, b, err := src.draw()
		if err != nil {
			return nil, fmt.Errorf("spec_batch shape %d: %w", i, err)
		}
		shapes[i] = d
		c.dags = append(c.dags, b)
	}
	// 1:12:7 by position within each run of 20 members, interleaved so the
	// kinds spread over a body instead of clustering.
	const unique, shape = 1, 12
	k := 0
	for b := 0; b < batchBodies; b++ {
		members := make([][]byte, 0, batchMembers)
		for m := 0; m < batchMembers; m, k = m+1, k+1 {
			var raw []byte
			switch r := (k * 7) % 20; { // 7 is coprime to 20: a fixed shuffle of the 20 slots
			case r < unique || len(members) == 0:
				raw = c.dags[rng.Intn(batchShapes)]
			case r < unique+shape:
				var err error
				if raw, err = relabel(shapes[rng.Intn(batchShapes)], rng); err != nil {
					return nil, err
				}
			default:
				// A byte duplicate of an earlier member of this body: the
				// batch handler must merge it before decoding.
				raw = members[rng.Intn(len(members))]
			}
			members = append(members, raw)
		}
		var body bytes.Buffer
		body.WriteString(`{"requests":[`)
		for m, raw := range members {
			if m > 0 {
				body.WriteByte(',')
			}
			body.Write(specBody(raw))
		}
		body.WriteString(`]}`)
		c.bodies = append(c.bodies, body.Bytes())
		c.memberDAGs = append(c.memberDAGs, members)
	}
	return c, nil
}

func buildLeaseCycle(seed uint64) (*corpus, error) {
	rng := xrand.NewFrom(seed, 0x1ea5e)
	c := &corpus{workload: wlLeaseCycle}
	src := newDAGSource(rng, leaseDAGs, leaseTasks, 0.3, 0.7)
	for i := 0; i < leaseDAGs; i++ {
		_, b, err := src.draw()
		if err != nil {
			return nil, fmt.Errorf("lease_cycle dag %d: %w", i, err)
		}
		c.dags = append(c.dags, b)
		c.bodies = append(c.bodies, specBody(b))
	}
	return c, nil
}

func buildMogaFront(seed uint64) (*corpus, error) {
	rng := xrand.NewFrom(seed, 0x306a)
	c := &corpus{workload: wlMogaFront}
	src := newDAGSource(rng, mogaDAGs, mogaTasks, 0.3, 0.7)
	for i := 0; i < mogaDAGs; i++ {
		_, b, err := src.draw()
		if err != nil {
			return nil, fmt.Errorf("moga_front dag %d: %w", i, err)
		}
		c.dags = append(c.dags, b)
		c.bodies = append(c.bodies, specBody(b))
		c.selectBodies = append(c.selectBodies, wrap(`{"dag":`, b, `,"backends":["moga"]}`))
	}
	return c, nil
}

// heldLeaseBody is the select that pre-holds one long lease before traffic.
func heldLeaseBody(dagJSON []byte) []byte {
	return wrap(`{"dag":`, dagJSON, `,"ttl_seconds":600}`)
}
