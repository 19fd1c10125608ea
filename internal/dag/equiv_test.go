package dag

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"rsgen/internal/xrand"
)

// TestNewErrorsUnchanged: the map-free validator words every rejection as
// the map-based one did, including which of several faults it names first —
// the earliest in input order. The literals were produced by the previous
// implementation on these exact inputs.
func TestNewErrorsUnchanged(t *testing.T) {
	base := MustGenerate(GenSpec{Size: 60, CCR: 0.5, Parallelism: 0.5, Density: 0.4, Regularity: 0.5, MeanCost: 40}, xrand.New(5))
	edges := func(mutate func(e []Edge) []Edge) []Edge {
		return mutate(append([]Edge(nil), base.Edges()...))
	}
	nan := math.NaN()
	cases := []struct {
		name  string
		edges []Edge
		want  string
	}{
		{"duplicate of the first edge, appended", edges(func(e []Edge) []Edge { return append(e, e[0]) }),
			"dag: duplicate edge 2→7"},
		{"duplicate of a late edge, inserted early", edges(func(e []Edge) []Edge { e[3] = e[40]; return e }),
			"dag: duplicate edge 11→23"},
		{"two duplicated pairs: the earlier repeat wins, not the lower source", edges(func(e []Edge) []Edge { return append(e, e[50], e[2]) }),
			"dag: duplicate edge 20→26"},
		{"duplicate with a different cost", edges(func(e []Edge) []Edge { return append(e, Edge{From: e[7].From, To: e[7].To, Cost: 99}) }),
			"dag: duplicate edge 2→9"},
		{"self-loop", edges(func(e []Edge) []Edge { e[10].To = e[10].From; return e }),
			"dag: self-loop on task 1"},
		{"endpoint beyond n", edges(func(e []Edge) []Edge { e[10].To = 60; return e }),
			"dag: edge 1→60 out of range"},
		{"negative endpoint", edges(func(e []Edge) []Edge { e[10].From = -1; return e }),
			"dag: edge -1→10 out of range"},
		{"negative cost", edges(func(e []Edge) []Edge { e[10].Cost = -1; return e }),
			"dag: edge 1→10 has invalid cost -1"},
		{"NaN cost", edges(func(e []Edge) []Edge { e[10].Cost = nan; return e }),
			"dag: edge 1→10 has invalid cost NaN"},
		{"cycle", edges(func(e []Edge) []Edge { return append(e, Edge{From: e[len(e)-1].To, To: e[0].From}) }),
			"dag: graph contains a cycle"},
		{"duplicate before a self-loop", edges(func(e []Edge) []Edge { e[5] = e[1]; e[10].To = e[10].From; return e }),
			"dag: duplicate edge 6→7"},
		{"self-loop before a duplicate", edges(func(e []Edge) []Edge { e[5].To = e[5].From; e[10] = e[1]; return e }),
			"dag: self-loop on task 5"},
		{"duplicate that also closes nothing, before a cycle", edges(func(e []Edge) []Edge {
			return append(e, e[0], Edge{From: e[len(e)-1].To, To: e[0].From})
		}), "dag: duplicate edge 2→7"},
	}
	for _, tc := range cases {
		_, err := New(base.Tasks(), tc.edges)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: error = %v, want %q", tc.name, err, tc.want)
		}
	}
	// The decoder reaches the validator without New's copy; same words.
	if _, err := DecodeBytes([]byte(`{"tasks":[{"id":0,"cost":1},{"id":1,"cost":1}],"edges":[{"from":0,"to":1},{"from":0,"to":1}]}`)); err == nil || err.Error() != "dag: duplicate edge 0→1" {
		t.Errorf("decoded duplicate edge: error = %v", err)
	}
}

// referenceNormalize is the canonical form as it was computed before the
// sort-free rewrite — a map per refinement round, reflection sorts over all
// tasks and all edges — kept as the oracle for Normalize.
func referenceNormalize(d *DAG) ([]Task, []Edge) {
	n := len(d.tasks)
	h := make([]uint64, n)
	nh := make([]uint64, n)
	for v := 0; v < n; v++ {
		x := uint64(fnvOffset)
		x = fnvUint64(x, uint64(d.level[v]))
		x = fnvUint64(x, math.Float64bits(d.tasks[v].Cost))
		x = fnvUint64(x, uint64(d.NumPred(TaskID(v))))
		x = fnvUint64(x, uint64(d.NumSucc(TaskID(v))))
		h[v] = x
	}
	distinct := func(hs []uint64) int {
		seen := make(map[uint64]struct{}, len(hs))
		for _, x := range hs {
			seen[x] = struct{}{}
		}
		return len(seen)
	}
	prev := distinct(h)
	for round := 0; round < 64; round++ {
		for v := 0; v < n; v++ {
			var sumP, xorP, sumS, xorS uint64
			for _, a := range d.Pred(TaskID(v)) {
				t := fnvUint64(fnvUint64(fnvOffset, h[a.Task]), math.Float64bits(a.Cost))
				sumP += t
				xorP ^= t
			}
			for _, a := range d.Succ(TaskID(v)) {
				t := fnvUint64(fnvUint64(fnvOffset, h[a.Task]), math.Float64bits(a.Cost))
				sumS += t
				xorS ^= t
			}
			x := fnvUint64(fnvOffset, h[v])
			x = fnvUint64(x, sumP)
			x = fnvUint64(x, xorP)
			x = fnvUint64(x, sumS)
			x = fnvUint64(x, xorS)
			nh[v] = x
		}
		h, nh = nh, h
		cur := distinct(h)
		if cur == prev || cur == n {
			break
		}
		prev = cur
	}
	order := make([]TaskID, n)
	for v := range order {
		order[v] = TaskID(v)
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if d.level[a] != d.level[b] {
			return d.level[a] < d.level[b]
		}
		return h[a] < h[b]
	})
	perm := make([]TaskID, n)
	for newID, oldID := range order {
		perm[oldID] = TaskID(newID)
	}
	tasks := make([]Task, n)
	for newID, oldID := range order {
		tasks[newID] = Task{ID: TaskID(newID), Cost: d.tasks[oldID].Cost}
	}
	edges := make([]Edge, len(d.edges))
	for i, e := range d.edges {
		edges[i] = Edge{From: perm[e.From], To: perm[e.To], Cost: e.Cost}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	return tasks, edges
}

func checkNormalize(t *testing.T, name string, d *DAG) {
	t.Helper()
	tasks, edges := referenceNormalize(d)
	want := MustNew(tasks, edges)
	got := d.Normalize()
	if !reflect.DeepEqual(got.Tasks(), want.Tasks()) {
		t.Fatalf("%s: canonical tasks differ", name)
	}
	if !reflect.DeepEqual(got.Edges(), want.Edges()) {
		t.Fatalf("%s: canonical edges differ", name)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("%s: normal fingerprint %016x, want %016x", name, got.Fingerprint(), want.Fingerprint())
	}
}

// TestNormalizeMatchesReference: the canonical form, and so every shape
// cache key, is what it was — on the DAGs the goldens are built from, on the
// regular workflow shapes where refinement ties are common, and on 200
// generated DAGs and their relabelled isomorphs.
func TestNormalizeMatchesReference(t *testing.T) {
	checkNormalize(t, "fig-iii-2", figIII2(t))
	// The two DAGs behind internal/sched's 64 golden schedule hashes.
	checkNormalize(t, "golden wide", MustGenerate(GenSpec{
		Size: 180, CCR: 0.1, Parallelism: 0.7, Density: 0.3, Regularity: 0.6, MeanCost: 40,
	}, xrand.New(101)))
	checkNormalize(t, "golden dense", MustGenerate(GenSpec{
		Size: 140, CCR: 1.0, Parallelism: 0.4, Density: 0.8, Regularity: 0.3, MeanCost: 25,
	}, xrand.New(102)))
	montage, err := Montage(MontageLevels1629(), 1, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	checkNormalize(t, "montage-1629", montage)
	chains, err := ParallelChains(6, 9, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkNormalize(t, "parallel chains", chains)
	eman, err := EMANLike(40, 100, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	checkNormalize(t, "eman-like", eman)
	checkNormalize(t, "single task", MustNew([]Task{{ID: 0, Cost: 3}}, nil))

	rng := xrand.New(2200)
	for i := 0; i < 200; i++ {
		d, err := Generate(GenSpec{
			Size:        1 + rng.Intn(120),
			CCR:         rng.Float64(),
			Parallelism: rng.Float64(),
			Density:     0.05 + 0.95*rng.Float64(),
			Regularity:  rng.Float64(),
			MeanCost:    40,
		}, rng.Split())
		if err != nil {
			t.Fatal(err)
		}
		checkNormalize(t, "generated", d)
		iso := isomorph(d, rng)
		checkNormalize(t, "isomorph", iso)
		if iso.NormalFingerprint() != d.NormalFingerprint() {
			t.Fatalf("generated DAG %d and its isomorph normalize apart", i)
		}
	}
}
