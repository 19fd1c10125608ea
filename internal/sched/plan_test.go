package sched

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"rsgen/internal/dag"
	"rsgen/internal/platform"
	"rsgen/internal/xrand"
)

// planSchedule runs a compiled plan on rc and reads the whole Schedule out,
// so a test can compare Host, Start, Finish and Ops, not just the scalar
// Plan.TurnAround returns.
func planSchedule(t *testing.T, p *Plan, rc *platform.ResourceCollection) *Schedule {
	t.Helper()
	s, err := newState(p.d, rc)
	if err != nil {
		t.Fatal(err)
	}
	p.r.run(s, &p.o)
	return s.finish()
}

// planDAGs is the differential corpus: the golden corpus's two DAGs, the
// 64-task shape moga scores, a one-task DAG, and two edits of the 64-task
// DAG — every third edge free, and overflowingEdge.
func planDAGs() map[string]*dag.DAG {
	out := map[string]*dag.DAG{}
	for _, g := range goldenDAGs() {
		out["golden-"+g.name] = g.d
	}
	moga := dag.MustGenerate(dag.GenSpec{
		Size: 64, CCR: 0.5, Parallelism: 0.5, Density: 0.5, Regularity: 0.5, MeanCost: 40,
	}, xrand.New(1))
	out["moga64"] = moga
	out["single"] = dag.MustGenerate(dag.GenSpec{Size: 1, MeanCost: 7, Parallelism: 0.5, Density: 0.5, Regularity: 0.5}, xrand.New(2))
	out["zero-cost-edges"] = zeroCostEdges(moga, 3)
	out["overflowing-edge"] = overflowingEdge(moga)
	return out
}

// zeroCostEdges returns d with edges 0, every, 2·every, … free (every = 1
// frees them all).
func zeroCostEdges(d *dag.DAG, every int) *dag.DAG {
	edges := append([]dag.Edge(nil), d.Edges()...)
	for i := range edges {
		if i%every == 0 {
			edges[i].Cost = 0
		}
	}
	return dag.MustNew(d.Tasks(), edges)
}

// overflowingEdge returns d with one edge so costly (≥ MaxFloat64 /
// ReferenceBandwidthMbps) that its transfer time overflows to +Inf between
// distinct hosts on every network: its row of the dense path's transfer
// times is +Inf in every class but the free one, and the indexed host
// searches see a +Inf data-ready time.
func overflowingEdge(d *dag.DAG) *dag.DAG {
	edges := append([]dag.Edge(nil), d.Edges()...)
	edges[len(edges)/2].Cost = math.MaxFloat64 / 2
	return dag.MustNew(d.Tasks(), edges)
}

// planRCs covers uniform and cluster networks at the scan sizes moga uses,
// the largest size below indexMinHosts, and one size at or above it (where
// the indexed and grouped host searches run).
func planRCs() map[string]*platform.ResourceCollection {
	p := platform.MustGenerate(platform.GenSpec{Clusters: 200, Year: 2007}, xrand.New(1))
	out := map[string]*platform.ResourceCollection{}
	for _, m := range []int{1, 5, 12, 127, 160} {
		hosts := make([]platform.Host, m)
		for i, id := range xrand.New(uint64(m)).Sample(p.NumHosts(), m) {
			hosts[i] = p.Hosts[id]
		}
		out[fmt.Sprintf("cluster-m%d", m)] = platform.SubsetRC(p, hosts)
		out[fmt.Sprintf("uniform-m%d", m)] = platform.HeterogeneousRC(m, 2.8, 0.5, 1000, xrand.New(uint64(m)))
	}
	return out
}

// TestPlanMatchesSchedule is the differential proof for "order once, place
// many": for every heuristic, a compiled plan run on a collection yields the
// same schedule — Host, Start, Finish and Ops, hashed bit for bit — and the
// same turn-around bits as the one-shot Schedule.
func TestPlanMatchesSchedule(t *testing.T) {
	dags := planDAGs()
	rcs := planRCs()
	hs := append(All(), Baselines()...)
	for dn, d := range dags {
		for _, h := range hs {
			p := Compile(h, d)
			for rn, rc := range rcs {
				want, err := h.Schedule(d, rc)
				if err != nil {
					t.Fatal(err)
				}
				if got := planSchedule(t, p, rc); scheduleHash(got) != scheduleHash(want) {
					t.Errorf("%s/%s/%s: plan schedule %016x (ops %v) != Schedule %016x (ops %v)",
						h.Name(), rn, dn, scheduleHash(got), got.Ops, scheduleHash(want), want.Ops)
				}
				ta, err := p.TurnAround(rc, 1)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(ta) != math.Float64bits(want.TurnAround(1)) {
					t.Errorf("%s/%s/%s: Plan.TurnAround = %v, Schedule().TurnAround = %v",
						h.Name(), rn, dn, ta, want.TurnAround(1))
				}
			}
		}
	}
}

// TestPlanReuse runs one plan per heuristic over 60 collections, first
// serially against the one-shot TurnAround and then from 8 goroutines
// sharing fresh plans (under -race this is the proof that sharing a Plan,
// whose quotient table the first small collection builds, is race-free).
func TestPlanReuse(t *testing.T) {
	p := platform.MustGenerate(platform.GenSpec{Clusters: 200, Year: 2007}, xrand.New(3))
	d := planDAGs()["moga64"]
	rng := xrand.New(4)
	rcs := make([]*platform.ResourceCollection, 60)
	for i := range rcs {
		m := 1 + rng.Intn(22)
		if i%15 == 14 {
			m = 128 + rng.Intn(64)
		}
		hosts := make([]platform.Host, m)
		for j, id := range rng.Sample(p.NumHosts(), m) {
			hosts[j] = p.Hosts[id]
		}
		rcs[i] = platform.SubsetRC(p, hosts)
	}
	hs := append(All(), Baselines()...)
	plans := make([]*Plan, len(hs))
	want := make([][]float64, len(hs))
	for i, h := range hs {
		plans[i] = Compile(h, d)
		for _, rc := range rcs {
			w, err := TurnAround(h, d, rc, 1)
			if err != nil {
				t.Fatal(err)
			}
			got, err := plans[i].TurnAround(rc, 1)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(w) {
				t.Fatalf("%s m=%d: Plan.TurnAround = %v, TurnAround = %v", h.Name(), rc.Size(), got, w)
			}
			want[i] = append(want[i], w)
		}
	}

	for i, h := range hs {
		plans[i] = Compile(h, d)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range rcs {
				j := (k*7 + w*13) % len(rcs) // a different visiting order per worker
				i := (k + w) % len(hs)
				got, err := plans[i].TurnAround(rcs[j], 1)
				if err != nil {
					t.Error(err)
					return
				}
				if math.Float64bits(got) != math.Float64bits(want[i][j]) {
					t.Errorf("worker %d %s rc %d: concurrent Plan.TurnAround = %v, serial %v",
						w, hs[i].Name(), j, got, want[i][j])
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestPlanTurnAroundAllocatesNothing pins the contract the moga objective
// relies on: once compiled, scoring a collection with MCP (or an
// arrival-order heuristic that keeps no per-call queue) allocates nothing.
func TestPlanTurnAroundAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop states at random")
	}
	d, rc := smallRC(12)
	for _, h := range []Heuristic{MCP{}, Greedy{}, Random{}, RoundRobin{}} {
		p := Compile(h, d)
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := p.TurnAround(rc, 1); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Plan.TurnAround allocates %v times per call, want 0", h.Name(), allocs)
		}
	}
}
