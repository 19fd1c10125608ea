package sched

import (
	"math"
	"testing"

	"rsgen/internal/dag"
	"rsgen/internal/platform"
	"rsgen/internal/xrand"
)

// TestIndexedHostSelectionMatchesScan is the exactness proof for the
// segment-tree host selection: with the gate forced open (index always on)
// and forced closed (always the historical linear scan), every heuristic
// must produce bit-identical schedules on uniform networks — homogeneous
// and heterogeneous clocks, small and large host counts. The golden corpus
// pins the scan's behavior; this pins the index to the scan.
func TestIndexedHostSelectionMatchesScan(t *testing.T) {
	old := indexMinHosts
	defer func() { indexMinHosts = old }()

	dags := []*dag.DAG{
		dag.MustGenerate(dag.GenSpec{
			Size: 160, CCR: 0.2, Parallelism: 0.6, Density: 0.5, Regularity: 0.5, MeanCost: 30,
		}, xrand.New(81)),
		dag.MustGenerate(dag.GenSpec{
			Size: 120, CCR: 1.5, Parallelism: 0.3, Density: 0.8, Regularity: 0.2, MeanCost: 50,
		}, xrand.New(82)),
	}
	// +Inf data-ready times: where no host can start a task before +Inf the
	// scan picks host 0, and a +Inf class threshold must not make the
	// indexed search mask leaves without end.
	dags = append(dags, overflowingEdge(dags[0]))
	p, err := platform.Generate(platform.GenSpec{Clusters: 20, Year: 2005}, xrand.New(85))
	if err != nil {
		t.Fatal(err)
	}
	rcs := []*platform.ResourceCollection{
		platform.HomogeneousRC(7, 2.8, 1000),
		platform.HomogeneousRC(64, 2.8, 1000),
		platform.HeterogeneousRC(48, 2.8, 0.5, 1000, xrand.New(83)),
		platform.HeterogeneousRC(300, 2.8, 0.6, 1000, xrand.New(84)),
		// Cluster networks: the grouped (per-cluster) selection path.
		platform.UniverseRC(p),
		platform.TopHostsRC(p, 200),
	}
	heuristics := append(All(), Baselines()...)
	for di, d := range dags {
		for ri, rc := range rcs {
			for _, h := range heuristics {
				indexMinHosts = 1 << 30 // always scan
				scan, err := h.Schedule(d, rc)
				if err != nil {
					t.Fatal(err)
				}
				indexMinHosts = 0 // always index
				idx, err := h.Schedule(d, rc)
				if err != nil {
					t.Fatal(err)
				}
				if sh, ih := scheduleHash(scan), scheduleHash(idx); sh != ih {
					t.Errorf("%s dag=%d rc=%d: indexed selection %016x != scan %016x",
						h.Name(), di, ri, ih, sh)
				}
			}
		}
	}
}

// TestMinTree exercises the segment-tree primitives directly, including
// masking semantics and leftmost tie-breaking.
func TestMinTree(t *testing.T) {
	vals := []float64{5, 3, 9, 3, 7, 1, 1, 4, 6}
	var tr minTree
	tr.build(len(vals), func(p int) float64 { return vals[p] })

	if v, p := tr.argmin(0, len(vals)); v != 1 || p != 5 {
		t.Fatalf("argmin = (%v, %d), want (1, 5) — leftmost tie", v, p)
	}
	if p := tr.leftmostLE(0, len(vals), 3); p != 1 {
		t.Fatalf("leftmostLE(3) = %d, want 1", p)
	}
	if p := tr.leftmostLE(2, len(vals), 3); p != 3 {
		t.Fatalf("leftmostLE(3) in [2,9) = %d, want 3", p)
	}
	if p := tr.leftmostLE(0, len(vals), 0.5); p != -1 {
		t.Fatalf("leftmostLE(0.5) = %d, want -1", p)
	}
	tr.set(5, 10)
	if v, p := tr.argmin(0, len(vals)); v != 1 || p != 6 {
		t.Fatalf("after set: argmin = (%v, %d), want (1, 6)", v, p)
	}
	if v, p := tr.argmin(2, 5); v != 3 || p != 3 {
		t.Fatalf("argmin [2,5) = (%v, %d), want (3, 3)", v, p)
	}

	var x hostIndex
	free := []float64{4, 2, 8}
	x.buildIdentity(free)
	x.mask(1)
	if _, p := x.tree.argmin(0, 3); p != 0 {
		t.Fatalf("masked argmin leaf = %d, want 0", p)
	}
	x.unmaskAll()
	if v, p := x.tree.argmin(0, 3); v != 2 || p != 1 {
		t.Fatalf("unmasked argmin = (%v, %d), want (2, 1)", v, p)
	}

	hosts := []platform.Host{
		{ClockGHz: 2.0}, {ClockGHz: 3.0}, {ClockGHz: 2.0}, {ClockGHz: 3.0},
	}
	x.buildClasses(hosts, []float64{1, 2, 3, 4})
	// Fastest class first, ascending host index within a class.
	wantPerm := []int32{1, 3, 0, 2}
	for i, w := range wantPerm {
		if x.perm[i] != w {
			t.Fatalf("perm = %v, want %v", x.perm, wantPerm)
		}
	}
	if len(x.classEnd) != 2 || x.classEnd[0] != 2 || x.classEnd[1] != 4 {
		t.Fatalf("classEnd = %v, want [2 4]", x.classEnd)
	}
	if math.IsInf(x.tree.get(x.leafOf(2)), 1) {
		t.Fatal("leafOf/get broken")
	}
}
