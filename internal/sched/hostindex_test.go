package sched

import (
	"math"
	"testing"

	"rsgen/internal/dag"
	"rsgen/internal/platform"
	"rsgen/internal/xrand"
)

// TestIndexedHostSelectionMatchesScan is the exactness proof for the
// segment-tree host selection: with the gate forced open (index always on,
// however many buckets it has), forced closed (always the historical linear
// scan) and left at its defaults, every heuristic must produce bit-identical
// schedules on uniform and cluster networks — homogeneous, few-class and
// continuous clocks, small and large host counts. The golden corpus pins
// the scan's behavior; this pins the index to the scan.
func TestIndexedHostSelectionMatchesScan(t *testing.T) {
	oldMin, oldPer := indexMinHosts, minHostsPerBucket
	defer func() { indexMinHosts, minHostsPerBucket = oldMin, oldPer }()

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
		// Eight clock classes over 256 hosts: the default gate searches
		// the speed-class index here (the continuous clocks above are
		// scanned unless forced).
		fewClassRC(256, 8),
		// Cluster networks: the grouped (per-cluster) selection path.
		platform.UniverseRC(p),
		platform.TopHostsRC(p, 200),
	}
	heuristics := append(All(), Baselines()...)
	for di, d := range dags {
		for ri, rc := range rcs {
			for _, h := range heuristics {
				var hashes [3]uint64
				for i, gate := range [][2]int{
					{1 << 30, 0},     // always scan
					{0, 0},           // always index
					{oldMin, oldPer}, // the defaults
				} {
					indexMinHosts, minHostsPerBucket = gate[0], gate[1]
					sch, err := h.Schedule(d, rc)
					if err != nil {
						t.Fatal(err)
					}
					hashes[i] = scheduleHash(sch)
				}
				if hashes[1] != hashes[0] || hashes[2] != hashes[0] {
					t.Errorf("%s dag=%d rc=%d: indexed selection %016x, default %016x != scan %016x",
						h.Name(), di, ri, hashes[1], hashes[2], hashes[0])
				}
			}
		}
	}
}

// FuzzIndexedHostSelection is TestIndexedHostSelectionMatchesScan over
// drawn inputs: a DAG of 2–81 tasks with (when mix&4) one edge whose
// transfer time overflows to +Inf, and a collection of 128–640 hosts whose
// clocks are drawn from k values, on a uniform network or (when mix&1) a
// cluster network of hosts sampled from a generated platform, one clock per
// cluster, with (when mix&2) one host listed twice. mix>>3 picks the
// heuristic. The index forced on for any number of buckets and the scan
// forced must agree on the schedule hash.
func FuzzIndexedHostSelection(f *testing.F) {
	// Every combination of the three mix flags under Greedy, MCP and DLS.
	for i := range 24 {
		f.Add(uint64(i+1), uint16(37*i), uint16(1+i*i*5), uint8((2+i/8)<<3|i&7))
	}
	f.Fuzz(func(t *testing.T, seed uint64, mDraw, kDraw uint16, mix uint8) {
		rng := xrand.New(seed)
		m := 128 + int(mDraw)%513
		k := 1 + int(kDraw)%m
		clocks := make([]float64, k)
		for i := range clocks {
			clocks[i] = 1 + float64(i)/float64(k)
		}
		d := dag.MustGenerate(dag.GenSpec{
			Size: 2 + rng.Intn(80), CCR: rng.Uniform(0, 4), Parallelism: rng.Uniform(0.2, 0.9),
			Density: rng.Uniform(0.1, 1), Regularity: rng.Uniform(0, 1), MeanCost: rng.Uniform(1, 100),
		}, rng.Split())
		if mix&4 != 0 && d.NumEdges() > 0 {
			d = overflowingEdge(d)
		}
		var rc *platform.ResourceCollection
		if mix&1 != 0 {
			p := fuzzPlatform()
			hosts := make([]platform.Host, m)
			for i, id := range rng.Sample(p.NumHosts(), m) {
				hosts[i] = p.Hosts[id]
				hosts[i].ClockGHz = clocks[hosts[i].Cluster%k]
			}
			rc = platform.SubsetRC(p, hosts)
		} else {
			rc = platform.HomogeneousRC(m, 2.8, rng.Uniform(10, 1000))
			for i := range rc.Hosts {
				rc.Hosts[i].ClockGHz = clocks[rng.Intn(k)]
			}
		}
		if mix&2 != 0 {
			rc.Hosts[rng.Intn(m)] = rc.Hosts[rng.Intn(m)]
		}
		hs := append(All(), Baselines()...)
		h := hs[int(mix>>3)%len(hs)]

		oldMin, oldPer := indexMinHosts, minHostsPerBucket
		defer func() { indexMinHosts, minHostsPerBucket = oldMin, oldPer }()
		indexMinHosts = 1 << 30
		scan, err := h.Schedule(d, rc)
		if err != nil {
			t.Fatal(err)
		}
		indexMinHosts, minHostsPerBucket = 0, 0
		idx, err := h.Schedule(d, rc)
		if err != nil {
			t.Fatal(err)
		}
		if sh, ih := scheduleHash(scan), scheduleHash(idx); sh != ih {
			t.Fatalf("%s m=%d k=%d n=%d mix=%d: indexed selection %016x != scan %016x",
				h.Name(), m, k, d.Size(), mix, ih, sh)
		}
	})
}

// fewClassRC is an m-host uniform-network collection whose hosts cycle
// through k clock rates.
func fewClassRC(m, k int) *platform.ResourceCollection {
	rc := platform.HomogeneousRC(m, 2.8, 1000)
	for i := range rc.Hosts {
		rc.Hosts[i].ClockGHz = 1 + float64(i%k)/float64(k)
	}
	return rc
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
