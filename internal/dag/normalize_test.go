package dag

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"rsgen/internal/xrand"
)

// relabel builds the isomorphic DAG obtained by renumbering tasks with perm
// (new ID = perm[old ID]), renaming every task, and emitting edges in a
// shuffled order.
func relabel(t *testing.T, d *DAG, perm []int, rng *xrand.RNG) *DAG {
	t.Helper()
	n := d.Size()
	tasks := make([]Task, n)
	for old := 0; old < n; old++ {
		tasks[perm[old]] = Task{
			ID:   TaskID(perm[old]),
			Name: fmt.Sprintf("renamed-%d-%d", perm[old], rng.Intn(1000)),
			Cost: d.Task(TaskID(old)).Cost,
		}
	}
	edges := make([]Edge, 0, d.NumEdges())
	for _, e := range d.Edges() {
		edges = append(edges, Edge{From: TaskID(perm[e.From]), To: TaskID(perm[e.To]), Cost: e.Cost})
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	out, err := New(tasks, edges)
	if err != nil {
		t.Fatalf("relabel produced an invalid DAG: %v", err)
	}
	return out
}

// TestNormalFingerprintInvariantUnderRelabeling is the shape-coalescing
// contract: renaming tasks, permuting task numbers, and reordering edges
// must not change the normal fingerprint, across a corpus of generated
// shapes.
func TestNormalFingerprintInvariantUnderRelabeling(t *testing.T) {
	specs := []GenSpec{
		{Size: 1, CCR: 0, Parallelism: 0, Density: 0.5, Regularity: 0.5, MeanCost: 10},
		{Size: 12, CCR: 0.3, Parallelism: 0.5, Density: 0.5, Regularity: 0.5, MeanCost: 40},
		{Size: 40, CCR: 1, Parallelism: 0.7, Density: 0.3, Regularity: 0.8, MeanCost: 25},
		{Size: 90, CCR: 0.1, Parallelism: 0.4, Density: 0.9, Regularity: 0.2, MeanCost: 60},
	}
	for si, gs := range specs {
		rng := xrand.NewFrom(77, uint64(si))
		d, err := Generate(gs, rng)
		if err != nil {
			t.Fatalf("spec %d: %v", si, err)
		}
		want := d.NormalFingerprint()
		for rep := 0; rep < 5; rep++ {
			perm := rng.Perm(d.Size())
			iso := relabel(t, d, perm, rng)
			if iso.Fingerprint() == d.Fingerprint() && rep > 0 {
				t.Fatalf("spec %d rep %d: relabeling produced a byte-identical DAG (bad test permutation)", si, rep)
			}
			if got := iso.NormalFingerprint(); got != want {
				t.Errorf("spec %d rep %d: normal fingerprint %016x != original %016x", si, rep, got, want)
			}
		}
	}
}

// TestNormalizeIsARelabeling asserts the normal form preserves everything
// isomorphism preserves: size, edge count, level structure, characteristics,
// and the multiset of task costs — and strips names.
func TestNormalizeIsARelabeling(t *testing.T) {
	rng := xrand.New(9)
	d := MustGenerate(GenSpec{Size: 60, CCR: 0.5, Parallelism: 0.6, Density: 0.4, Regularity: 0.5, MeanCost: 30}, rng)
	nd := d.Normalize()

	if nd.Size() != d.Size() || nd.NumEdges() != d.NumEdges() || nd.Height() != d.Height() {
		t.Fatalf("normal form changed shape: %d/%d/%d vs %d/%d/%d",
			nd.Size(), nd.NumEdges(), nd.Height(), d.Size(), d.NumEdges(), d.Height())
	}
	for l := 0; l < d.Height(); l++ {
		if nd.LevelSize(l) != d.LevelSize(l) {
			t.Errorf("level %d size %d != %d", l, nd.LevelSize(l), d.LevelSize(l))
		}
	}
	if nd.Width() != d.Width() {
		t.Errorf("width %d != %d", nd.Width(), d.Width())
	}
	sum := func(x *DAG) float64 { return x.TotalWork() }
	if math.Abs(sum(nd)-sum(d)) > 1e-9 {
		t.Errorf("total work changed: %v != %v", sum(nd), sum(d))
	}
	for _, task := range nd.Tasks() {
		if task.Name != "" {
			t.Fatalf("normal form kept a task name: %q", task.Name)
		}
	}
	// Tasks must appear in level order with dense IDs.
	lastLevel := 0
	for _, task := range nd.Tasks() {
		if l := nd.Level(task.ID); l < lastLevel {
			t.Fatalf("normal form tasks not in level order at task %d", task.ID)
		} else {
			lastLevel = l
		}
	}
}

// TestNormalizeIdempotent: the normal form of a normal form is itself.
func TestNormalizeIdempotent(t *testing.T) {
	rng := xrand.New(5)
	d := MustGenerate(GenSpec{Size: 35, CCR: 0.4, Parallelism: 0.5, Density: 0.5, Regularity: 0.5, MeanCost: 40}, rng)
	nd := d.Normalize()
	if nd.Normalize().Fingerprint() != nd.Fingerprint() {
		t.Error("Normalize is not idempotent")
	}
	if d.NormalFingerprint() != nd.Fingerprint() {
		t.Error("NormalFingerprint != Normalize().Fingerprint()")
	}
}

// TestNormalFingerprintSeparatesShapes: distinct shapes (different costs or
// different structure) must keep distinct normal fingerprints.
func TestNormalFingerprintSeparatesShapes(t *testing.T) {
	chain := MustNew(
		[]Task{{ID: 0, Cost: 1}, {ID: 1, Cost: 2}, {ID: 2, Cost: 3}},
		[]Edge{{From: 0, To: 1, Cost: 1}, {From: 1, To: 2, Cost: 1}},
	)
	fork := MustNew(
		[]Task{{ID: 0, Cost: 1}, {ID: 1, Cost: 2}, {ID: 2, Cost: 3}},
		[]Edge{{From: 0, To: 1, Cost: 1}, {From: 0, To: 2, Cost: 1}},
	)
	costShift := MustNew(
		[]Task{{ID: 0, Cost: 1}, {ID: 1, Cost: 2}, {ID: 2, Cost: 4}},
		[]Edge{{From: 0, To: 1, Cost: 1}, {From: 1, To: 2, Cost: 1}},
	)
	edgeShift := MustNew(
		[]Task{{ID: 0, Cost: 1}, {ID: 1, Cost: 2}, {ID: 2, Cost: 3}},
		[]Edge{{From: 0, To: 1, Cost: 9}, {From: 1, To: 2, Cost: 1}},
	)
	fps := map[uint64]string{}
	for name, d := range map[string]*DAG{"chain": chain, "fork": fork, "cost": costShift, "edge": edgeShift} {
		fp := d.NormalFingerprint()
		if other, dup := fps[fp]; dup {
			t.Errorf("distinct shapes %s and %s share normal fingerprint %016x", name, other, fp)
		}
		fps[fp] = name
	}
}

// TestNormalizeSingleTask: the degenerate one-task workflow — no edges, no
// refinement rounds to run — must normalize to a valid, stable form that
// strips the name and keeps the cost.
func TestNormalizeSingleTask(t *testing.T) {
	d := MustNew([]Task{{ID: 0, Name: "only", Cost: 7.5}}, nil)
	nd := d.Normalize()
	if nd.Size() != 1 || nd.NumEdges() != 0 {
		t.Fatalf("normal form shape %d tasks/%d edges, want 1/0", nd.Size(), nd.NumEdges())
	}
	if task := nd.Task(0); task.Name != "" || task.Cost != 7.5 {
		t.Errorf("normal task = %+v, want nameless cost 7.5", task)
	}
	if nd.Normalize().Fingerprint() != nd.Fingerprint() {
		t.Error("single-task Normalize is not idempotent")
	}
	renamed := MustNew([]Task{{ID: 0, Name: "other", Cost: 7.5}}, nil)
	if renamed.NormalFingerprint() != d.NormalFingerprint() {
		t.Error("renaming the only task changed the normal fingerprint")
	}
	if off := MustNew([]Task{{ID: 0, Cost: 8}}, nil); off.NormalFingerprint() == d.NormalFingerprint() {
		t.Error("different single-task costs share a normal fingerprint")
	}
}

// TestNormalizeDisconnectedComponents: a DAG whose underlying graph has
// several components (independent jobs batched into one workflow) must
// normalize like any other shape — component numbering is just task
// numbering, so swapping the components is a relabeling and must not change
// the normal fingerprint.
func TestNormalizeDisconnectedComponents(t *testing.T) {
	// Component A: chain 0→1; component B: fork 2→{3,4}; task 5 isolated.
	d := MustNew(
		[]Task{
			{ID: 0, Name: "a0", Cost: 1}, {ID: 1, Name: "a1", Cost: 2},
			{ID: 2, Name: "b0", Cost: 3}, {ID: 3, Name: "b1", Cost: 4}, {ID: 4, Name: "b2", Cost: 5},
			{ID: 5, Name: "lone", Cost: 6},
		},
		[]Edge{{From: 0, To: 1, Cost: 1}, {From: 2, To: 3, Cost: 2}, {From: 2, To: 4, Cost: 3}},
	)
	nd := d.Normalize()
	if nd.Size() != d.Size() || nd.NumEdges() != d.NumEdges() {
		t.Fatalf("normal form shape %d/%d, want %d/%d", nd.Size(), nd.NumEdges(), d.Size(), d.NumEdges())
	}
	if math.Abs(nd.TotalWork()-d.TotalWork()) > 1e-9 {
		t.Errorf("total work changed: %v != %v", nd.TotalWork(), d.TotalWork())
	}
	// The same workflow with the components listed in the other order (and
	// everything renamed) is isomorphic; the relabel corpus helper exercises
	// arbitrary permutations on top.
	swapped := MustNew(
		[]Task{
			{ID: 0, Name: "B0", Cost: 3}, {ID: 1, Name: "B1", Cost: 4}, {ID: 2, Name: "B2", Cost: 5},
			{ID: 3, Name: "L", Cost: 6},
			{ID: 4, Name: "A0", Cost: 1}, {ID: 5, Name: "A1", Cost: 2},
		},
		[]Edge{{From: 0, To: 1, Cost: 2}, {From: 0, To: 2, Cost: 3}, {From: 4, To: 5, Cost: 1}},
	)
	if swapped.NormalFingerprint() != d.NormalFingerprint() {
		t.Errorf("component order changed the normal fingerprint: %016x != %016x",
			swapped.NormalFingerprint(), d.NormalFingerprint())
	}
	rng := xrand.New(21)
	for rep := 0; rep < 5; rep++ {
		iso := relabel(t, d, rng.Perm(d.Size()), rng)
		if iso.NormalFingerprint() != d.NormalFingerprint() {
			t.Errorf("rep %d: relabeled disconnected DAG changed normal fingerprint", rep)
		}
	}
	// Merging the components (an extra edge) is a different shape.
	joined := MustNew(d.Tasks(), append(append([]Edge(nil), d.Edges()...), Edge{From: 1, To: 5, Cost: 1}))
	if joined.NormalFingerprint() == d.NormalFingerprint() {
		t.Error("connecting the components kept the same normal fingerprint")
	}
}

// TestNormalizeCharacteristicsBitIdentical pins the property the serving
// layer's shape coalescing rests on: the characteristics vector of the
// normal form is bit-identical to the original's for every generated shape
// in the corpus (the sums involved are over identical float multisets in a
// possibly different order; the canonical order regroups per level, and the
// per-level grouping matches how the characteristics are accumulated).
func TestNormalizeCharacteristicsBitIdentical(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := xrand.New(seed)
		d := MustGenerate(GenSpec{
			Size: 20 + int(seed)*11, CCR: 0.2 * float64(seed%4+1),
			Parallelism: 0.4, Density: 0.5, Regularity: 0.5, MeanCost: 35,
		}, rng)
		perm := rng.Perm(d.Size())
		iso := relabel(t, d, perm, rng)
		a, b := d.Normalize().Characteristics(), iso.Normalize().Characteristics()
		if a != b {
			t.Errorf("seed %d: normal-form characteristics differ:\n%+v\nvs\n%+v", seed, a, b)
		}
	}
}

// TestNormalKeyBuildsNoNormalForm: NormalKey is Normalize().Key() — on the
// DAG, on relabelled isomorphs, and on the degenerate shapes — and
// computing it leaves the normal form unbuilt, so a shape-cache hit pays
// for no second DAG.
func TestNormalKeyBuildsNoNormalForm(t *testing.T) {
	rng := xrand.New(31)
	base := MustGenerate(GenSpec{Size: 80, CCR: 0.4, Parallelism: 0.6, Density: 0.4, Regularity: 0.5, MeanCost: 30}, rng)
	cases := []*DAG{
		base,
		relabel(t, base, rng.Perm(base.Size()), rng),
		relabel(t, base, rng.Perm(base.Size()), rng),
		MustNew([]Task{{ID: 0, Name: "only", Cost: 2}}, nil),
		MustNew([]Task{{ID: 0, Cost: 1}, {ID: 1, Cost: 1}, {ID: 2, Cost: 1}}, nil),
	}
	for i, d := range cases {
		k := d.NormalKey()
		if d.normCache != nil {
			t.Fatalf("case %d: NormalKey built the normal form", i)
		}
		if want := d.Normalize().Key(); k != want {
			t.Errorf("case %d: NormalKey %016x != Normalize().Key() %016x", i, k, want)
		}
	}
	if cases[0].NormalKey() != cases[1].NormalKey() || cases[0].NormalKey() != cases[2].NormalKey() {
		t.Error("relabelled isomorphs have different normal keys")
	}
	if cases[3].NormalKey() == cases[4].NormalKey() {
		t.Error("distinct shapes share a normal key")
	}
}

// TestNormalKeyConcurrent: goroutines sharing one DAG and the scratch pool
// agree on its normal key and normal form, whichever of NormalKey and
// Normalize runs first. Run it under -race.
func TestNormalKeyConcurrent(t *testing.T) {
	rng := xrand.New(41)
	dags := make([]*DAG, 4)
	want := make([]uint64, len(dags))
	for i := range dags {
		d := MustGenerate(GenSpec{Size: 60 + 20*i, CCR: 0.5, Parallelism: 0.5, Density: 0.5, Regularity: 0.5, MeanCost: 40}, rng)
		want[i] = MustNew(d.Tasks(), d.Edges()).Normalize().Key()
		dags[i] = d
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range dags {
				i := (g + k) % len(dags)
				d := dags[i]
				if g%2 == 0 && d.Normalize().Key() != want[i] || d.NormalKey() != want[i] {
					t.Errorf("goroutine %d, DAG %d: normal key differs", g, i)
				}
			}
		}()
	}
	wg.Wait()
}
