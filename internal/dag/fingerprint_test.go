package dag

import (
	"encoding/binary"
	"hash/fnv"
	"hash/maphash"
	"math"
	"strings"
	"testing"

	"rsgen/internal/xrand"
)

func fpDAG(t *testing.T, tasks []Task, edges []Edge) *DAG {
	t.Helper()
	d, err := New(tasks, edges)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFingerprintStable(t *testing.T) {
	tasks := []Task{{ID: 0, Cost: 1}, {ID: 1, Cost: 2}, {ID: 2, Cost: 3}}
	edges := []Edge{{From: 0, To: 1, Cost: 0.5}, {From: 1, To: 2, Cost: 0.25}}
	a := fpDAG(t, tasks, edges)
	b := fpDAG(t, tasks, edges)
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("identical DAGs hash differently: %x vs %x", a.Fingerprint(), b.Fingerprint())
	}
	if a.Fingerprint() != a.Fingerprint() {
		t.Error("fingerprint not idempotent")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := fpDAG(t,
		[]Task{{ID: 0, Cost: 1}, {ID: 1, Cost: 2}},
		[]Edge{{From: 0, To: 1, Cost: 0.5}})
	cases := map[string]*DAG{
		"task cost": fpDAG(t,
			[]Task{{ID: 0, Cost: 1}, {ID: 1, Cost: 2.5}},
			[]Edge{{From: 0, To: 1, Cost: 0.5}}),
		"edge cost": fpDAG(t,
			[]Task{{ID: 0, Cost: 1}, {ID: 1, Cost: 2}},
			[]Edge{{From: 0, To: 1, Cost: 0.75}}),
		"edge set": fpDAG(t,
			[]Task{{ID: 0, Cost: 1}, {ID: 1, Cost: 2}},
			nil),
		"task name": fpDAG(t,
			[]Task{{ID: 0, Cost: 1, Name: "x"}, {ID: 1, Cost: 2}},
			[]Edge{{From: 0, To: 1, Cost: 0.5}}),
		"extra task": fpDAG(t,
			[]Task{{ID: 0, Cost: 1}, {ID: 1, Cost: 2}, {ID: 2, Cost: 0}},
			[]Edge{{From: 0, To: 1, Cost: 0.5}}),
	}
	for name, d := range cases {
		if d.Fingerprint() == base.Fingerprint() {
			t.Errorf("changing %s did not change the fingerprint", name)
		}
	}
}

func TestFingerprintGeneratedDeterministic(t *testing.T) {
	spec := GenSpec{Size: 120, CCR: 0.1, Parallelism: 0.6, Density: 0.5, Regularity: 0.5, MeanCost: 40}
	a := MustGenerate(spec, xrand.New(7))
	b := MustGenerate(spec, xrand.New(7))
	c := MustGenerate(spec, xrand.New(8))
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("same-seed generated DAGs hash differently")
	}
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("different-seed generated DAGs hash equal")
	}
}

// TestKey: Key is equal for DAGs of equal content, however they were built,
// differs on a one-bit change of one cost, and depends on the seed — it
// hashes what Fingerprint hashes, under a secret per process.
func TestKey(t *testing.T) {
	spec := GenSpec{Size: 120, CCR: 0.1, Parallelism: 0.6, Density: 0.5, Regularity: 0.5, MeanCost: 40}
	a := MustGenerate(spec, xrand.New(7))
	doc, err := a.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeBytes(doc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() || a.Key() != a.keyWith(keySeed) {
		t.Errorf("equal DAGs key apart: %016x, %016x", a.Key(), b.Key())
	}
	tasks := append([]Task(nil), a.Tasks()...)
	tasks[len(tasks)/2].Cost = math.Float64frombits(math.Float64bits(tasks[len(tasks)/2].Cost) ^ 1)
	if c := MustNew(tasks, a.Edges()); c.Key() == a.Key() {
		t.Error("a one-bit task cost change kept the key")
	}
	edges := append([]Edge(nil), a.Edges()...)
	edges[0].Cost = math.Float64frombits(math.Float64bits(edges[0].Cost) ^ 1)
	if c := MustNew(a.Tasks(), edges); c.Key() == a.Key() {
		t.Error("a one-bit edge cost change kept the key")
	}
	if a.keyWith(maphash.MakeSeed()) == a.keyWith(maphash.MakeSeed()) {
		t.Error("two seeds gave one key")
	}
	// Names longer than the hash's chunk are read whole.
	long := []Task{{ID: 0, Name: strings.Repeat("x", 3000), Cost: 1}}
	renamed := []Task{{ID: 0, Name: strings.Repeat("x", 2999) + "y", Cost: 1}}
	if MustNew(long, nil).Key() == MustNew(renamed, nil).Key() {
		t.Error("a change at the end of a long name kept the key")
	}
}

// TestContentHashAllocationFree: hashing a DAG's content allocates nothing,
// for the seeded key and for the FNV fingerprint, even when a task name is
// longer than the writer's chunk.
func TestContentHashAllocationFree(t *testing.T) {
	d := MustGenerate(GenSpec{Size: 400, CCR: 0.3, Parallelism: 0.5, Density: 0.2, Regularity: 0.5, MeanCost: 40}, xrand.New(11))
	tasks := append([]Task(nil), d.Tasks()...)
	tasks[7].Name = strings.Repeat("n", 3000)
	d = MustNew(tasks, d.Edges())
	if n := testing.AllocsPerRun(20, func() { d.keyWith(keySeed) }); n != 0 {
		t.Errorf("keyWith allocates %v objects per call", n)
	}
	if n := testing.AllocsPerRun(20, func() { contentFNV(d.tasks, d.edges) }); n != 0 {
		t.Errorf("the FNV content hash allocates %v objects per call", n)
	}
	if d.Fingerprint() != contentFNV(d.tasks, d.edges) || d.Key() != d.keyWith(keySeed) {
		t.Error("the cached hashes differ from the content hashes")
	}
}

// TestContentHashChunking holds both content hashes to a reference that
// serializes the whole content into one buffer first, for names of every
// length around the chunk's edges: where the chunk breaks must not show.
func TestContentHashChunking(t *testing.T) {
	d := MustGenerate(GenSpec{Size: 90, CCR: 0.3, Parallelism: 0.5, Density: 0.4, Regularity: 0.5, MeanCost: 40}, xrand.New(5))
	for _, n := range []int{1, 7, 900, 955, 960, 999, 1000, 1007, 1008, 1016, 1017, 1024, 2040, 3000} {
		tasks := append([]Task(nil), d.Tasks()...)
		for i := range tasks {
			tasks[i].Name = strings.Repeat("ab", (n*(i+1)%2048+1)/2)[:n*(i+1)%2048]
		}
		tasks[len(tasks)/3].Name = strings.Repeat("x", n)
		var ref []byte
		le := binary.LittleEndian
		ref = le.AppendUint64(ref, uint64(len(tasks)))
		for _, task := range tasks {
			ref = le.AppendUint64(ref, uint64(len(task.Name)))
			ref = append(ref, task.Name...)
			ref = le.AppendUint64(ref, math.Float64bits(task.Cost))
		}
		ref = le.AppendUint64(ref, uint64(d.NumEdges()))
		for _, e := range d.Edges() {
			ref = le.AppendUint64(ref, uint64(e.From))
			ref = le.AppendUint64(ref, uint64(e.To))
			ref = le.AppendUint64(ref, math.Float64bits(e.Cost))
		}
		h := fnv.New64a()
		h.Write(ref)
		got := MustNew(tasks, d.Edges())
		if got.Fingerprint() != h.Sum64() {
			t.Errorf("name length %d: fingerprint %016x, reference %016x", n, got.Fingerprint(), h.Sum64())
		}
		if got.Key() != maphash.Bytes(keySeed, ref) {
			t.Errorf("name length %d: key %016x, reference %016x", n, got.Key(), maphash.Bytes(keySeed, ref))
		}
	}
}
