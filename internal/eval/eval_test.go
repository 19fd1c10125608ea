package eval

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"rsgen/internal/dag"
	"rsgen/internal/platform"
	"rsgen/internal/sched"
	"rsgen/internal/xrand"
)

func testRC() *platform.ResourceCollection {
	return platform.HomogeneousRC(4, 2.8, platform.ReferenceBandwidthMbps)
}

func testDags(t testing.TB, n, size int) []*dag.DAG {
	t.Helper()
	spec := dag.GenSpec{Size: size, CCR: 0.1, Parallelism: 0.6, Density: 0.5, Regularity: 0.5, MeanCost: 40}
	out := make([]*dag.DAG, n)
	for i := range out {
		d, err := dag.Generate(spec, xrand.NewFrom(1, uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = d
	}
	return out
}

func testPoints(t testing.TB, sizes []int) []Point {
	dags := testDags(t, 2, 80)
	points := make([]Point, len(sizes))
	for i, s := range sizes {
		points[i] = Point{Dags: dags, Size: s, Seed: 7, Heterogeneity: 0.3}
	}
	return points
}

func TestEvaluateMatchesSerialDefinition(t *testing.T) {
	dags := testDags(t, 2, 60)
	p := Point{Dags: dags, Size: 8}
	r, err := Evaluate(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size != 8 {
		t.Errorf("Size = %d, want 8", r.Size)
	}
	if diff := r.TurnAround - (r.SchedTime + r.Makespan); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("turn-around %v != sched %v + makespan %v", r.TurnAround, r.SchedTime, r.Makespan)
	}
	if r.TurnAround <= 0 || r.CostUSD <= 0 {
		t.Errorf("non-positive metrics: %+v", r)
	}
}

func TestEvaluateErrors(t *testing.T) {
	if _, err := Evaluate(context.Background(), Point{Size: 4}); err == nil {
		t.Error("no error for empty DAG set")
	}
	dags := testDags(t, 1, 20)
	if _, err := Evaluate(context.Background(), Point{Dags: dags, Size: 0}); err == nil {
		t.Error("no error for size 0")
	}
}

// TestPoolOrderPreserving is the core determinism guarantee: any worker
// count yields bit-identical results in input order.
func TestPoolOrderPreserving(t *testing.T) {
	points := testPoints(t, []int{1, 2, 3, 5, 8, 13, 21, 34, 21, 8})
	serial, err := (&Pool{Workers: 1}).EvaluateAll(points)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8, 0} {
		parallel, err := (&Pool{Workers: workers}).EvaluateAll(points)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range serial {
			if serial[i] != parallel[i] {
				t.Fatalf("workers=%d: result %d differs: %+v vs %+v", workers, i, serial[i], parallel[i])
			}
		}
	}
}

func TestPoolLowestIndexError(t *testing.T) {
	points := testPoints(t, []int{4, 8})
	bad := points[0]
	bad.Size = 0
	points = append(points, bad) // index 2 invalid
	points = append(points, testPoints(t, []int{16})...)
	for _, workers := range []int{1, 4} {
		_, err := (&Pool{Workers: workers}).EvaluateAll(points)
		if err == nil {
			t.Fatalf("workers=%d: invalid point not reported", workers)
		}
		serialErr := func() error {
			for _, p := range points {
				if _, e := Evaluate(context.Background(), p); e != nil {
					return e
				}
			}
			return nil
		}()
		if err.Error() != serialErr.Error() {
			t.Errorf("workers=%d: error %q, serial path reports %q", workers, err, serialErr)
		}
	}
}

func TestPoolCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	points := testPoints(t, []int{2, 4, 8})
	_, err := (&Pool{Workers: 2, Ctx: ctx}).EvaluateAll(points)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled pool returned %v, want context.Canceled", err)
	}
}

func TestPoolPerPointTimeout(t *testing.T) {
	// A deadline that is already unmeetable must abort every point.
	points := testPoints(t, []int{64})
	_, err := (&Pool{Workers: 1, Timeout: time.Nanosecond}).EvaluateAll(points)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("timed-out pool returned %v, want context.DeadlineExceeded", err)
	}
}

func TestCacheHitReturnsIdenticalResult(t *testing.T) {
	cache := NewLRU[Key, Result](DefaultCacheEntries)
	pool := &Pool{Workers: 1, Cache: cache}
	points := testPoints(t, []int{4, 8, 4}) // size 4 repeats
	before := Snapshot()
	first, err := pool.EvaluateAll(points)
	if err != nil {
		t.Fatal(err)
	}
	delta := Snapshot().Sub(before)
	if delta.Points != 2 || delta.CacheHits != 1 || delta.CacheMisses != 2 {
		t.Errorf("stats after first run = %+v, want 2 points, 1 hit, 2 misses", delta)
	}
	if first[0] != first[2] {
		t.Errorf("repeated point differs: %+v vs %+v", first[0], first[2])
	}
	second, err := pool.EvaluateAll(points)
	if err != nil {
		t.Fatal(err)
	}
	delta = Snapshot().Sub(before)
	if delta.Points != 2 {
		t.Errorf("second run re-evaluated: %d points total, want 2", delta.Points)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("cached result %d differs: %+v vs %+v", i, first[i], second[i])
		}
	}
	if cache.Len() != 2 {
		t.Errorf("cache holds %d entries, want 2", cache.Len())
	}
}

func TestCacheKeyDiscriminates(t *testing.T) {
	dags := testDags(t, 1, 30)
	base := Point{Dags: dags, Size: 4}
	k0, ok := keyOf(base)
	if !ok {
		t.Fatal("base point not cacheable")
	}
	variants := map[string]Point{
		"size":          {Dags: dags, Size: 5},
		"heuristic":     {Dags: dags, Size: 4, Heuristic: sched.FCFS{}},
		"mcp-prefix":    {Dags: dags, Size: 4, Heuristic: sched.MCP{Prefix: -1}},
		"clock":         {Dags: dags, Size: 4, ClockGHz: 3.0},
		"heterogeneity": {Dags: dags, Size: 4, Heterogeneity: 0.2},
		"bandwidth":     {Dags: dags, Size: 4, BandwidthMbps: 1000},
		"scr":           {Dags: dags, Size: 4, SCR: 2},
		"seed":          {Dags: dags, Size: 4, Seed: 9, Heterogeneity: 0.2},
		"dags":          {Dags: testDags(t, 1, 31), Size: 4},
	}
	for name, p := range variants {
		k, ok := keyOf(p)
		if !ok {
			t.Fatalf("%s variant not cacheable", name)
		}
		if k == k0 {
			t.Errorf("changing %s did not change the cache key", name)
		}
	}
	// Two values of one heuristic that schedule differently share a name.
	k1, _ := keyOf(Point{Dags: dags, Size: 4, Heuristic: sched.Random{Seed: 1}})
	k2, _ := keyOf(Point{Dags: dags, Size: 4, Heuristic: sched.Random{Seed: 2}})
	if k1 == k2 {
		t.Error("Random{Seed: 1} and Random{Seed: 2} share a cache key")
	}
	if _, ok := keyOf(Point{Dags: dags, RC: testRC()}); ok {
		t.Error("explicit-RC point must not be cacheable")
	}
}

// TestCacheEviction pins the LRU's exact semantics, which both memos rely
// on: Get refreshes recency, Put of an existing key replaces its value and
// refreshes it, Put of a new key at capacity evicts the least recently used
// entry and counts it, and Clear empties the cache.
func TestCacheEviction(t *testing.T) {
	c := NewLRU[string, string](2)
	c.Put("a", "A")
	c.Put("b", "B")
	if _, ok := c.Get("a"); !ok { // refresh a: b is now least recent
		t.Fatal("a missing")
	}
	c.Put("c", "C") // evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("b not evicted")
	}
	if v, ok := c.Get("a"); !ok || v != "A" {
		t.Errorf("a = %q, %v; want A", v, ok)
	}
	if v, ok := c.Get("c"); !ok || v != "C" {
		t.Errorf("c = %q, %v; want C", v, ok)
	}
	if c.Len() != 2 || c.Evictions() != 1 {
		t.Errorf("len %d, evictions %d; want 2, 1", c.Len(), c.Evictions())
	}

	// Recency is now a < c. Replacing a keeps the size, counts no eviction
	// and makes a the most recent, so the next new key evicts c.
	c.Put("a", "A2")
	if c.Len() != 2 || c.Evictions() != 1 {
		t.Errorf("replace: len %d, evictions %d; want 2, 1", c.Len(), c.Evictions())
	}
	c.Put("d", "D")
	if _, ok := c.Get("c"); ok {
		t.Error("c not evicted after a was replaced")
	}
	if v, ok := c.Get("a"); !ok || v != "A2" {
		t.Errorf("a = %q, %v; want the replacement A2", v, ok)
	}
	if c.Len() != 2 || c.Evictions() != 2 {
		t.Errorf("len %d, evictions %d; want 2, 2", c.Len(), c.Evictions())
	}

	c.Clear()
	if c.Len() != 0 {
		t.Errorf("cache not cleared: %d entries", c.Len())
	}
	if _, ok := c.Get("d"); ok {
		t.Error("d survived Clear")
	}
	c.Put("e", "E")
	if v, ok := c.Get("e"); !ok || v != "E" || c.Len() != 1 {
		t.Errorf("after Clear: e = %q, %v, len %d", v, ok, c.Len())
	}

	// The capacity floor is one entry.
	one := NewLRU[Key, Result](0)
	one.Put(Key{Size: 1}, Result{Size: 1})
	one.Put(Key{Size: 2}, Result{Size: 2})
	if r, ok := one.Get(Key{Size: 2}); one.Len() != 1 || !ok || r.Size != 2 {
		t.Errorf("capacity-0 cache: len %d, newest %+v %v", one.Len(), r, ok)
	}
}

func TestHeterogeneousRCIndependentOfOrder(t *testing.T) {
	// The het platform drawn for (seed, size) must not depend on which
	// other points ran first — evaluate the same point alone and last.
	points := testPoints(t, []int{6})
	alone, err := (&Pool{Workers: 1}).EvaluateAll(points)
	if err != nil {
		t.Fatal(err)
	}
	many := testPoints(t, []int{2, 3, 4, 5, 6})
	batch, err := (&Pool{Workers: 3}).EvaluateAll(many)
	if err != nil {
		t.Fatal(err)
	}
	if alone[0] != batch[len(batch)-1] {
		t.Errorf("size-6 point depends on evaluation order: %+v vs %+v", alone[0], batch[len(batch)-1])
	}
}

func TestCacheShardedConcurrent(t *testing.T) {
	// Hammer a default-capacity cache from many goroutines (run under
	// -race in `make check`) and confirm every written entry reads back
	// exactly and the capacity bound holds.
	c := NewLRU[Key, Result](DefaultCacheEntries)
	var wg sync.WaitGroup
	const writers, perWriter = 8, 500
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := Key{Dags: uint64(w), Size: i, Heuristic: sched.MCP{}, Seed: uint64(i)}
				c.Put(k, Result{Size: i, Makespan: float64(w)})
				got, ok := c.Get(k)
				if !ok || got.Size != i || got.Makespan != float64(w) {
					t.Errorf("w%d i%d: read-after-write mismatch: %+v ok=%v", w, i, got, ok)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := c.Len(); n != writers*perWriter {
		t.Errorf("Len = %d, want %d (no evictions expected below capacity)", n, writers*perWriter)
	}
	c.Clear()
	if c.Len() != 0 {
		t.Errorf("Clear left %d entries", c.Len())
	}
}
