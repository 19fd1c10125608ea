package moga

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"rsgen/internal/dag"
	"rsgen/internal/platform"
	"rsgen/internal/spec"
	"rsgen/internal/xrand"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_front.json from the current implementation")

// testProblem builds the fixed search instance the golden and determinism
// tests pin: a 12-cluster 2006 platform and a mid-size mixed DAG.
func testProblem(t *testing.T) Problem {
	t.Helper()
	p := platform.MustGenerate(platform.GenSpec{Clusters: 12, Year: 2006}, xrand.New(3))
	d := dag.MustGenerate(dag.GenSpec{
		Size: 60, CCR: 0.4, Parallelism: 0.6, Density: 0.5, Regularity: 0.5, MeanCost: 30,
	}, xrand.New(7))
	return Problem{
		Platform: p,
		Spec:     &spec.Specification{Heuristic: "MCP", RCSize: 8, MinMemoryMB: 512},
		Dag:      d,
	}
}

// testEngine builds the engine Search would run for pr under cfg, which
// must already have its defaults.
func testEngine(pr Problem, cfg Config) (*engine, error) {
	elig, err := eligible(pr)
	if err != nil {
		return nil, err
	}
	return newEngine(pr, cfg, elig), nil
}

func mustSearch(t *testing.T, pr Problem, cfg Config) *Result {
	t.Helper()
	res, err := Search(context.Background(), pr, cfg)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(res.Front) == 0 {
		t.Fatal("Search returned an empty front")
	}
	return res
}

// Two searches with the same seed must return byte-identical fronts,
// including order; a different seed is allowed (and expected) to differ
// somewhere in the population trajectory.
func TestSearchDeterministic(t *testing.T) {
	pr := testProblem(t)
	cfg := Config{PopSize: 24, Generations: 10, Seed: 42}
	a := mustSearch(t, pr, cfg)
	b := mustSearch(t, pr, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same-seed searches diverged:\n%+v\nvs\n%+v", a.Front, b.Front)
	}
	if a.Evaluations != b.Evaluations || a.Generations != b.Generations {
		t.Errorf("same-seed budgets diverged: %d/%d vs %d/%d",
			a.Evaluations, a.Generations, b.Evaluations, b.Generations)
	}
}

// The golden front pins the exact knee-ranked front for a fixed seed, the
// same way sched's golden corpus pins schedules. Regenerate deliberately
// with: go test ./internal/moga -run TestGoldenFront -update-golden
func TestGoldenFront(t *testing.T) {
	pr := testProblem(t)
	res := mustSearch(t, pr, Config{PopSize: 24, Generations: 12, Seed: 1})
	got, err := json.MarshalIndent(res.Front, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "golden_front.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d solutions)", path, len(res.Front))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("front deviates from golden %s; if intentional, regenerate with -update-golden\ngot:\n%s", path, got)
	}
}

// Every returned front must be mutually non-dominated, knee-ranked (index 0
// minimizes knee distance), and solutions must be exactly RCSize sorted
// unique hosts — across a spread of seeds and both evaluation modes.
func TestFrontProperties(t *testing.T) {
	pr := testProblem(t)
	for _, withDag := range []bool{true, false} {
		p := pr
		if !withDag {
			p.Dag = nil
		}
		for seed := uint64(1); seed <= 5; seed++ {
			res := mustSearch(t, p, Config{PopSize: 20, Generations: 8, Seed: seed})
			checkFront(t, p, res.Front)
		}
	}
}

func checkFront(t *testing.T, pr Problem, front []Solution) {
	t.Helper()
	for i, s := range front {
		if len(s.Hosts) != pr.Spec.RCSize {
			t.Fatalf("solution %d has %d hosts, want %d", i, len(s.Hosts), pr.Spec.RCSize)
		}
		for j := 1; j < len(s.Hosts); j++ {
			if s.Hosts[j] <= s.Hosts[j-1] {
				t.Fatalf("solution %d hosts not sorted-unique: %v", i, s.Hosts)
			}
		}
		for _, id := range s.Hosts {
			if pr.Excluded[id] {
				t.Fatalf("solution %d contains excluded host %d", i, id)
			}
			if h := pr.Platform.Host(id); h.MemoryMB < pr.Spec.MinMemoryMB {
				t.Fatalf("solution %d host %d below memory floor", i, id)
			}
		}
		if i > 0 && s.KneeDistance < front[i-1].KneeDistance {
			t.Fatalf("front not knee-ranked at %d: %v after %v", i, s.KneeDistance, front[i-1].KneeDistance)
		}
	}
	for i := range front {
		for j := range front {
			if i != j && front[i].Obj.Dominates(front[j].Obj) {
				t.Fatalf("front not mutually non-dominated: %d dominates %d\n%+v\n%+v",
					i, j, front[i], front[j])
			}
		}
	}
}

// Excluded hosts must never appear, even when the mask forces the search
// into a corner of the universe.
func TestSearchHonorsExclusions(t *testing.T) {
	pr := testProblem(t)
	excluded := map[platform.HostID]bool{}
	for _, h := range pr.Platform.Hosts {
		if h.Cluster%2 == 0 {
			excluded[h.ID] = true
		}
	}
	pr.Excluded = excluded
	res := mustSearch(t, pr, Config{PopSize: 16, Generations: 6, Seed: 9})
	checkFront(t, pr, res.Front)
	// A fully-masked universe is an error, not a panic or empty front.
	for _, h := range pr.Platform.Hosts {
		excluded[h.ID] = true
	}
	if _, err := Search(context.Background(), pr, Config{}); err == nil {
		t.Error("fully-masked search succeeded, want ErrNoEligibleHosts")
	}
}

// MaxEvaluations is a hard cap on unique objective evaluations.
func TestSearchBudget(t *testing.T) {
	pr := testProblem(t)
	res := mustSearch(t, pr, Config{PopSize: 16, Generations: 50, MaxEvaluations: 40, Seed: 2})
	if res.Evaluations > 40 {
		t.Errorf("spent %d evaluations, budget 40", res.Evaluations)
	}
}

// A cancelled context aborts between generations, and no scoring goroutine
// outlives Search: not when the context is cancelled before the search, not
// when it is cancelled after a few generations, not when the search ends.
func TestSearchCancellation(t *testing.T) {
	pr := testProblem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Search(ctx, pr, Config{Workers: 2}); err != context.Canceled {
		t.Errorf("Search on cancelled ctx = %v, want context.Canceled", err)
	}
	checkNoScorers(t, "cancelled before the search")

	mid := &cancelAfter{Context: context.Background(), n: 4}
	if _, err := Search(mid, pr, Config{Workers: 2}); err != context.Canceled {
		t.Errorf("Search cancelled after 3 generations = %v, want context.Canceled", err)
	}
	if mid.scorers != 2 {
		t.Errorf("saw %d scoring goroutines during the search, want 2", mid.scorers)
	}
	checkNoScorers(t, "cancelled mid-search")

	mustSearch(t, pr, Config{Workers: 2})
	checkNoScorers(t, "completed")
}

// cancelAfter is a context whose Err reports Canceled from its n-th call on
// (Search calls it once per generation); each call also records the most
// scoring goroutines it has seen alive.
type cancelAfter struct {
	context.Context
	n, calls, scorers int
}

func (c *cancelAfter) Err() error {
	c.calls++
	c.scorers = max(c.scorers, scoringGoroutines())
	if c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// scoringGoroutines counts the goroutines running engine.scoreJobs.
func scoringGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("moga.(*engine).scoreJobs("))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// checkNoScorers fails unless every scoring goroutine has exited. Search
// waits until each has signalled its exit, so the only grace allowed is for
// a goroutine between that signal and its return.
func checkNoScorers(t *testing.T, when string) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); scoringGoroutines() > 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d scoring goroutines outlived Search", when, scoringGoroutines())
		}
		time.Sleep(time.Millisecond)
	}
}

// The front should actually spread across objectives on a heterogeneous
// platform: at least two solutions, with a real cost or power spread between
// the cheapest and most expensive (otherwise the whole exercise collapsed to
// a single point and front-walking is vacuous).
func TestFrontSpread(t *testing.T) {
	pr := testProblem(t)
	res := mustSearch(t, pr, Config{PopSize: 32, Generations: 16, Seed: 1})
	if len(res.Front) < 2 {
		t.Fatalf("front has %d solutions, want ≥ 2", len(res.Front))
	}
	lo, hi := res.Front[0].Obj.CostUSD, res.Front[0].Obj.CostUSD
	for _, s := range res.Front {
		if s.Obj.CostUSD < lo {
			lo = s.Obj.CostUSD
		}
		if s.Obj.CostUSD > hi {
			hi = s.Obj.CostUSD
		}
	}
	if hi <= lo {
		t.Errorf("no cost spread across the front: [%v, %v]", lo, hi)
	}
}

// Unit check of the dominance relation and the fast non-dominated sort on a
// hand-built population.
func TestNonDominatedSort(t *testing.T) {
	mk := func(t2, c, p, f float64) indiv {
		return indiv{obj: Objectives{TurnAroundSeconds: t2, CostUSD: c, PowerWatts: p, Fragmentation: f}}
	}
	pop := []indiv{
		mk(1, 1, 1, 1),   // rank 0
		mk(2, 2, 2, 2),   // dominated by [0] and [2] → rank 2
		mk(1, 2, 1, 1),   // dominated by [0] only → rank 1
		mk(0.5, 3, 1, 1), // trades turn-around vs cost with [0] → rank 0
		mk(3, 3, 3, 3),   // dominated by [0],[1],[2] → rank 3
	}
	want := []int{0, 2, 1, 0, 3}
	ranked := new(ranker).rank(pop)
	for i, w := range want {
		if ranked[i].rank != w {
			t.Errorf("member %d rank = %d, want %d", i, ranked[i].rank, w)
		}
	}
	if !pop[0].obj.Dominates(pop[1].obj) || pop[1].obj.Dominates(pop[0].obj) {
		t.Error("dominance relation broken for strictly-better vector")
	}
	if pop[0].obj.Dominates(pop[0].obj) {
		t.Error("a vector must not dominate itself")
	}
}

// The worker count decides only when a genome is scored: Workers 1, 2 (the
// service's count on two cores) and 8 must return the same Result, field
// for field, at the default budget, at a budget that binds mid-generation,
// and on a space so small (n choose k < PopSize) that breeding mostly
// rediscovers genomes it already holds.
func TestSearchIndependentOfWorkers(t *testing.T) {
	pr := testProblem(t)
	tiny := pr
	tiny.Platform = platform.MustGenerate(platform.GenSpec{Clusters: 2, Year: 2005, MeanClusterSize: 3}, xrand.New(5))
	tiny.Spec = &spec.Specification{Heuristic: "MCP", RCSize: 2}
	if n := tiny.Platform.NumHosts(); n*(n-1)/2 >= DefaultPopSize {
		t.Fatalf("tiny platform has %d hosts: %d pairs is not below PopSize", n, n*(n-1)/2)
	}
	for _, c := range []struct {
		name string
		pr   Problem
		cfg  Config
	}{
		{"default budget", pr, Config{}},
		{"binding budget", pr, Config{MaxEvaluations: 100}},
		{"tiny space", tiny, Config{}},
	} {
		serial := c.cfg
		serial.Workers = 1
		a := mustSearch(t, c.pr, serial)
		for _, w := range []int{2, 8} {
			wide := c.cfg
			wide.Workers = w
			if b := mustSearch(t, c.pr, wide); !reflect.DeepEqual(a, b) {
				t.Errorf("%s: Workers=1 and Workers=%d diverged:\n%+v\nvs\n%+v", c.name, w, a, b)
			}
		}
		if c.cfg.MaxEvaluations > 0 && a.Evaluations != c.cfg.MaxEvaluations {
			t.Errorf("%s: spent %d evaluations, want the budget of %d to bind", c.name, a.Evaluations, c.cfg.MaxEvaluations)
		}
	}
}

// Concurrent searches share one *Platform whose widest-path rows are computed
// on first use: on a platform nothing has touched yet, under -race, this is
// the regression test for the unsynchronised row cache (and for scoring a
// generation on several goroutines).
func TestConcurrentSearchesOnFreshPlatform(t *testing.T) {
	pr := testProblem(t)
	pr.Platform = platform.MustGenerate(platform.GenSpec{Clusters: 200, Year: 2007}, xrand.New(11))
	cfg := Config{PopSize: 16, Generations: 2, Workers: 2}
	results := make([]*Result, 4)
	errs := make([]error, len(results))
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Search(context.Background(), pr, cfg)
		}(i)
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("search %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Errorf("search %d diverged from search 0 on the shared platform", i)
		}
	}
}

// survivors carries the pool's ranking over to the population it keeps
// instead of ranking the population again: at every generation the carried
// ranking must equal a fresh rank of the population, field for field and
// bit for bit. Covered: RCSize 1, 5 and 22 at the default budget and at one
// that binds mid-generation, the tiny space, and an exclusion mask.
func TestCarriedRankingIsFresh(t *testing.T) {
	pr := testProblem(t)
	tiny := pr
	tiny.Platform = platform.MustGenerate(platform.GenSpec{Clusters: 2, Year: 2005, MeanClusterSize: 3}, xrand.New(5))
	tiny.Spec = &spec.Specification{Heuristic: "MCP", RCSize: 2}
	masked := pr
	masked.Excluded = map[platform.HostID]bool{}
	for _, h := range pr.Platform.Hosts {
		if h.Cluster%3 == 0 {
			masked.Excluded[h.ID] = true
		}
	}
	type tc struct {
		name string
		pr   Problem
		cfg  Config
	}
	cases := []tc{{"tiny space", tiny, Config{}}, {"exclusion mask", masked, Config{Seed: 4}}}
	for _, k := range []int{1, 5, 22} {
		sized := pr
		sized.Spec = &spec.Specification{Heuristic: "MCP", RCSize: k, MinMemoryMB: 512}
		cases = append(cases,
			tc{fmt.Sprintf("rc%d default budget", k), sized, Config{}},
			tc{fmt.Sprintf("rc%d binding budget", k), sized, Config{MaxEvaluations: 100, Seed: 7}})
	}
	for _, c := range cases {
		cfg := c.cfg.withDefaults()
		e, err := testEngine(c.pr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		check := func(gen int, pop []indiv) {
			fresh := new(ranker).rank(pop)
			if len(e.ranked) != len(fresh) {
				t.Fatalf("%s gen %d: carried %d ranks for %d members", c.name, gen, len(e.ranked), len(fresh))
			}
			for i := range fresh {
				got, want := e.ranked[i], fresh[i]
				if got.rank != want.rank || math.Float64bits(got.crowding) != math.Float64bits(want.crowding) {
					t.Fatalf("%s gen %d member %d: carried %+v, fresh %+v", c.name, gen, i, got, want)
				}
			}
		}
		pop := e.initialPopulation()
		check(0, pop)
		for g := 1; g <= cfg.Generations && e.evals < cfg.MaxEvaluations; g++ {
			pop = e.step(pop)
			check(g, pop)
		}
		e.stop()
	}
}

// FuzzSearchWorkers draws a search from its seed (drawProblem) and requires
// Workers 1 and 2 to return the same Result, field for field.
func FuzzSearchWorkers(f *testing.F) {
	for _, seed := range []uint64{1, 2, 3, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		pr, cfg := drawProblem(xrand.New(seed))
		serial, wide := cfg, cfg
		serial.Workers, wide.Workers = 1, 2
		a, errA := Search(context.Background(), pr, serial)
		b, errB := Search(context.Background(), pr, wide)
		if errA != errB || !reflect.DeepEqual(a, b) {
			t.Fatalf("Workers=1 and Workers=2 diverged:\n%+v (%v)\nvs\n%+v (%v)", a, errA, b, errB)
		}
	})
}

// On an inventory of the largest size PUT /v1/platform accepts, 10 000
// clusters, a default search allocates a bounded amount and leaves nothing
// behind: the platform's bandwidths come from one widest-path table built
// at the first search, not from per-cluster rows cached as the searches
// visit clusters. Each search has its own seed, so each visits other
// collections.
func TestSearchAtInventoryScale(t *testing.T) {
	p := platform.MustGenerate(platform.GenSpec{Clusters: 10_000, Year: 2007}, xrand.New(1))
	d := dag.MustGenerate(dag.GenSpec{
		Size: 64, CCR: 0.5, Parallelism: 0.5, Density: 0.5, Regularity: 0.5, MeanCost: 40,
	}, xrand.New(1))
	pr := Problem{Platform: p, Spec: &spec.Specification{Heuristic: "MCP", RCSize: 22}, Dag: d}
	var heap []uint64
	for i := range 4 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := Search(context.Background(), pr, Config{Seed: uint64(i + 1), Workers: 2}); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		heap = append(heap, after.HeapAlloc)
		mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		t.Logf("search %d: %.1f MB allocated, %.1f MB heap after GC", i, mb, float64(after.HeapAlloc)/(1<<20))
		if mb > 32 {
			t.Errorf("search %d allocated %.1f MB, want ≤ 32", i, mb)
		}
	}
	for i, h := range heap[1:] {
		if h > heap[0]+1<<20 {
			t.Errorf("heap after search %d is %.1f MB, after the first %.1f MB", i+1, float64(h)/(1<<20), float64(heap[0])/(1<<20))
		}
	}
}

// drawProblem draws a search from rng: platform size and year, DAG (nil one
// time in four), RCSize, heuristic, population, generation and evaluation
// budgets, exclusion density.
func drawProblem(rng *xrand.RNG) (Problem, Config) {
	heuristics := []string{"MCP", "Greedy", "FCA", "FCFS", "DLS", "Random", "RoundRobin", "MinMin"}
	p := platform.MustGenerate(platform.GenSpec{
		Clusters: 1 + rng.Intn(16), Year: 2004 + rng.Intn(5), MeanClusterSize: rng.Uniform(2, 24),
	}, rng.Split())
	pr := Problem{Platform: p, Spec: &spec.Specification{
		Heuristic: heuristics[rng.Intn(len(heuristics))], RCSize: 1 + rng.Intn(24),
	}}
	if rng.Intn(4) != 0 {
		pr.Dag = dag.MustGenerate(dag.GenSpec{
			Size: 2 + rng.Intn(40), CCR: rng.Uniform(0, 3), Parallelism: rng.Uniform(0.2, 0.9),
			Density: rng.Uniform(0.1, 1), Regularity: rng.Uniform(0, 1), MeanCost: rng.Uniform(1, 60),
		}, rng.Split())
	}
	density := rng.Float64()
	pr.Excluded = map[platform.HostID]bool{}
	for _, h := range p.Hosts {
		if rng.Float64() < density {
			pr.Excluded[h.ID] = true
		}
	}
	cfg := Config{
		PopSize: 1 + rng.Intn(24), Generations: 1 + rng.Intn(8),
		MaxEvaluations: rng.Intn(160), Seed: rng.Uint64(),
	}
	return pr, cfg
}

// FuzzSearchMemo draws a search (drawProblem) and holds a Memo to
// exactness. The same inputs, passed as copies (a rebuilt DAG, a copied mask
// and spec) with another worker count, hit and return a Result DeepEqual to
// a fresh Search. Changing any one input the Result depends on misses: one
// eligible host masked or one masked host unmasked, a memory floor that
// drops an eligible host, RCSize, the heuristic, the seed, the population,
// generation or evaluation budget, one task cost or one edge cost. A
// cancelled search's error is never served: the next search runs.
func FuzzSearchMemo(f *testing.F) {
	for _, seed := range []uint64{1, 2, 3, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		rng := xrand.New(seed)
		pr, cfg := drawProblem(rng)
		ctx := context.Background()
		cancelled, cancel := context.WithCancel(ctx)
		cancel()

		m := &Memo{}
		if _, hit, err := m.Search(cancelled, pr, cfg); hit || (err != context.Canceled && err != ErrNoEligibleHosts) {
			t.Fatalf("search on a cancelled context = hit %v, %v", hit, err)
		}
		want, wantErr := Search(ctx, pr, cfg)
		got, hit, err := m.Search(ctx, pr, cfg)
		if hit || err != wantErr || !reflect.DeepEqual(got, want) {
			t.Fatalf("first search after a cancelled one: hit %v, %+v (%v), want a miss %+v (%v)", hit, got, err, want, wantErr)
		}
		if wantErr != nil {
			return // nothing eligible: nothing to remember
		}

		// withSpec copies pr with a copy of its spec, edited.
		withSpec := func(edit func(*spec.Specification)) Problem {
			v := pr
			v.Spec = new(spec.Specification)
			*v.Spec = *pr.Spec
			edit(v.Spec)
			return v
		}
		same := withSpec(func(*spec.Specification) {})
		same.Excluded = maps.Clone(pr.Excluded)
		if pr.Dag != nil {
			same.Dag = dag.MustNew(pr.Dag.Tasks(), pr.Dag.Edges())
		}
		wide := cfg
		wide.Workers = 2
		if got, hit, err := m.Search(ctx, same, wide); !hit || err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("equal inputs: hit %v, %+v (%v), want a hit %+v", hit, got, err, want)
		}
		if _, hit, err := m.Search(cancelled, same, cfg); hit || err != context.Canceled {
			t.Fatalf("hit on a cancelled context = hit %v, %v, want the context's error", hit, err)
		}

		// Each variant is looked up in a memo holding only the base search,
		// so two variants that happen to be equal cannot mask each other.
		elig, _ := eligible(pr)
		base := newMemoKey(pr, cfg.withDefaults(), elig)
		misses := func(name string, v Problem, c Config) {
			t.Helper()
			vm := &Memo{}
			vm.store(&base, want)
			if _, hit, _ := vm.Search(ctx, v, c); hit {
				t.Errorf("%s: memo hit", name)
			}
		}
		def := cfg.withDefaults()
		var floor int
		for i, h := range pr.Platform.Hosts {
			if elig.has(i) && (floor == 0 || h.MemoryMB+1 < floor) {
				floor = h.MemoryMB + 1
			}
		}
		misses("memory floor", withSpec(func(s *spec.Specification) { s.MinMemoryMB = floor }), cfg)
		misses("rc size", withSpec(func(s *spec.Specification) { s.RCSize++ }), cfg)
		misses("heuristic", withSpec(func(s *spec.Specification) { s.Heuristic += "x" }), cfg)
		for name, edit := range map[string]func(*Config){
			"seed":            func(c *Config) { c.Seed = def.Seed + 1 },
			"population":      func(c *Config) { c.PopSize = def.PopSize + 1 },
			"generations":     func(c *Config) { c.Generations = def.Generations + 1 },
			"max evaluations": func(c *Config) { c.MaxEvaluations = def.MaxEvaluations + 1 },
		} {
			c := cfg
			edit(&c)
			misses(name, pr, c)
		}
		h := platform.HostID(rng.Intn(len(pr.Platform.Hosts)))
		toggled := pr
		toggled.Excluded = maps.Clone(pr.Excluded)
		toggled.Excluded[h] = !pr.Excluded[h]
		misses(fmt.Sprintf("host %d (masked %v) toggled", h, pr.Excluded[h]), toggled, cfg)
		if pr.Dag != nil {
			tasks, edges := slices.Clone(pr.Dag.Tasks()), slices.Clone(pr.Dag.Edges())
			i := rng.Intn(len(tasks))
			tasks[i].Cost = math.Nextafter(tasks[i].Cost, math.Inf(1))
			v := pr
			v.Dag = dag.MustNew(tasks, pr.Dag.Edges())
			misses(fmt.Sprintf("task %d cost", i), v, cfg)
			if len(edges) > 0 {
				j := rng.Intn(len(edges))
				edges[j].Cost = math.Nextafter(edges[j].Cost, math.Inf(1))
				v.Dag = dag.MustNew(pr.Dag.Tasks(), edges)
				misses(fmt.Sprintf("edge %d cost", j), v, cfg)
			}
		}
	})
}
