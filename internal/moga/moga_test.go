package moga

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

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

// A cancelled context aborts between generations.
func TestSearchCancellation(t *testing.T) {
	pr := testProblem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Search(ctx, pr, Config{}); err != context.Canceled {
		t.Errorf("Search on cancelled ctx = %v, want context.Canceled", err)
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

// The worker count decides only when a genome is scored: Workers 1 and 8
// must return the same Result, field for field, at the default budget, at a
// budget that binds mid-generation, and on a space so small (n choose k <
// PopSize) that breeding mostly rediscovers genomes it already holds.
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
		serial, wide := c.cfg, c.cfg
		serial.Workers, wide.Workers = 1, 8
		a := mustSearch(t, c.pr, serial)
		b := mustSearch(t, c.pr, wide)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: Workers=1 and Workers=8 diverged:\n%+v\nvs\n%+v", c.name, a, b)
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
