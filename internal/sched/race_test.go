package sched

import (
	"encoding/json"
	"sync"
	"testing"

	"rsgen/internal/dag"
	"rsgen/internal/platform"
	"rsgen/internal/xrand"
)

// TestConcurrentSchedules runs every heuristic — including MCP ablations
// with per-instance Prefix values — concurrently against shared inputs.
// Under `go test -race` this proves the ablation knob no longer requires
// mutating the MCPPrefix package global (a data race for concurrent eval
// workers) and that the pooled scheduler state is goroutine-safe. Each
// configuration must also reproduce its own serial schedule exactly.
func TestConcurrentSchedules(t *testing.T) {
	d := dag.MustGenerate(dag.GenSpec{
		Size: 150, CCR: 0.4, Parallelism: 0.6, Density: 0.5, Regularity: 0.5, MeanCost: 30,
	}, xrand.New(71))
	rc := platform.HeterogeneousRC(12, 2.8, 0.5, 1000, xrand.New(72))

	hs := []Heuristic{
		MCP{Prefix: -1}, MCP{}, MCP{Prefix: 4}, MCP{Prefix: 8},
		Greedy{}, FCA{}, FCFS{}, DLS{},
	}
	want := make([]uint64, len(hs))
	for i, h := range hs {
		s, err := h.Schedule(d, rc)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = scheduleHash(s)
	}

	const rounds = 8
	var wg sync.WaitGroup
	errs := make(chan error, len(hs)*rounds)
	for r := 0; r < rounds; r++ {
		for i, h := range hs {
			wg.Add(1)
			go func(i int, h Heuristic) {
				defer wg.Done()
				s, err := h.Schedule(d, rc)
				if err != nil {
					errs <- err
					return
				}
				if got := scheduleHash(s); got != want[i] {
					t.Errorf("%s (case %d): concurrent schedule hash %016x != serial %016x", h.Name(), i, got, want[i])
				}
			}(i, h)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentSchedulesOnFreshPlatform shares one *Platform, whose
// widest-path rows are computed on first use, between goroutines that each
// schedule on their own subset: under -race it is the regression test for
// the row cache. The platform is decoded from JSON, as the service's are, so
// the topology's adjacency is built on first use as well.
func TestConcurrentSchedulesOnFreshPlatform(t *testing.T) {
	gen := platform.MustGenerate(platform.GenSpec{Clusters: 200, Year: 2007}, xrand.New(73))
	raw, err := json.Marshal(gen)
	if err != nil {
		t.Fatal(err)
	}
	p := new(platform.Platform)
	if err := json.Unmarshal(raw, p); err != nil {
		t.Fatal(err)
	}
	d := dag.MustGenerate(dag.GenSpec{
		Size: 64, CCR: 0.5, Parallelism: 0.5, Density: 0.5, Regularity: 0.5, MeanCost: 40,
	}, xrand.New(74))
	subset := func(p *platform.Platform, seed uint64) *platform.ResourceCollection {
		hosts := make([]platform.Host, 12)
		for i, id := range xrand.New(seed).Sample(p.NumHosts(), len(hosts)) {
			hosts[i] = p.Hosts[id]
		}
		return platform.SubsetRC(p, hosts)
	}
	const workers = 8
	got := make([]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := MCP{}.Schedule(d, subset(p, uint64(w%4)))
			if err != nil {
				t.Error(err)
				return
			}
			got[w] = scheduleHash(s)
		}(w)
	}
	wg.Wait()
	for w := range got {
		s, err := MCP{}.Schedule(d, subset(gen, uint64(w%4)))
		if err != nil {
			t.Fatal(err)
		}
		if want := scheduleHash(s); got[w] != want {
			t.Errorf("worker %d: concurrent schedule on the decoded platform %016x != serial on the generated one %016x", w, got[w], want)
		}
	}
}
