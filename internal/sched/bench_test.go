package sched

import (
	"fmt"
	"testing"

	"rsgen/internal/dag"
	"rsgen/internal/platform"
	"rsgen/internal/xrand"
)

var (
	benchSink   *Schedule
	benchSinkTA float64
)

// smallRC is the moga objective's inner problem: a 64-task DAG on k hosts of
// a generated platform (SubsetRC keeps the platform's cluster network), far
// below indexMinHosts.
func smallRC(k int) (*dag.DAG, *platform.ResourceCollection) {
	d, rcs := smallRCs(k, 1)
	return d, rcs[0]
}

// smallRCs is smallRC with n collections of k random hosts each.
func smallRCs(k, n int) (*dag.DAG, []*platform.ResourceCollection) {
	p := platform.MustGenerate(platform.GenSpec{Clusters: 200, Year: 2007}, xrand.New(1))
	d := dag.MustGenerate(dag.GenSpec{
		Size: 64, CCR: 0.5, Parallelism: 0.5, Density: 0.5, Regularity: 0.5, MeanCost: 40,
	}, xrand.New(1))
	rng := xrand.New(2)
	rcs := make([]*platform.ResourceCollection, n)
	for j := range rcs {
		hosts := make([]platform.Host, k)
		for i, id := range rng.Sample(p.NumHosts(), k) {
			hosts[i] = p.Hosts[id]
		}
		rcs[j] = platform.SubsetRC(p, hosts)
	}
	return d, rcs
}

func BenchmarkScheduleSmallRC(b *testing.B) {
	d, rc := smallRC(12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := MCP{}.Schedule(d, rc)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = s
	}
}

// BenchmarkTurnAroundSmallRC is the same schedule through the scalar entry
// point the broker's bind-time promise calls.
func BenchmarkTurnAroundSmallRC(b *testing.B) {
	d, rc := smallRC(12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ta, err := TurnAround(MCP{}, d, rc, 1)
		if err != nil {
			b.Fatal(err)
		}
		benchSinkTA = ta
	}
}

// BenchmarkPlanTurnAround compares the moga objective's compiled path (one
// Plan) with TurnAround, a single-use plan that compiles the order and fills
// the plan's tables on every call, at the small, median and large RCSize
// moga_front hands out. The compiled and single-use cases score one fixed
// collection, so the branch predictor learns its every decision; the varied
// case cycles the plan through 800 distinct random collections, as a search
// does.
func BenchmarkPlanTurnAround(b *testing.B) {
	for _, k := range []int{5, 12, 22} {
		d, rcs := smallRCs(k, 800)
		rc := rcs[0]
		b.Run(fmt.Sprintf("rc%d/compiled", k), func(b *testing.B) {
			p := Compile(MCP{}, d)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ta, err := p.TurnAround(rc, 1)
				if err != nil {
					b.Fatal(err)
				}
				benchSinkTA = ta
			}
		})
		b.Run(fmt.Sprintf("rc%d/varied", k), func(b *testing.B) {
			p := Compile(MCP{}, d)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ta, err := p.TurnAround(rcs[i%len(rcs)], 1)
				if err != nil {
					b.Fatal(err)
				}
				benchSinkTA = ta
			}
		})
		b.Run(fmt.Sprintf("rc%d/single-use", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ta, err := TurnAround(MCP{}, d, rc, 1)
				if err != nil {
					b.Fatal(err)
				}
				benchSinkTA = ta
			}
		})
	}
}

// largeRCs are BenchmarkScheduleLargeRC's collections, all at or above
// indexMinHosts: uniform networks whose hosts share one clock, draw a
// continuous clock each (§V.4's heterogeneity model, so every host is its
// own speed class), or share 16 or 128 clock classes among 512 hosts; and
// cluster networks of a generated 60-cluster platform, whole and cut to its
// 300 fastest hosts.
func largeRCs() []struct {
	name string
	rc   *platform.ResourceCollection
} {
	p := platform.MustGenerate(platform.GenSpec{Clusters: 60, Year: 2006}, xrand.New(3))
	return []struct {
		name string
		rc   *platform.ResourceCollection
	}{
		{"homogeneous300", platform.HomogeneousRC(300, 2.8, 1000)},
		{"heterogeneous300", platform.HeterogeneousRC(300, 2.8, 0.6, 1000, xrand.New(4))},
		{"uniform512k16", fewClassRC(512, 16)},
		{"uniform512k128", fewClassRC(512, 128)},
		{"universe60", platform.UniverseRC(p)},
		{"top300", platform.TopHostsRC(p, 300)},
	}
}

// BenchmarkScheduleLargeRC times MCP and Greedy, the two heuristics whose
// host selection can run on the bucketed index, through Plan.TurnAround on
// a 400-task DAG over largeRCs.
func BenchmarkScheduleLargeRC(b *testing.B) {
	d := dag.MustGenerate(dag.GenSpec{
		Size: 400, CCR: 0.2, Parallelism: 0.5, Density: 0.5, Regularity: 0.5, MeanCost: 40,
	}, xrand.New(5))
	for _, c := range largeRCs() {
		for _, h := range []Heuristic{MCP{}, Greedy{}} {
			b.Run(c.name+"/"+h.Name(), func(b *testing.B) {
				p := Compile(h, d)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ta, err := p.TurnAround(c.rc, 1)
					if err != nil {
						b.Fatal(err)
					}
					benchSinkTA = ta
				}
			})
		}
	}
}
