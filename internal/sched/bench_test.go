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
	p := platform.MustGenerate(platform.GenSpec{Clusters: 200, Year: 2007}, xrand.New(1))
	d := dag.MustGenerate(dag.GenSpec{
		Size: 64, CCR: 0.5, Parallelism: 0.5, Density: 0.5, Regularity: 0.5, MeanCost: 40,
	}, xrand.New(1))
	hosts := make([]platform.Host, k)
	for i, id := range xrand.New(2).Sample(p.NumHosts(), len(hosts)) {
		hosts[i] = p.Hosts[id]
	}
	return d, platform.SubsetRC(p, hosts)
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
// Plan, many collections) with the one-shot TurnAround, which compiles the
// order on every call, at the small, median and large RCSize moga_front
// hands out.
func BenchmarkPlanTurnAround(b *testing.B) {
	for _, k := range []int{5, 12, 22} {
		d, rc := smallRC(k)
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
		b.Run(fmt.Sprintf("rc%d/one-shot", k), func(b *testing.B) {
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
