package sched

import (
	"testing"

	"rsgen/internal/dag"
	"rsgen/internal/platform"
	"rsgen/internal/xrand"
)

var (
	benchSink   *Schedule
	benchSinkTA float64
)

// smallRC is the moga objective's inner problem: a 64-task DAG on 12 hosts
// of a generated platform (SubsetRC keeps the platform's cluster network),
// far below indexMinHosts.
func smallRC() (*dag.DAG, *platform.ResourceCollection) {
	p := platform.MustGenerate(platform.GenSpec{Clusters: 200, Year: 2007}, xrand.New(1))
	d := dag.MustGenerate(dag.GenSpec{
		Size: 64, CCR: 0.5, Parallelism: 0.5, Density: 0.5, Regularity: 0.5, MeanCost: 40,
	}, xrand.New(1))
	hosts := make([]platform.Host, 12)
	for i, id := range xrand.New(2).Sample(p.NumHosts(), len(hosts)) {
		hosts[i] = p.Hosts[id]
	}
	return d, platform.SubsetRC(p, hosts)
}

func BenchmarkScheduleSmallRC(b *testing.B) {
	d, rc := smallRC()
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
// point the moga objective and the broker call.
func BenchmarkTurnAroundSmallRC(b *testing.B) {
	d, rc := smallRC()
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
