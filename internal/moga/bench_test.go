package moga

import (
	"context"
	"fmt"
	"testing"

	"rsgen/internal/dag"
	"rsgen/internal/platform"
	"rsgen/internal/spec"
	"rsgen/internal/xrand"
)

// BenchmarkSearch is one default-budget search on the shape rsgend serves
// under the layered benchmark's moga_front workload: a 64-task DAG over the
// 200-cluster 2007 platform, at the small, median and large RCSize the size
// model hands out there. evals/op is the unique objective evaluations per
// search, so a change that speeds a search up by scoring fewer genomes is
// told apart from one that scores each genome faster.
func BenchmarkSearch(b *testing.B) {
	p := platform.MustGenerate(platform.GenSpec{Clusters: 200, Year: 2007}, xrand.New(1))
	d := dag.MustGenerate(dag.GenSpec{
		Size: 64, CCR: 0.5, Parallelism: 0.5, Density: 0.5, Regularity: 0.5, MeanCost: 40,
	}, xrand.New(1))
	for _, k := range []int{5, 12, 22} {
		pr := Problem{Platform: p, Spec: &spec.Specification{Heuristic: "MCP", RCSize: k}, Dag: d}
		b.Run(fmt.Sprintf("rc%d", k), func(b *testing.B) {
			b.ReportAllocs()
			evals := 0
			for i := 0; i < b.N; i++ {
				res, err := Search(context.Background(), pr, Config{})
				if err != nil {
					b.Fatal(err)
				}
				evals += res.Evaluations
			}
			b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
		})
	}
}
