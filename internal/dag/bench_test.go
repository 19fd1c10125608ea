package dag

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"rsgen/internal/xrand"
)

// benchDocs generates n DAGs of the given size the way the layered
// benchmark's spec_single corpus does, with their wire documents.
func benchDocs(b *testing.B, n, tasks int) ([]*DAG, [][]byte) {
	b.Helper()
	rng := xrand.NewFrom(3, uint64(tasks))
	dags := make([]*DAG, n)
	docs := make([][]byte, n)
	for i := range dags {
		d, err := Generate(GenSpec{
			Size: tasks, CCR: 0.1 + 0.9*rng.Float64(), Parallelism: 0.3 + 0.4*rng.Float64(),
			Density: 0.1 + 0.2*rng.Float64(), Regularity: 0.5, MeanCost: 40,
		}, rng.Split())
		if err != nil {
			b.Fatal(err)
		}
		dags[i] = d
		if docs[i], err = json.Marshal(d); err != nil {
			b.Fatal(err)
		}
	}
	return dags, docs
}

var benchSink *DAG

func BenchmarkDecode(b *testing.B) {
	for _, tasks := range []int{400, 40} {
		b.Run(fmt.Sprintf("tasks=%d", tasks), func(b *testing.B) {
			_, docs := benchDocs(b, 16, tasks)
			total := 0
			for _, doc := range docs {
				total += len(doc)
			}
			b.SetBytes(int64(total / len(docs)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := Decode(bytes.NewReader(docs[i%len(docs)]))
				if err != nil {
					b.Fatal(err)
				}
				benchSink = d
			}
		})
	}
}

func BenchmarkNew(b *testing.B) {
	dags, _ := benchDocs(b, 16, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := dags[i%len(dags)]
		d, err := New(src.Tasks(), src.Edges())
		if err != nil {
			b.Fatal(err)
		}
		benchSink = d
	}
}

// BenchmarkNormalize builds a fresh DAG per iteration, outside the timer:
// Normalize caches its result on the receiver.
func BenchmarkNormalize(b *testing.B) {
	dags, _ := benchDocs(b, 16, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		src := dags[i%len(dags)]
		d := MustNew(src.Tasks(), src.Edges())
		b.StartTimer()
		benchSink = d.Normalize()
	}
}
