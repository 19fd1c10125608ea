package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"rsgen/internal/dag"
	"rsgen/internal/xrand"
)

// benchSpecBodies renders n /v1/spec bodies around distinct 400-task DAGs,
// drawn like the layered benchmark's spec_single corpus.
func benchSpecBodies(b *testing.B, n int) [][]byte {
	b.Helper()
	rng := xrand.New(3)
	bodies := make([][]byte, n)
	for i := range bodies {
		d, err := dag.Generate(dag.GenSpec{
			Size: 400, CCR: 0.1 + 0.9*rng.Float64(), Parallelism: 0.3 + 0.4*rng.Float64(),
			Density: 0.1 + 0.2*rng.Float64(), Regularity: 0.5, MeanCost: 40,
		}, rng.Split())
		if err != nil {
			b.Fatal(err)
		}
		doc, err := json.Marshal(d)
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = append(append([]byte(`{"dag":`), doc...), '}')
	}
	return bodies
}

// benchHandleSpec cycles the bodies through the whole handler chain, in
// process, and insists on the X-Cache value the cycle is built to produce.
func benchHandleSpec(b *testing.B, bodies [][]byte, wantCache string) {
	gen, err := testGenerator()
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{Generator: gen})
	if err != nil {
		b.Fatal(err)
	}
	serve := func(i int) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/spec", bytes.NewReader(bodies[i%len(bodies)])))
		return w
	}
	for i := range bodies { // one warm-up cycle fills the cache
		if w := serve(i); w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
	total := 0
	for _, body := range bodies {
		total += len(body)
	}
	b.SetBytes(int64(total / len(bodies)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := serve(i); w.Header().Get("X-Cache") != wantCache {
			b.Fatalf("request %d: X-Cache = %q, want %q", i, w.Header().Get("X-Cache"), wantCache)
		}
	}
}

// BenchmarkHandleSpecMiss cycles 640 distinct documents against the default
// 1024-entry cache: each stores an exact and a shape key, so cyclic order
// evicts every entry before its next use and every request does all the work
// — the trick the layered benchmark's spec_single workload uses.
func BenchmarkHandleSpecMiss(b *testing.B) { benchHandleSpec(b, benchSpecBodies(b, 640), "miss") }

// BenchmarkHandleSpecHit repeats one document: decode, key, cache hit.
func BenchmarkHandleSpecHit(b *testing.B) { benchHandleSpec(b, benchSpecBodies(b, 1), "hit") }
