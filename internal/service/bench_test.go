package service

import (
	"bytes"
	"encoding/json"
	"fmt"
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

// benchBatchBodies renders n /v1/spec/batch bodies shaped like the layered
// benchmark's spec_batch corpus: 32 members of 40 tasks drawn from 128
// shapes, mixed unique : shape-duplicate : byte-duplicate as 1 : 12 : 7. A
// shape duplicate is a relabelled isomorph (task IDs permuted, fresh names,
// edges shuffled), so only normalization can merge it with its shape; a byte
// duplicate repeats an earlier member of the same body.
func benchBatchBodies(b *testing.B, n int) [][]byte {
	b.Helper()
	rng := xrand.New(5)
	shapes := make([]*dag.DAG, 128)
	raws := make([][]byte, len(shapes))
	for i := range shapes {
		d, err := dag.Generate(dag.GenSpec{
			Size: 40, CCR: 0.1 + 0.9*rng.Float64(), Parallelism: 0.3 + 0.4*rng.Float64(),
			Density: 0.3 + 0.4*rng.Float64(), Regularity: 0.5, MeanCost: 40,
		}, rng.Split())
		if err != nil {
			b.Fatal(err)
		}
		if raws[i], err = json.Marshal(d); err != nil {
			b.Fatal(err)
		}
		shapes[i] = d
	}
	isomorph := func(d *dag.DAG) []byte {
		perm := rng.Perm(d.Size())
		tasks := make([]dag.Task, d.Size())
		for old, id := range perm {
			tasks[id] = dag.Task{ID: dag.TaskID(id), Name: fmt.Sprintf("t%d-%d", id, rng.Intn(1<<16)), Cost: d.Task(dag.TaskID(old)).Cost}
		}
		edges := make([]dag.Edge, 0, d.NumEdges())
		for _, e := range d.Edges() {
			edges = append(edges, dag.Edge{From: dag.TaskID(perm[e.From]), To: dag.TaskID(perm[e.To]), Cost: e.Cost})
		}
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		iso, err := dag.New(tasks, edges)
		if err != nil {
			b.Fatal(err)
		}
		raw, err := json.Marshal(iso)
		if err != nil {
			b.Fatal(err)
		}
		return raw
	}
	bodies := make([][]byte, n)
	for k := range bodies {
		members := make([][]byte, 0, 32)
		for m := 0; m < 32; m++ {
			var raw []byte
			switch r := ((k*32 + m) * 7) % 20; { // a fixed shuffle of the 20 slots
			case r < 1 || m == 0:
				raw = raws[rng.Intn(len(raws))]
			case r < 13:
				raw = isomorph(shapes[rng.Intn(len(shapes))])
			default:
				raw = members[rng.Intn(len(members))]
			}
			members = append(members, raw)
		}
		body := []byte(`{"requests":[`)
		for m, raw := range members {
			if m > 0 {
				body = append(body, ',')
			}
			body = append(append(append(body, `{"dag":`...), raw...), '}')
		}
		bodies[k] = append(body, "]}"...)
	}
	return bodies
}

// BenchmarkHandleSpecBatch cycles 128 spec_batch-shaped bodies through the
// whole handler chain, in process, after one warm-up cycle: the 128 shapes
// stay cached while the isomorphs' exact keys (≈ 2 600 of them) overflow the
// 1024-entry cache, so each body walks, decodes, normalizes and replays
// shapes the way the layered benchmark's spec_batch workload does.
func BenchmarkHandleSpecBatch(b *testing.B) {
	bodies := benchBatchBodies(b, 128)
	gen, err := testGenerator()
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{Generator: gen})
	if err != nil {
		b.Fatal(err)
	}
	serve := func(i int) {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/spec/batch", bytes.NewReader(bodies[i%len(bodies)])))
		if w.Code != http.StatusOK || !bytes.Contains(w.Body.Bytes(), []byte(`"errors":0,`)) {
			b.Fatalf("body %d: status %d: %.300s", i%len(bodies), w.Code, w.Body.String())
		}
	}
	total := 0
	for i, body := range bodies {
		serve(i)
		total += len(body)
	}
	b.SetBytes(int64(total / len(bodies)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(i)
	}
}
