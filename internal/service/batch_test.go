package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"rsgen/internal/dag"
	"rsgen/internal/xrand"
)

// isoDAGJSON is testDAGJSON relabeled: task IDs permuted (old→new:
// 0→2, 1→0, 2→3, 3→1), names attached, and edges reordered. Same shape,
// different bytes and different exact fingerprint.
const isoDAGJSON = `{"tasks":[{"id":0,"name":"b","cost":12},{"id":1,"name":"d","cost":9},{"id":2,"name":"a","cost":10},{"id":3,"name":"c","cost":8}],
"edges":[{"from":3,"to":1,"cost":1},{"from":2,"to":0,"cost":2},{"from":0,"to":1,"cost":1},{"from":2,"to":3,"cost":2}]}`

// decodeBatch is walkBatch without a consumer for the located extents.
func decodeBatch(body []byte) (*BatchRequest, []memberDag, error) { return walkBatch(body, nil) }

func postBatch(s http.Handler, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/spec/batch", strings.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// TestShapeCoalescedByteIdentity is the coalescing-correctness regression:
// a response served by shape coalescing must be byte-identical to what an
// independent evaluation of the same request would have produced on a fresh
// server. This holds by construction — coalescible requests are computed on
// their canonical form — and this test pins it.
func TestShapeCoalescedByteIdentity(t *testing.T) {
	a := newTestServer(t, nil)
	w1 := post(a, specBody(""))
	if w1.Code != http.StatusOK {
		t.Fatalf("original: %d: %s", w1.Code, w1.Body.String())
	}
	w2 := post(a, fmt.Sprintf(`{"dag": %s}`, isoDAGJSON))
	if w2.Code != http.StatusOK {
		t.Fatalf("isomorph: %d: %s", w2.Code, w2.Body.String())
	}
	if got := w2.Header().Get("X-Cache"); got != "shape-hit" {
		t.Errorf("isomorph X-Cache = %q, want shape-hit", got)
	}
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Errorf("coalesced body differs from original:\n%s\nvs\n%s", w1.Body.String(), w2.Body.String())
	}

	// Independent evaluation on a fresh server (no coalescing possible).
	b := newTestServer(t, nil)
	w3 := post(b, fmt.Sprintf(`{"dag": %s}`, isoDAGJSON))
	if w3.Code != http.StatusOK {
		t.Fatalf("independent isomorph: %d: %s", w3.Code, w3.Body.String())
	}
	if !bytes.Equal(w2.Body.Bytes(), w3.Body.Bytes()) {
		t.Errorf("coalesced body differs from independent evaluation:\n%s\nvs\n%s",
			w2.Body.String(), w3.Body.String())
	}

	// The coalesce must be visible in /metrics.
	mw := httptest.NewRecorder()
	a.ServeHTTP(mw, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(mw.Body.String(), `rsgend_coalesce_hits_total{kind="cache"} 1`) {
		t.Errorf("metrics missing the shape-cache coalesce hit:\n%s", mw.Body.String())
	}
}

// TestShapeHitBuildsNoNormalForm: a request whose shape is cached is
// answered from the DAG's normal key alone. The normal form — a second DAG,
// 48 bytes per edge in its edge and adjacency arrays alone — is built only
// on a shape miss, so on a dense DAG the shape hit allocates less than half
// of that even when it finds the scratch pool empty.
func TestShapeHitBuildsNoNormalForm(t *testing.T) {
	s := newTestServer(t, nil)
	rng := xrand.New(17)
	d := dag.MustGenerate(dag.GenSpec{Size: 120, CCR: 0.5, Parallelism: 0.5, Density: 1, Regularity: 0.5, MeanCost: 40}, rng)
	isomorph := func() *dag.DAG {
		perm := rng.Perm(d.Size())
		tasks := make([]dag.Task, d.Size())
		for old, id := range perm {
			tasks[id] = dag.Task{ID: dag.TaskID(id), Name: fmt.Sprintf("t%d", old), Cost: d.Task(dag.TaskID(old)).Cost}
		}
		edges := make([]dag.Edge, 0, d.NumEdges())
		for _, e := range d.Edges() {
			edges = append(edges, dag.Edge{From: dag.TaskID(perm[e.From]), To: dag.TaskID(perm[e.To]), Cost: e.Cost})
		}
		return dag.MustNew(tasks, edges)
	}
	okey := optsKey(SpecOptions{})
	if _, src, err := s.resolveSpec(context.Background(), d, SpecOptions{}, okey); err != nil || src != srcComputed {
		t.Fatalf("first request: source %q, err %v", src, err)
	}
	iso := isomorph()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, src, err := s.resolveSpec(context.Background(), iso, SpecOptions{}, okey)
	runtime.ReadMemStats(&after)
	if err != nil || src != srcShapeHit {
		t.Fatalf("isomorph: source %q, err %v; want a shape hit", src, err)
	}
	if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(24*iso.NumEdges()); got > bound {
		t.Errorf("a shape hit allocated %d bytes for %d tasks and %d edges, want ≤ %d: it built the normal form",
			got, iso.Size(), iso.NumEdges(), bound)
	}
}

// TestAlternativesBypassCoalescing: requests with alternative_clocks must
// never share bytes through the shape path (their schedule sweeps are
// tie-broken by task numbering), so an isomorph is a plain miss.
func TestAlternativesBypassCoalescing(t *testing.T) {
	s := newTestServer(t, nil)
	opts := `{"alternative_clocks": [1.0]}`
	w1 := post(s, specBody(opts))
	if w1.Code != http.StatusOK {
		t.Fatalf("original: %d: %s", w1.Code, w1.Body.String())
	}
	w2 := post(s, fmt.Sprintf(`{"dag": %s, "options": %s}`, isoDAGJSON, opts))
	if w2.Code != http.StatusOK {
		t.Fatalf("isomorph: %d: %s", w2.Code, w2.Body.String())
	}
	if got := w2.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("isomorph with alternatives X-Cache = %q, want miss (coalescing bypassed)", got)
	}
}

// TestBatchEndpoint runs a mixed batch serially (Workers=1 makes member
// order, and therefore every Source, deterministic) and checks the framing:
// snapshot, per-member statuses and sources, accounting, and that a member's
// spec is exactly the single-request body.
func TestBatchEndpoint(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Workers = 1 })
	body := fmt.Sprintf(`{"requests": [
		{"dag": %s},
		{"dag": %s},
		{"dag": %s},
		{"dag": {"tasks":[{"id":0,"cost":1},{"id":1,"cost":1}],"edges":[{"from":0,"to":1,"cost":1},{"from":1,"to":0,"cost":1}]}},
		{"dag": %s, "options": {"heuristic": "NOPE"}}
	]}`, testDAGJSON, isoDAGJSON, testDAGJSON, testDAGJSON)
	w := postBatch(s, body)
	if w.Code != http.StatusOK {
		t.Fatalf("batch: %d: %s", w.Code, w.Body.String())
	}
	var resp BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Members != 5 || len(resp.Results) != 5 {
		t.Fatalf("members = %d, results = %d, want 5", resp.Members, len(resp.Results))
	}
	if resp.Snapshot.EvalWorkers != 1 || resp.Snapshot.SizeThresholds < 1 || !resp.Snapshot.HeuristicModel {
		t.Errorf("snapshot = %+v", resp.Snapshot)
	}
	// Member 2 is byte-identical to member 0 (same raw dag bytes, same
	// effective options), so it merges with member 0 before decoding and
	// reports "shared" rather than going through the cache.
	wantSources := []string{srcComputed, srcShapeHit, srcShared, "", ""}
	wantStatus := []int{200, 200, 200, 400, 400}
	for i, r := range resp.Results {
		if r.Index != i || r.Status != wantStatus[i] || r.Source != wantSources[i] {
			t.Errorf("result %d = {index %d, status %d, source %q}, want {%d, %d, %q}",
				i, r.Index, r.Status, r.Source, i, wantStatus[i], wantSources[i])
		}
		if r.Status == 200 && len(r.Spec) == 0 {
			t.Errorf("result %d: 200 with empty spec", i)
		}
		if r.Status != 200 && r.Error == "" {
			t.Errorf("result %d: error status without message", i)
		}
	}
	if resp.Computed != 1 || resp.CacheHits != 1 || resp.Coalesced != 1 || resp.Errors != 2 {
		t.Errorf("accounting = computed %d / cache %d / coalesced %d / errors %d, want 1/1/1/2",
			resp.Computed, resp.CacheHits, resp.Coalesced, resp.Errors)
	}
	// Members 0..2 must all carry the same bytes, equal to the
	// single-request body minus its trailing newline.
	single := post(newTestServer(t, nil), specBody(""))
	want := bytes.TrimSuffix(single.Body.Bytes(), []byte("\n"))
	for i := 0; i < 3; i++ {
		if !bytes.Equal(resp.Results[i].Spec, want) {
			t.Errorf("member %d spec differs from single-request body:\n%s\nvs\n%s",
				i, resp.Results[i].Spec, want)
		}
	}
}

// TestBatchConcurrentMembersByteIdentical fans a shape-duplicate-heavy batch
// over the default worker count: every member must come back 200 with
// identical bytes regardless of which member led, hit, or coalesced, and the
// accounting must partition the batch.
func TestBatchConcurrentMembersByteIdentical(t *testing.T) {
	s := newTestServer(t, nil)
	members := make([]string, 0, 12)
	for i := 0; i < 12; i++ {
		d := testDAGJSON
		if i%2 == 1 {
			d = isoDAGJSON
		}
		members = append(members, fmt.Sprintf(`{"dag": %s}`, d))
	}
	w := postBatch(s, `{"requests": [`+strings.Join(members, ",")+`]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("batch: %d: %s", w.Code, w.Body.String())
	}
	var resp BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Errors != 0 {
		t.Fatalf("errors = %d: %s", resp.Errors, w.Body.String())
	}
	if resp.Computed < 1 {
		t.Error("no member computed")
	}
	if resp.Computed+resp.CacheHits+resp.Coalesced != resp.Members {
		t.Errorf("accounting does not partition the batch: %d+%d+%d != %d",
			resp.Computed, resp.CacheHits, resp.Coalesced, resp.Members)
	}
	for i := 1; i < len(resp.Results); i++ {
		if !bytes.Equal(resp.Results[0].Spec, resp.Results[i].Spec) {
			t.Fatalf("member %d (source %q) bytes differ from member 0 (source %q)",
				i, resp.Results[i].Source, resp.Results[0].Source)
		}
	}
}

func TestBatchErrors(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxBatchMembers = 2 })
	cases := []struct {
		name string
		body string
		want int
	}{
		{"bad json", "{not json", http.StatusBadRequest},
		{"empty batch", `{"requests": []}`, http.StatusBadRequest},
		{"no requests", `{}`, http.StatusBadRequest},
		{"too many members", fmt.Sprintf(`{"requests": [{"dag": %s},{"dag": %s},{"dag": %s}]}`,
			testDAGJSON, testDAGJSON, testDAGJSON), http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := postBatch(s, tc.body)
			if w.Code != tc.want {
				t.Fatalf("status = %d, want %d; body: %s", w.Code, tc.want, w.Body.String())
			}
		})
	}
}

// TestBatchDefaultOptions: a batch-level options block applies to members
// without their own, and a member override replaces it entirely.
func TestBatchDefaultOptions(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Workers = 1 })
	body := fmt.Sprintf(`{"options": {"heuristic": "FCFS"}, "requests": [
		{"dag": %s},
		{"dag": %s, "options": {}}
	]}`, testDAGJSON, testDAGJSON)
	w := postBatch(s, body)
	if w.Code != http.StatusOK {
		t.Fatalf("batch: %d: %s", w.Code, w.Body.String())
	}
	var resp BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	var first, second SpecResponse
	if err := json.Unmarshal(resp.Results[0].Spec, &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(resp.Results[1].Spec, &second); err != nil {
		t.Fatal(err)
	}
	if first.Heuristic != "FCFS" {
		t.Errorf("member 0 heuristic = %q, want batch default FCFS", first.Heuristic)
	}
	if second.Heuristic == "FCFS" && resp.Results[1].Source == srcComputed {
		// The empty member override must NOT inherit FCFS; with the model
		// predicting a different heuristic for this DAG the two members are
		// distinct requests. (If the model happens to predict FCFS the
		// bytes legitimately coincide; only flag the inheriting case.)
		t.Logf("member 1 predicted FCFS on its own; cannot distinguish inheritance")
	}
	if resp.Results[1].Source == srcCacheHit || resp.Results[1].Source == srcShapeHit {
		// Options differ, so keys must differ: a cache hit would mean the
		// override leaked into the key of member 0 or vice versa.
		t.Errorf("member with overriding options hit member 0's cache entry")
	}
}

// TestBatchWalkFailureResolvesNothing: a body whose walk fails after 20
// valid members — their decodes already under way beside the walk — answers
// the same 400 as ever, resolves no member (the cache and its counters are
// untouched), and leaves no decode goroutine behind, with one decode
// goroutine as with two.
func TestBatchWalkFailureResolvesNothing(t *testing.T) {
	rng := xrand.New(9)
	var b strings.Builder
	b.WriteString(`{"requests": [`)
	for i := 0; i < 20; i++ {
		d, err := dag.Generate(dag.GenSpec{Size: 40, CCR: 0.5, Parallelism: 0.5, Density: 0.5, Regularity: 0.5, MeanCost: 40}, rng.Split())
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, `{"dag": %s}, `, raw)
	}
	b.WriteString(`{"dag": {"tasks": [}}]}`)

	for _, workers := range []int{1, 2} {
		s := newTestServer(t, func(c *Config) { c.Workers = workers })
		hits, misses, cached := s.metrics.cacheHits.Load(), s.metrics.cacheMisses.Load(), s.cache.Len()
		w := postBatch(s, b.String())
		const want = `{"error":"malformed request JSON: invalid character '}' looking for beginning of value"}` + "\n"
		if w.Code != http.StatusBadRequest || w.Body.String() != want {
			t.Fatalf("workers %d: %d %q, want 400 %q", workers, w.Code, w.Body.String(), want)
		}
		if s.metrics.cacheHits.Load() != hits || s.metrics.cacheMisses.Load() != misses || s.cache.Len() != cached {
			t.Errorf("workers %d: a refused batch reached the cache: hits %d→%d, misses %d→%d, entries %d→%d", workers,
				hits, s.metrics.cacheHits.Load(), misses, s.metrics.cacheMisses.Load(), cached, s.cache.Len())
		}
		// The handler joined its decoders before returning; a goroutine may
		// still be on its way out of run.
		stacks := make([]byte, 1<<20)
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			n := runtime.Stack(stacks, true)
			if !bytes.Contains(stacks[:n], []byte("(*batchDecoder).run")) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("workers %d: a decode goroutine outlived its batch:\n%s", workers, stacks[:n])
			}
		}
	}
}

// TestBatchSharedDecodeAcrossOptions: one raw DAG under two option blocks,
// each byte-duplicated, decodes once and is resolved concurrently under both;
// every member must carry the bytes of its own single-request response.
func TestBatchSharedDecodeAcrossOptions(t *testing.T) {
	const fcfs = `{"heuristic": "FCFS"}`
	s := newTestServer(t, func(c *Config) { c.Workers = 4 })
	body := fmt.Sprintf(`{"requests": [{"dag": %[1]s}, {"dag": %[1]s, "options": %[2]s}, {"dag": %[1]s}, {"dag": %[1]s, "options": %[2]s}]}`, testDAGJSON, fcfs)
	w := postBatch(s, body)
	if w.Code != http.StatusOK {
		t.Fatalf("batch: %d: %s", w.Code, w.Body.String())
	}
	var resp BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	fresh := newTestServer(t, nil)
	plain := bytes.TrimSuffix(post(fresh, specBody("")).Body.Bytes(), []byte("\n"))
	withOpts := bytes.TrimSuffix(post(fresh, specBody(fcfs)).Body.Bytes(), []byte("\n"))
	if bytes.Equal(plain, withOpts) {
		t.Fatal("the two option blocks render the same spec; the test cannot tell them apart")
	}
	for i, want := range [][]byte{plain, withOpts, plain, withOpts} {
		if r := resp.Results[i]; r.Status != http.StatusOK || !bytes.Equal(r.Spec, want) {
			t.Errorf("member %d (status %d, source %q):\n%s\nwant\n%s", i, r.Status, r.Source, r.Spec, want)
		}
	}
	if resp.Coalesced != 2 {
		t.Errorf("coalesced = %d, want the 2 byte duplicates", resp.Coalesced)
	}
}
