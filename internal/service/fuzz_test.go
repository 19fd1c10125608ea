package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"rsgen/internal/dag"
)

// FuzzSelectRequest drives the /v1/select body through decodeEnvelope, the
// one parser the DAG-carrying endpoints expose to untrusted input: whatever
// the bytes, it must return an error or a well-formed DAG — never panic, never
// a DAG together with an error.
func FuzzSelectRequest(f *testing.F) {
	f.Add([]byte(selectBody("", "")))
	f.Add([]byte(selectBody(`{"clock_ghz": 2.8, "alternative_clocks": [2.0, 1.5]}`, `"backends": ["vgdl", "sword"], "ttl_seconds": 300`)))
	f.Add([]byte(`{"dag": {"tasks": []}}`))
	f.Add([]byte(`{"dag": 17}`))
	f.Add([]byte(`{"dag": {"tasks":[{"id":0,"cost":1}],"edges":[{"from":0,"to":0,"cost":1}]}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Add([]byte(`[]`))
	f.Add([]byte(strings.Repeat(`{"dag":`, 50)))
	for _, body := range tightenedBodies(wrapFor("/v1/select")) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req SelectRequest
		d, err := decodeRequest(data, &req)
		if err != nil {
			if d != nil {
				t.Fatalf("error %v with a DAG", err)
			}
			return
		}
		if d == nil {
			t.Fatal("no DAG without error")
		}
		if d.Size() == 0 {
			t.Fatal("decoded dag has no tasks")
		}
		// Everything but the DAG still reaches the typed struct exactly as
		// when encoding/json read the whole body.
		var want struct {
			Dag json.RawMessage `json:"dag"`
			SelectRequest
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("encoding/json rejects an accepted body: %v", err)
		}
		if !reflect.DeepEqual(req, want.SelectRequest) {
			t.Fatalf("typed members differ:\n got  %+v\n want %+v", req, want.SelectRequest)
		}
	})
}

// FuzzAdviseRequest drives a /v1/advise body the same way, through
// decodeEnvelope and then the search-budget check: any bytes must yield an
// error or a well-formed DAG with the budget inside the server's hard
// ceilings — never a panic.
func FuzzAdviseRequest(f *testing.F) {
	f.Add([]byte(adviseBody("", "")))
	f.Add([]byte(adviseBody(`{"min_memory_mb": 512}`, `"search": {"population": 24, "generations": 8, "seed": 3}, "include_leased": true`)))
	f.Add([]byte(adviseBody("", `"search": {"max_evaluations": 131072}`)))
	f.Add([]byte(`{"dag": {"tasks": []}}`))
	f.Add([]byte(`{"dag": 17, "search": {"population": -1}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Add([]byte(`[]`))
	f.Add([]byte(strings.Repeat(`{"search":`, 50)))
	for _, body := range tightenedBodies(wrapFor("/v1/advise")) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req AdviseRequest
		d, err := decodeRequest(data, &req)
		if err != nil {
			if d != nil {
				t.Fatalf("error %v with a DAG", err)
			}
			return
		}
		if d == nil {
			t.Fatal("no DAG without error")
		}
		if d.Size() == 0 {
			t.Fatal("decoded dag has no tasks")
		}
		if req.Search.validate() != nil {
			return
		}
		sr := req.Search
		if sr.Population < 0 || sr.Population > maxAdvisePopulation ||
			sr.Generations < 0 || sr.Generations > maxAdviseGenerations ||
			sr.MaxEvaluations < 0 || sr.MaxEvaluations > maxAdviseEvaluations {
			t.Fatalf("accepted out-of-bounds search budget %+v", sr)
		}
	})
}

// FuzzBatchRequest drives a /v1/spec/batch body through walkBatch with a
// consumer, as the handler does: any bytes must yield an error or one located
// DAG per member — each a view of valid JSON that the DAG decoder, in turn,
// answers with a DAG or an error, never both — and never a panic. The
// consumer must be handed exactly the located extents, in member order, each
// once: a member's last extent is the one it keeps.
func FuzzBatchRequest(f *testing.F) {
	member := `{"dag": ` + testDAGJSON + `}`
	f.Add([]byte(`{"requests": [` + member + `]}`))
	f.Add([]byte(`{"options": {"clock_ghz": 2.8}, "requests": [` + member + `, {"dag": ` + testDAGJSON + `, "options": {"heuristic": "MCP"}}, ` + member + `]}`))
	f.Add([]byte(`{"requests": [{}, null, {"dag": null}, {"dag": 17}, {"dag": {"tasks": []}}]}`))
	f.Add([]byte(`{"requests": [` + member + `], "requests": [` + member + `]}`))
	f.Add([]byte(`{"requests": [{"dag": 1, "dag": 2}]}`))
	f.Add([]byte(`{"requests": 5}`))
	f.Add([]byte(`{"requests": [5]}`))
	f.Add([]byte(`{"dag": ` + testDAGJSON + `}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Add([]byte(`[]`))
	f.Add([]byte(strings.Repeat(`{"requests":[`, 50)))
	for _, body := range tightenedBodies(wrapFor("/v1/spec/batch")) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		type handed struct {
			i   int
			raw []byte
		}
		var got []handed
		req, dags, err := walkBatch(data, func(i int, raw []byte) {
			if n := len(got); n > 0 && i < got[n-1].i {
				t.Fatalf("member %d handed over after member %d", i, got[n-1].i)
			}
			got = append(got, handed{i, raw})
		})
		if err != nil {
			if req != nil || dags != nil {
				t.Fatalf("error %v with non-nil results", err)
			}
			return
		}
		if req == nil || len(dags) != len(req.Requests) {
			t.Fatalf("%d located dags for %d members", len(dags), len(req.Requests))
		}
		calls := make([]int, len(dags))
		for k, h := range got {
			if h.i >= len(dags) {
				t.Fatalf("member %d handed over of %d", h.i, len(dags))
			}
			calls[h.i]++
			m := dags[h.i]
			last := k+1 == len(got) || got[k+1].i != h.i
			if last && (len(h.raw) == 0 || len(h.raw) != len(m.raw) || &h.raw[0] != &m.raw[0]) {
				t.Fatalf("member %d: handed %q last, located %q", h.i, h.raw, m.raw)
			}
		}
		for i, m := range dags {
			if (m.raw == nil) != (calls[i] == 0) || m.repeated != (calls[i] > 1) {
				t.Fatalf("member %d (located %q, repeated %v) handed over %d times", i, m.raw, m.repeated, calls[i])
			}
		}
		// encoding/json, reading the whole body, finds the same members with
		// the same options and the same raw DAGs.
		var want struct {
			Requests []struct {
				Dag     json.RawMessage `json:"dag"`
				Options *SpecOptions    `json:"options"`
			} `json:"requests"`
			Options *SpecOptions `json:"options"`
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("encoding/json rejects an accepted body: %v", err)
		}
		if len(want.Requests) != len(dags) || !reflect.DeepEqual(req.Options, want.Options) {
			t.Fatalf("batch differs: %d members, options %+v; want %d, %+v", len(dags), req.Options, len(want.Requests), want.Options)
		}
		for i, m := range want.Requests {
			if !reflect.DeepEqual(req.Requests[i].Options, m.Options) || !bytes.Equal(dags[i].raw, m.Dag) {
				t.Fatalf("member %d differs: options %+v, dag %q; want %+v, %q", i, req.Requests[i].Options, dags[i].raw, m.Options, m.Dag)
			}
		}
		for i, m := range dags {
			if m.raw == nil {
				if m.repeated {
					t.Fatalf("member %d: repeated but absent", i)
				}
				continue
			}
			if !json.Valid(m.raw) {
				t.Fatalf("member %d: located dag %q is not JSON", i, m.raw)
			}
			d, err := dag.DecodeBytes(m.raw)
			if (d == nil) == (err == nil) {
				t.Fatalf("member %d: DecodeBytes = %v, %v", i, d, err)
			}
		}
	})
}

// checkAnswer fails unless a handler answered 2xx, or 4xx with a JSON
// {"error": …} body.
func checkAnswer(t *testing.T, w *httptest.ResponseRecorder) {
	t.Helper()
	switch {
	case w.Code >= 200 && w.Code < 300:
	case w.Code >= 400 && w.Code < 500:
		var body struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || body.Error == "" {
			t.Fatalf("%d without a JSON error (%v): %q", w.Code, err, w.Body.String())
		}
	default:
		t.Fatalf("status %d: %q", w.Code, w.Body.String())
	}
}

// FuzzEventsBody posts arbitrary bytes to POST /v1/platform/events on a
// server with a reconciler and an inventory: whatever the body, the handler
// must not panic and must answer 2xx, or 4xx with a JSON error.
func FuzzEventsBody(f *testing.F) {
	f.Add([]byte(`{"events": [{"type": "leave", "host": 0}, {"type": "load", "host": 1, "load": 0.8}]}`))
	f.Add([]byte(`{"events": [{"type": "clock", "host": 3, "clock_ghz": 1.2}, {"type": "cluster_join", "cluster": 1}]}`))
	f.Add([]byte(`{"events": [{"type": "cluster_leave", "cluster": -1}]}`))
	f.Add([]byte(`{"events": [{"type": "leave", "host": 1e30}]}`))
	f.Add([]byte(`{"events": []}`))
	f.Add([]byte(`{"events": null}`))
	f.Add([]byte(`{"events": [{}]}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	s, _ := newReconcileServer(f)
	registerPlatform(f, s, `{"generate": {"clusters": 4, "year": 2006, "seed": 3}}`)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAnswer(t, do(s, http.MethodPost, "/v1/platform/events", string(body)))
	})
}

// FuzzObservationsQuery sends arbitrary query strings to GET
// /v1/observations over a ring holding a few observations: the handler must
// not panic, must answer 2xx or 4xx with a JSON error, and a 200 page must
// be consistent with itself.
func FuzzObservationsQuery(f *testing.F) {
	for _, q := range []string{
		"", "limit=1", "offset=1&limit=1", "limit=100000", "offset=99999999999999999999",
		"since=2020-01-01T00:00:00Z", "since=yesterday", "backend=vgdl&fingerprint=0123456789abcdef",
		"limit=-1", "limit=1&limit=2", "%zz", "offset=-0",
	} {
		f.Add(q)
	}
	s := newObsServer(f)
	registerPlatform(f, s, `{"generate": {"clusters": 8, "year": 2006, "seed": 3}}`)
	for _, observed := range []float64{10, 20, 30} {
		bindAndRelease(f, s, observed)
	}
	f.Fuzz(func(t *testing.T, query string) {
		r := httptest.NewRequest(http.MethodGet, "/v1/observations", nil)
		r.URL.RawQuery = query
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		checkAnswer(t, w)
		if w.Code != http.StatusOK {
			return
		}
		var page ObservationsResponse
		if err := json.Unmarshal(w.Body.Bytes(), &page); err != nil {
			t.Fatalf("200 body is not a page: %v", err)
		}
		if page.Count != len(page.Observations) || page.Count > maxObservationsLimit ||
			page.Offset < 0 || page.Count > max(0, page.Matched-page.Offset) {
			t.Fatalf("inconsistent page: %+v", page)
		}
	})
}
