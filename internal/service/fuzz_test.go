package service

import (
	"bytes"
	"encoding/json"
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

// FuzzBatchRequest drives a /v1/spec/batch body through decodeEnvelope: any
// bytes must yield an error or one located DAG per member — each a view of
// valid JSON that the DAG decoder, in turn, answers with a DAG or an error,
// never both — and never a panic.
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
		req, dags, err := decodeBatch(data)
		if err != nil {
			if req != nil || dags != nil {
				t.Fatalf("error %v with non-nil results", err)
			}
			return
		}
		if req == nil || len(dags) != len(req.Requests) {
			t.Fatalf("%d located dags for %d members", len(dags), len(req.Requests))
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
