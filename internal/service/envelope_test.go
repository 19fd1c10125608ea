package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// dagRoutes are the four endpoints whose body carries DAGs. wrap builds a
// valid body around the text of a request's members — `"dag": {…}` and
// whatever else the case adds.
var dagRoutes = []struct {
	path string
	wrap func(members string) string
}{
	{"/v1/spec", func(m string) string { return `{` + m + `}` }},
	{"/v1/spec/batch", func(m string) string { return `{"requests": [{` + m + `}]}` }},
	{"/v1/select", func(m string) string { return `{` + m + `, "backends": ["vgdl"], "ttl_seconds": 60}` }},
	{"/v1/advise", func(m string) string { return `{` + m + `, "search": {"population": 16, "generations": 4, "seed": 3}}` }},
}

// wrapFor returns the body builder of one of the dagRoutes.
func wrapFor(path string) func(members string) string {
	for _, rt := range dagRoutes {
		if rt.path == path {
			return rt.wrap
		}
	}
	panic("no DAG-carrying route " + path)
}

const (
	repeatedTasksDAG = `{"tasks":[{"id":0,"name":"A","cost":2}],"tasks":[{"id":0,"cost":2},{"id":1,"cost":3}]}`
	repeatedCostDAG  = `{"tasks":[{"id":0,"cost":2,"COST":2}]}`
)

// tightenedBodies are a route's bodies of the two classes every route now
// refuses: bytes after the envelope, and a member the scanner interprets
// given twice.
func tightenedBodies(wrap func(string) string) map[string]string {
	return map[string]string{
		"trailing bytes":  wrap(`"dag": `+testDAGJSON) + ` trailing garbage`,
		"trailing value":  wrap(`"dag": `+testDAGJSON) + `{}`,
		"repeated dag":    wrap(`"dag": ` + testDAGJSON + `, "dag": ` + testDAGJSON),
		"repeated DAG":    wrap(`"dag": ` + testDAGJSON + `, "DAG": ` + testDAGJSON),
		"repeated tasks":  wrap(`"dag": ` + repeatedTasksDAG),
		"repeated cost":   wrap(`"dag": ` + repeatedCostDAG),
		"repeated id":     wrap(`"dag": {"tasks":[{"id":0,"id":0,"cost":2}]}`),
		"repeated name":   wrap(`"dag": {"tasks":[{"id":0,"name":"a","Name":"b","cost":2}]}`),
		"repeated edges":  wrap(`"dag": {"tasks":[{"id":0,"cost":2},{"id":1,"cost":2}],"edges":[],"edges":[{"from":0,"to":1}]}`),
		"repeated from":   wrap(`"dag": {"tasks":[{"id":0,"cost":2},{"id":1,"cost":2}],"edges":[{"from":0,"from":0,"to":1}]}`),
		"repeated to":     wrap(`"dag": {"tasks":[{"id":0,"cost":2},{"id":1,"cost":2}],"edges":[{"from":0,"to":1,"to":1}]}`),
		"repeated weight": wrap(`"dag": {"tasks":[{"id":0,"cost":2},{"id":1,"cost":2}],"edges":[{"from":0,"to":1,"cost":1,"cost":1}]}`),
	}
}

// TestOneStrictnessForAllRoutes: the four DAG-carrying routes agree on what a
// request is. Before the shared envelope decoder /v1/spec and /v1/spec/batch
// answered 200 to bytes after the body where /v1/select and /v1/advise
// answered 400, and all four took a repeated member.
func TestOneStrictnessForAllRoutes(t *testing.T) {
	s := mogaTestServer(t)
	registerPlatform(t, s, `{"generate": {"clusters": 16, "year": 2006, "seed": 3}}`)

	// status posts a body and returns the status the request itself got: for
	// a batch that is its one member's status, unless the whole batch failed.
	status := func(t *testing.T, path, body string) (int, string) {
		t.Helper()
		w := do(s, http.MethodPost, path, body)
		if path != "/v1/spec/batch" || w.Code != http.StatusOK {
			return w.Code, w.Body.String()
		}
		var resp BatchResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || len(resp.Results) != 1 {
			t.Fatalf("batch response: %v: %s", err, w.Body.String())
		}
		return resp.Results[0].Status, w.Body.String()
	}

	dagMember := `"dag": ` + testDAGJSON
	unchanged := []struct {
		name    string
		members string
		want    int
	}{
		{"plain", dagMember, http.StatusOK},
		{"unknown members ignored", `"comment": {"dag": [1, 2]}, ` + dagMember + `, "zzz": null`, http.StatusOK},
		{"unknown members inside the dag ignored", `"dag": {"version": 2, "tasks": [{"id": 0, "cost": 1, "color": "red"}], "edges": [], "meta": {"tasks": 1}}`, http.StatusOK},
		{"member names fold case", `"DAG": {"Tasks": [{"ID": 0, "COST": 1}], "EDGES": []}, "Options": {"Clock_GHz": 2.5}`, http.StatusOK},
		{"null fields stay zero", `"dag": {"tasks": [{"id": null, "name": null, "cost": null}], "edges": null}, "options": null`, http.StatusOK},
		{"escaped and invalid utf-8 names", "\"dag\": {\"tasks\": [{\"id\": 0, \"name\": \"a\\u00e9\\ud83d\\ude00\\ud800\xff\", \"cost\": 1}]}", http.StatusOK},
		{"null dag", `"dag": null`, http.StatusBadRequest},
		{"no dag", `"options": {}`, http.StatusBadRequest},
		{"id 1.0", `"dag": {"tasks": [{"id": 0, "cost": 1}, {"id": 1.0, "cost": 1}]}`, http.StatusBadRequest},
		{"id 1e2", `"dag": {"tasks": [{"id": 1e2, "cost": 1}]}`, http.StatusBadRequest},
		{"id beyond int32", `"dag": {"tasks": [{"id": 99999999999, "cost": 1}]}`, http.StatusBadRequest},
		{"cost 1e999", `"dag": {"tasks": [{"id": 0, "cost": 1e999}]}`, http.StatusBadRequest},
		{"cost as string", `"dag": {"tasks": [{"id": 0, "cost": "1"}]}`, http.StatusBadRequest},
		{"nesting beyond 10000", `"x": ` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `, ` + dagMember, http.StatusBadRequest},
		{"broken json in a skipped member", `"x": [1,}, ` + dagMember, http.StatusBadRequest},
	}
	for _, rt := range dagRoutes {
		for name, body := range tightenedBodies(rt.wrap) {
			t.Run(rt.path+"/"+name, func(t *testing.T) {
				if got, resp := status(t, rt.path, body); got != http.StatusBadRequest {
					t.Fatalf("status = %d, want 400: %s", got, resp)
				}
			})
		}
		for _, tc := range unchanged {
			t.Run(rt.path+"/"+tc.name, func(t *testing.T) {
				if got, resp := status(t, rt.path, rt.wrap(tc.members)); got != tc.want {
					t.Fatalf("status = %d, want %d: %s", got, tc.want, resp)
				}
			})
		}
	}

	// Inside a batch a repeated member condemns its own member only; bytes
	// after the batch condemn the batch.
	w := postBatch(s, `{"requests": [{`+dagMember+`}, {"dag": `+repeatedTasksDAG+`}, {`+dagMember+`, "dag": 1}, {`+dagMember+`}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("batch with bad members = %d: %s", w.Code, w.Body.String())
	}
	var resp BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{200, 400, 400, 200} {
		if resp.Results[i].Status != want {
			t.Errorf("member %d status = %d, want %d (%s)", i, resp.Results[i].Status, want, resp.Results[i].Error)
		}
	}
	if w := postBatch(s, `{"requests": [{`+dagMember+`}], "requests": [{`+dagMember+`}]}`); w.Code != http.StatusBadRequest {
		t.Errorf("repeated requests member = %d, want 400", w.Code)
	}
}

// TestEnvelopeErrorTextUnchanged: what a client is told about everything but
// the DAG itself is worded by encoding/json, as it was when encoding/json
// read the whole body.
func TestEnvelopeErrorTextUnchanged(t *testing.T) {
	s := newTestServer(t, nil)
	cases := []struct {
		body string
		want string
	}{
		{`{not json`, `malformed request JSON: invalid character 'n' looking for beginning of object key string`},
		{`[]`, `malformed request JSON: json: cannot unmarshal array into Go value of type service.SpecRequest`},
		{`{"dag": ` + testDAGJSON + `, "options": {"threshold": "x"}}`, `malformed request JSON: json: cannot unmarshal string into Go struct field SpecOptions.options.threshold of type float64`},
		{`{"dag": ` + testDAGJSON + `, "options": 5}`, `malformed request JSON: json: cannot unmarshal number into Go struct field SpecRequest.options of type service.SpecOptions`},
		{`{"dag": ` + testDAGJSON + `} x`, `malformed request JSON: invalid character 'x' after top-level value`},
		{`{"dag": {"tasks": [}}`, `malformed request JSON: invalid character '}' looking for beginning of value`},
		{`null`, `request has no dag`},
		{`{"options": {}}`, `request has no dag`},
		{`{"dag": {"tasks":[{"id":0,"cost":1},{"id":1,"cost":1}],"edges":[{"from":0,"to":1,"cost":1},{"from":1,"to":0,"cost":1}]}}`, `invalid dag: dag: graph contains a cycle`},
		{`{"dag": ` + testDAGJSON + `, "options": {"clock_ghz": -1}}`, `invalid options: clock_ghz -1 < 0`},
		// An invalid DAG does not hide a malformed option after it.
		{`{"dag": {"tasks": []}, "options": {"threshold": "x"}}`, `malformed request JSON: json: cannot unmarshal string into Go struct field SpecOptions.options.threshold of type float64`},
	}
	for _, tc := range cases {
		w := post(s, tc.body)
		var e errorBody
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || w.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, body %s", tc.body, w.Code, w.Body.String())
		}
		if e.Error != tc.want {
			t.Errorf("%s:\n  error = %q\n  want    %q", tc.body, e.Error, tc.want)
		}
	}
	// The batch envelope keeps encoding/json's field paths too.
	for body, want := range map[string]string{
		`{"requests": [{"dag": ` + testDAGJSON + `, "options": {"scr": []}}]}`: `malformed request JSON: json: cannot unmarshal array into Go struct field SpecOptions.requests.options.scr of type float64`,
		`{"requests": 5}`:   `malformed request JSON: json: cannot unmarshal number into Go struct field BatchRequest.requests of type []service.BatchMember`,
		`{"requests": [5]}`: `malformed request JSON: json: cannot unmarshal number into Go struct field BatchRequest.requests of type service.BatchMember`,
		`{"requests": [{"dag": ` + testDAGJSON + `} 5]}`: `malformed request JSON: invalid character '5' after array element`,
		`{"requests": null}`:                             `batch has no requests`,
	} {
		w := postBatch(s, body)
		var e errorBody
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || w.Code != http.StatusBadRequest || e.Error != want {
			t.Errorf("%s: status %d\n  error = %q\n  want    %q", body, w.Code, e.Error, want)
		}
	}
}

// TestEnvelopeRest: what decodeEnvelope hands encoding/json is the body less
// its dag members, so the typed fields decode as they always did.
func TestEnvelopeRest(t *testing.T) {
	var sel SelectRequest
	d, err := decodeRequest([]byte(` { "ttl_seconds" : 30 , "dag" : `+testDAGJSON+` , "backends" : [ "vgdl" , "sword" ] , "options" : { "clock_ghz" : 2.5 , "alternative_clocks" : [ 2 , 1.5 ] } } `), &sel)
	if err != nil || d.Size() != 4 {
		t.Fatalf("decodeRequest: %v", err)
	}
	if sel.TTLSeconds != 30 || fmt.Sprint(sel.Backends) != "[vgdl sword]" || sel.Options.ClockGHz != 2.5 || len(sel.Options.AlternativeClocks) != 2 {
		t.Errorf("typed members lost: %+v", sel)
	}

	req, dags, err := decodeBatch([]byte(`{"options": {"clock_ghz": 2}, "requests": [{"dag": {"a": 1}, "options": {"scr": 3}}, null, {}, {"options": null, "dag":  [1, 2] }]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(req.Requests) != 4 || len(dags) != 4 || req.Options.ClockGHz != 2 || req.Requests[0].Options.SCR != 3 || req.Requests[3].Options != nil {
		t.Fatalf("batch members lost: %+v", req)
	}
	for i, want := range []string{`{"a": 1}`, "", "", `[1, 2]`} {
		if string(dags[i].raw) != want || dags[i].repeated {
			t.Errorf("member %d dag = %q, want %q", i, dags[i].raw, want)
		}
	}
}

// TestBodyBufferRetention: a body buffer goes back to the pool unless it grew
// past MaxBodyBytes — a large batch must not pin its megabytes.
func TestBodyBufferRetention(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxBodyBytes = 4096 })
	big := bytes.NewBuffer(make([]byte, 0, 1<<16))
	s.releaseBody(big)
	for i := 0; i < 64; i++ {
		if b := bodyPool.Get().(*bytes.Buffer); b == big {
			t.Fatal("a buffer past MaxBodyBytes came back from the pool")
		}
	}
}
