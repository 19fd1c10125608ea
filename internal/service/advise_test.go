package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"rsgen/internal/moga"
)

// mogaTestServer enables the multi-objective backend with a small budget so
// advise calls stay fast.
func mogaTestServer(t *testing.T) *Server {
	t.Helper()
	return newTestServer(t, func(c *Config) {
		c.Moga = &moga.Config{PopSize: 16, Generations: 6, Seed: 5}
	})
}

func adviseBody(opts, extra string) string {
	if opts == "" {
		opts = "{}"
	}
	if extra != "" {
		extra = ", " + extra
	}
	return fmt.Sprintf(`{"dag": %s, "options": %s%s}`, testDAGJSON, opts, extra)
}

// Without Config.Moga the endpoint does not exist at all.
func TestAdviseDisabledNotFound(t *testing.T) {
	s := newTestServer(t, nil)
	if w := do(s, http.MethodPost, "/v1/advise", adviseBody("", "")); w.Code != http.StatusNotFound {
		t.Fatalf("POST /v1/advise without moga = %d, want 404", w.Code)
	}
}

func TestAdviseFront(t *testing.T) {
	s := mogaTestServer(t)
	registerPlatform(t, s, `{"generate": {"clusters": 16, "year": 2006, "seed": 3}}`)

	w := do(s, http.MethodPost, "/v1/advise", adviseBody("", `"search": {"seed": 9}`))
	if w.Code != http.StatusOK {
		t.Fatalf("POST /v1/advise = %d: %s", w.Code, w.Body.String())
	}
	var resp AdviseResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding advise response: %v", err)
	}
	if resp.Backend != "moga" {
		t.Errorf("backend = %q, want moga", resp.Backend)
	}
	if resp.FrontSize != len(resp.Front) || resp.FrontSize == 0 {
		t.Fatalf("front_size = %d with %d solutions", resp.FrontSize, len(resp.Front))
	}
	if resp.Evaluations <= 0 || resp.Generations <= 0 {
		t.Errorf("evaluations = %d, generations = %d, want both > 0", resp.Evaluations, resp.Generations)
	}
	if resp.MaskedHosts != 0 {
		t.Errorf("masked_hosts = %d on an unleased inventory", resp.MaskedHosts)
	}
	for i, sol := range resp.Front {
		if len(sol.Hosts) != resp.RCSize {
			t.Errorf("solution %d has %d hosts, want rc_size %d", i, len(sol.Hosts), resp.RCSize)
		}
		// Every pair on the front must be mutually non-dominated.
		for j, other := range resp.Front {
			if i != j && sol.Obj.Dominates(other.Obj) {
				t.Errorf("front solution %d dominates %d: %+v vs %+v", i, j, sol.Obj, other.Obj)
			}
		}
	}
	// The front is knee-ranked: distances never decrease.
	for i := 1; i < len(resp.Front); i++ {
		if resp.Front[i].KneeDistance < resp.Front[i-1].KneeDistance {
			t.Errorf("knee_distance out of order at %d: %v < %v",
				i, resp.Front[i].KneeDistance, resp.Front[i-1].KneeDistance)
		}
	}

	// The same request with the same seed is deterministic.
	w2 := do(s, http.MethodPost, "/v1/advise", adviseBody("", `"search": {"seed": 9}`))
	if w2.Code != http.StatusOK {
		t.Fatalf("second POST /v1/advise = %d", w2.Code)
	}
	if w.Body.String() != w2.Body.String() {
		t.Error("same advise request with same seed returned different bodies")
	}
}

func TestAdviseErrors(t *testing.T) {
	s := mogaTestServer(t)
	// Before any inventory: 412.
	if w := do(s, http.MethodPost, "/v1/advise", adviseBody("", "")); w.Code != http.StatusPreconditionFailed {
		t.Fatalf("advise without inventory = %d, want 412", w.Code)
	}
	registerPlatform(t, s, `{"generate": {"clusters": 8, "year": 2006, "seed": 3}}`)
	cases := []struct {
		name string
		body string
		want int
	}{
		{"bad json", "{not json", http.StatusBadRequest},
		{"no dag", `{"options": {}}`, http.StatusBadRequest},
		{"bad options", adviseBody(`{"clock_ghz": -1}`, ""), http.StatusBadRequest},
		{"population too big", adviseBody("", `"search": {"population": 100000}`), http.StatusBadRequest},
		{"negative generations", adviseBody("", `"search": {"generations": -1}`), http.StatusBadRequest},
		{"evaluations too big", adviseBody("", `"search": {"max_evaluations": 1000000}`), http.StatusBadRequest},
		{"ok", adviseBody("", ""), http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := do(s, http.MethodPost, "/v1/advise", tc.body)
			if w.Code != tc.want {
				t.Fatalf("status = %d, want %d; body: %s", w.Code, tc.want, w.Body.String())
			}
		})
	}
}

// Advise must see the same exclusion mask a real selection would: leased
// hosts disappear from the front unless include_leased is set.
func TestAdviseMasksLeasedHosts(t *testing.T) {
	s := mogaTestServer(t)
	registerPlatform(t, s, `{"generate": {"clusters": 16, "year": 2006, "seed": 3}}`)

	w := do(s, http.MethodPost, "/v1/select", selectBody("", `"backends": ["moga"]`))
	if w.Code != http.StatusOK {
		t.Fatalf("POST /v1/select backend=moga = %d: %s", w.Code, w.Body.String())
	}
	var sel SelectResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sel); err != nil {
		t.Fatalf("decoding select response: %v", err)
	}
	if sel.Backend != "moga" {
		t.Fatalf("select backend = %q, want moga", sel.Backend)
	}
	leased := make(map[int64]bool)
	for _, h := range sel.Hosts {
		leased[int64(h)] = true
	}

	w = do(s, http.MethodPost, "/v1/advise", adviseBody("", ""))
	if w.Code != http.StatusOK {
		t.Fatalf("POST /v1/advise = %d: %s", w.Code, w.Body.String())
	}
	var resp AdviseResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding advise response: %v", err)
	}
	if resp.MaskedHosts != len(leased) {
		t.Errorf("masked_hosts = %d, want the %d leased hosts", resp.MaskedHosts, len(leased))
	}
	for i, sol := range resp.Front {
		for _, h := range sol.Hosts {
			if leased[int64(h)] {
				t.Errorf("front solution %d includes leased host %d", i, h)
			}
		}
	}

	// include_leased advises over the whole universe again.
	w = do(s, http.MethodPost, "/v1/advise", adviseBody("", `"include_leased": true`))
	if w.Code != http.StatusOK {
		t.Fatalf("POST /v1/advise include_leased = %d: %s", w.Code, w.Body.String())
	}
	resp = AdviseResponse{}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding advise response: %v", err)
	}
	if resp.MaskedHosts != 0 {
		t.Errorf("masked_hosts = %d with include_leased, want 0", resp.MaskedHosts)
	}
}

// The healthz body lists the effective selector backends (satellite: the
// list reflects whether moga is enabled).
func TestHealthzSelectorBackends(t *testing.T) {
	read := func(s *Server) []any {
		w := do(s, http.MethodGet, "/healthz", "")
		if w.Code != http.StatusOK {
			t.Fatalf("GET /healthz = %d", w.Code)
		}
		var body struct {
			Backends []any `json:"selector_backends"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
			t.Fatalf("decoding healthz: %v", err)
		}
		return body.Backends
	}
	plain := read(newTestServer(t, nil))
	if len(plain) != 3 || plain[0] != "vgdl" || plain[1] != "classad" || plain[2] != "sword" {
		t.Errorf("selector_backends without moga = %v", plain)
	}
	withMoga := read(mogaTestServer(t))
	if len(withMoga) != 4 || withMoga[3] != "moga" {
		t.Errorf("selector_backends with moga = %v", withMoga)
	}
}

// rsgend_moga_* families appear only when the backend is enabled, and count
// real searches.
func TestAdviseMetrics(t *testing.T) {
	plain := newTestServer(t, nil)
	if body := do(plain, http.MethodGet, "/metrics", "").Body.String(); strings.Contains(body, "rsgend_moga_") {
		t.Error("rsgend_moga_* exposed without the backend enabled")
	}

	s := mogaTestServer(t)
	registerPlatform(t, s, `{"generate": {"clusters": 8, "year": 2006, "seed": 3}}`)
	if w := do(s, http.MethodPost, "/v1/advise", adviseBody("", "")); w.Code != http.StatusOK {
		t.Fatalf("POST /v1/advise = %d: %s", w.Code, w.Body.String())
	}
	body := do(s, http.MethodGet, "/metrics", "").Body.String()
	for _, want := range []string{
		"rsgend_moga_searches_total 1",
		"rsgend_moga_evaluations_total",
		"rsgend_moga_generations_total",
		"rsgend_moga_front_size",
		"rsgend_moga_advise_duration_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// advise posts an advise body and decodes the answer.
func advise(t *testing.T, s *Server, body string) AdviseResponse {
	t.Helper()
	w := do(s, http.MethodPost, "/v1/advise", body)
	if w.Code != http.StatusOK {
		t.Fatalf("POST /v1/advise = %d: %s", w.Code, w.Body.String())
	}
	var resp AdviseResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding advise response: %v", err)
	}
	return resp
}

// selectHosts posts a select body and returns the bound hosts.
func selectHosts(t *testing.T, s *Server, body string) []int64 {
	t.Helper()
	w := do(s, http.MethodPost, "/v1/select", body)
	if w.Code != http.StatusOK {
		t.Fatalf("POST /v1/select = %d: %s", w.Code, w.Body.String())
	}
	var sel SelectResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sel); err != nil {
		t.Fatalf("decoding select response: %v", err)
	}
	hosts := make([]int64, len(sel.Hosts))
	for i, h := range sel.Hosts {
		hosts[i] = int64(h)
	}
	return hosts
}

// spanDetail returns the detail of the named span in the newest trace.
func spanDetail(s *Server, name string) string {
	for _, sp := range s.ring.Recent(1)[0].Spans {
		if sp.Name == name {
			return sp.Detail
		}
	}
	return ""
}

// An advise followed by a backend=moga select of the same body is one
// search: the select is answered from the inventory's memo and binds exactly
// the advised knee point.
func TestAdviseThenSelectSearchesOnce(t *testing.T) {
	s := mogaTestServer(t)
	registerPlatform(t, s, `{"generate": {"clusters": 16, "year": 2006, "seed": 3}}`)
	st := s.cfg.Moga.Stats

	adv := advise(t, s, adviseBody("", ""))
	if d := spanDetail(s, "advise"); strings.Contains(d, "memo=hit") {
		t.Errorf("first advise span detail %q claims a memo hit", d)
	}
	hosts := selectHosts(t, s, selectBody("", `"backends": ["moga"]`))
	if d := spanDetail(s, "select"); !strings.Contains(d, "memo=hit") {
		t.Errorf("select span detail %q, want memo=hit", d)
	}
	if got, want := fmt.Sprint(hosts), fmt.Sprint(adv.Front[0].Hosts); got != want {
		t.Errorf("select bound %s, advise front[0] is %s", got, want)
	}
	if st.Searches() != 1 || st.MemoHits() != 1 {
		t.Errorf("advise + select ran %d searches with %d memo hits, want 1 and 1", st.Searches(), st.MemoHits())
	}
	body := do(s, http.MethodGet, "/metrics", "").Body.String()
	for _, want := range []string{"rsgend_moga_searches_total 1\n", "rsgend_moga_memo_hits_total 1\n"} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// Whatever changes the search's inputs between an advise and a select forces
// the select to search again: a lease taken in between, an advise that
// ignored the held leases, an advise with its own seed, and a new inventory.
func TestAdviseThenSelectSearchesAgain(t *testing.T) {
	const platformBody = `{"generate": {"clusters": 16, "year": 2006, "seed": 3}}`
	lease := func(t *testing.T, s *Server) {
		selectHosts(t, s, selectBody("", `"backends": ["vgdl"]`))
	}
	cases := []struct {
		name   string
		before func(t *testing.T, s *Server) // before the advise
		advise string
		after  func(t *testing.T, s *Server) // between advise and select
	}{
		{"lease in between", nil, adviseBody("", ""), lease},
		{"include_leased", lease, adviseBody("", `"include_leased": true`), nil},
		{"advise seed", nil, adviseBody("", `"search": {"seed": 9}`), nil},
		{"platform put", nil, adviseBody("", ""), func(t *testing.T, s *Server) { registerPlatform(t, s, platformBody) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := mogaTestServer(t)
			registerPlatform(t, s, platformBody)
			st := s.cfg.Moga.Stats
			if tc.before != nil {
				tc.before(t, s)
			}
			advise(t, s, tc.advise)
			if tc.after != nil {
				tc.after(t, s)
			}
			selectHosts(t, s, selectBody("", `"backends": ["moga"]`))
			if d := spanDetail(s, "select"); strings.Contains(d, "memo=hit") {
				t.Errorf("select span detail %q claims a memo hit", d)
			}
			if st.Searches() != 2 || st.MemoHits() != 0 {
				t.Errorf("advise + select ran %d searches with %d memo hits, want 2 and 0", st.Searches(), st.MemoHits())
			}
		})
	}
}
