package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func do(s http.Handler, method, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func registerPlatform(t testing.TB, s http.Handler, body string) {
	t.Helper()
	w := do(s, http.MethodPut, "/v1/platform", body)
	if w.Code != http.StatusOK {
		t.Fatalf("PUT /v1/platform = %d: %s", w.Code, w.Body.String())
	}
}

func selectBody(opts, extra string) string {
	if opts == "" {
		opts = "{}"
	}
	if extra != "" {
		extra = ", " + extra
	}
	return fmt.Sprintf(`{"dag": %s, "options": %s%s}`, testDAGJSON, opts, extra)
}

// TestSelectLifecycle walks the whole closed loop over HTTP: register an
// inventory, select with a deliberately unsatisfiable optimal rung, verify
// the fallback trace, check occupancy, release, check occupancy again.
func TestSelectLifecycle(t *testing.T) {
	s := newTestServer(t, nil)
	// A 2003-era platform tops out at 2.4 GHz, so the 2.8 GHz optimal rung
	// dies at selection and the 2.0 GHz alternative must win.
	registerPlatform(t, s, `{"generate": {"clusters": 24, "year": 2003, "seed": 7}}`)

	w := do(s, http.MethodPost, "/v1/select",
		selectBody(`{"clock_ghz": 2.8, "alternative_clocks": [2.0], "alternative_tolerance": 2}`, `"ttl_seconds": 300`))
	if w.Code != http.StatusOK {
		t.Fatalf("POST /v1/select = %d: %s", w.Code, w.Body.String())
	}
	var resp SelectResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding select response: %v", err)
	}
	if resp.LeaseID == "" {
		t.Fatal("response has no lease_id")
	}
	if resp.FallbackDepth != 1 {
		t.Errorf("fallback_depth = %d, want 1", resp.FallbackDepth)
	}
	if got := w.Header().Get("X-Fallback-Depth"); got != "1" {
		t.Errorf("X-Fallback-Depth = %q, want 1", got)
	}
	if resp.MaxClockGHz != 2.0 {
		t.Errorf("winning clock %v, want the 2.0 GHz alternative", resp.MaxClockGHz)
	}
	if len(resp.Hosts) != resp.RCSize || resp.RCSize == 0 {
		t.Errorf("response lists %d hosts for rc_size %d", len(resp.Hosts), resp.RCSize)
	}
	if len(resp.Trace) < 2 {
		t.Fatalf("trace has %d entries, want the failed rung plus the bound one", len(resp.Trace))
	}
	if first := resp.Trace[0]; first.Rung != 0 || first.Stage != "select" || first.Err == "" {
		t.Errorf("first trace entry %+v, want a rung-0 selection failure", first)
	}
	if last := resp.Trace[len(resp.Trace)-1]; last.Stage != "bound" {
		t.Errorf("last trace entry %+v, want stage bound", last)
	}
	if resp.ExpiresInSeconds <= 0 || resp.ExpiresInSeconds > 300 {
		t.Errorf("expires_in_seconds = %v, want (0, 300]", resp.ExpiresInSeconds)
	}

	// Occupancy and the inventory generation are visible through
	// GET /v1/platform…
	var info struct {
		Generation uint64 `json:"generation"`
		Leases     struct {
			ActiveLeases int `json:"active_leases"`
			LeasedHosts  int `json:"leased_hosts"`
		} `json:"leases"`
	}
	w = do(s, http.MethodGet, "/v1/platform", "")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /v1/platform = %d: %s", w.Code, w.Body.String())
	}
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Leases.ActiveLeases != 1 || info.Leases.LeasedHosts != resp.RCSize {
		t.Errorf("occupancy %+v after one selection", info.Leases)
	}
	if info.Generation != 1 {
		t.Errorf("generation %d after first registration, want 1", info.Generation)
	}

	// …and through /metrics.
	w = do(s, http.MethodGet, "/metrics", "")
	metricsText := w.Body.String()
	for _, want := range []string{
		"rsgend_broker_fallback_depth_total{depth=\"1\"} 1",
		fmt.Sprintf("rsgend_broker_leased_hosts %d", resp.RCSize),
		"rsgend_broker_active_leases 1",
		"rsgend_broker_selections_total 1",
	} {
		if !strings.Contains(metricsText, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Release, then the lease is gone.
	w = do(s, http.MethodPost, "/v1/release", fmt.Sprintf(`{"lease_id": %q}`, resp.LeaseID))
	if w.Code != http.StatusOK {
		t.Fatalf("POST /v1/release = %d: %s", w.Code, w.Body.String())
	}
	w = do(s, http.MethodPost, "/v1/release", fmt.Sprintf(`{"lease_id": %q}`, resp.LeaseID))
	if w.Code != http.StatusNotFound {
		t.Errorf("double release = %d, want 404", w.Code)
	}
	w = do(s, http.MethodGet, "/v1/platform", "")
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Leases.ActiveLeases != 0 || info.Leases.LeasedHosts != 0 {
		t.Errorf("occupancy %+v after release", info.Leases)
	}

	// Re-registering bumps the inventory epoch — the bump is how clients
	// detect that any leases they held died with the old inventory.
	registerPlatform(t, s, `{"generate": {"clusters": 16, "year": 2006, "seed": 3}}`)
	w = do(s, http.MethodGet, "/v1/platform", "")
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Generation != 2 {
		t.Errorf("generation %d after re-registration, want 2", info.Generation)
	}
}

func TestSelectBackendChoice(t *testing.T) {
	s := newTestServer(t, nil)
	registerPlatform(t, s, `{"generate": {"clusters": 16, "year": 2006, "seed": 3}}`)
	for _, backend := range []string{"vgdl", "classad", "sword"} {
		t.Run(backend, func(t *testing.T) {
			w := do(s, http.MethodPost, "/v1/select",
				selectBody(`{"clock_ghz": 2.0}`, fmt.Sprintf(`"backends": [%q]`, backend)))
			if w.Code != http.StatusOK {
				t.Fatalf("select via %s = %d: %s", backend, w.Code, w.Body.String())
			}
			var resp SelectResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Backend != backend {
				t.Errorf("backend = %q, want %q", resp.Backend, backend)
			}
			if w := do(s, http.MethodPost, "/v1/release", fmt.Sprintf(`{"lease_id": %q}`, resp.LeaseID)); w.Code != http.StatusOK {
				t.Fatalf("release = %d", w.Code)
			}
		})
	}
}

func TestSelectErrorStatuses(t *testing.T) {
	s := newTestServer(t, nil)

	// No inventory yet → 412.
	if w := do(s, http.MethodPost, "/v1/select", selectBody("", "")); w.Code != http.StatusPreconditionFailed {
		t.Errorf("select without inventory = %d, want 412", w.Code)
	}
	// GET /v1/platform without inventory → 404.
	if w := do(s, http.MethodGet, "/v1/platform", ""); w.Code != http.StatusNotFound {
		t.Errorf("GET /v1/platform without inventory = %d, want 404", w.Code)
	}

	registerPlatform(t, s, `{"generate": {"clusters": 8, "year": 2006, "seed": 3}}`)

	cases := []struct {
		name string
		body string
		want int
	}{
		{"bad json", "{not json", http.StatusBadRequest},
		{"no dag", `{"options": {}}`, http.StatusBadRequest},
		{"bad options", selectBody(`{"clock_ghz": -1}`, ""), http.StatusBadRequest},
		{"unknown backend", selectBody("", `"backends": ["condor-g"]`), http.StatusBadRequest},
		{"negative ttl", selectBody("", `"ttl_seconds": -1`), http.StatusBadRequest},
		{"unsatisfiable", selectBody(`{"clock_ghz": 9.9}`, ""), http.StatusConflict},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := do(s, http.MethodPost, "/v1/select", tc.body)
			if w.Code != tc.want {
				t.Fatalf("status = %d, want %d; body: %s", w.Code, tc.want, w.Body.String())
			}
		})
	}

	// The 409 carries the rung trace.
	w := do(s, http.MethodPost, "/v1/select", selectBody(`{"clock_ghz": 9.9}`, ""))
	var conflict struct {
		Error string            `json:"error"`
		Trace []json.RawMessage `json:"trace"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &conflict); err != nil {
		t.Fatal(err)
	}
	if conflict.Error == "" || len(conflict.Trace) == 0 {
		t.Errorf("conflict body %s lacks error or trace", w.Body.String())
	}

	// Draining broker → 503.
	s.brk.BeginDrain()
	if w := do(s, http.MethodPost, "/v1/select", selectBody("", "")); w.Code != http.StatusServiceUnavailable {
		t.Errorf("select while draining = %d, want 503", w.Code)
	}
}

func TestPlatformPutValidation(t *testing.T) {
	s := newTestServer(t, nil)
	cases := []struct {
		name string
		body string
		want int
	}{
		{"bad json", "{", http.StatusBadRequest},
		{"no generate", `{}`, http.StatusBadRequest},
		{"zero clusters", `{"generate": {"clusters": 0}}`, http.StatusBadRequest},
		{"too many clusters", `{"generate": {"clusters": 10001}}`, http.StatusBadRequest},
		{"negative queue wait", `{"generate": {"clusters": 2}, "mean_queue_wait_seconds": -5}`, http.StatusBadRequest},
		{"override out of range", `{"generate": {"clusters": 2}, "managers": [{"cluster": 99, "discipline": "dedicated"}]}`, http.StatusBadRequest},
		{"override bad discipline", `{"generate": {"clusters": 2}, "managers": [{"cluster": 0, "discipline": "lottery"}]}`, http.StatusBadRequest},
		{"ok dedicated", `{"generate": {"clusters": 4, "year": 2006, "seed": 3}}`, http.StatusOK},
		{"ok mixed managers", `{"generate": {"clusters": 4, "year": 2006, "seed": 3}, "mean_queue_wait_seconds": 600, "manager_seed": 5, "managers": [{"cluster": 0, "discipline": "batch-queue", "queue_wait_seconds": 30}]}`, http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := do(s, http.MethodPut, "/v1/platform", tc.body)
			if w.Code != tc.want {
				t.Fatalf("status = %d, want %d; body: %s", w.Code, tc.want, w.Body.String())
			}
		})
	}
}

// TestPlatformReplaceDropsLeases: re-registering the inventory invalidates
// outstanding leases (their hosts no longer exist).
func TestPlatformReplaceDropsLeases(t *testing.T) {
	s := newTestServer(t, nil)
	registerPlatform(t, s, `{"generate": {"clusters": 8, "year": 2006, "seed": 3}}`)
	w := do(s, http.MethodPost, "/v1/select", selectBody(`{"clock_ghz": 2.0}`, ""))
	if w.Code != http.StatusOK {
		t.Fatalf("select = %d: %s", w.Code, w.Body.String())
	}
	var resp SelectResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	registerPlatform(t, s, `{"generate": {"clusters": 8, "year": 2006, "seed": 4}}`)
	if w := do(s, http.MethodPost, "/v1/release", fmt.Sprintf(`{"lease_id": %q}`, resp.LeaseID)); w.Code != http.StatusNotFound {
		t.Errorf("release after re-registration = %d, want 404", w.Code)
	}
}

func TestReleaseValidation(t *testing.T) {
	s := newTestServer(t, nil)
	if w := do(s, http.MethodPost, "/v1/release", "{bad"); w.Code != http.StatusBadRequest {
		t.Errorf("bad json release = %d, want 400", w.Code)
	}
	if w := do(s, http.MethodPost, "/v1/release", "{}"); w.Code != http.StatusBadRequest {
		t.Errorf("empty lease_id release = %d, want 400", w.Code)
	}
	if w := do(s, http.MethodPost, "/v1/release", `{"lease_id": "lease-404"}`); w.Code != http.StatusNotFound {
		t.Errorf("unknown lease release = %d, want 404", w.Code)
	}
}
