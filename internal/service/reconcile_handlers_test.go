package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"rsgen/internal/broker"
	"rsgen/internal/reconcile"
)

// newReconcileServer wires a broker and a reconciler over it into a test
// server, the way rsgend does with -reconcile-interval > 0. The reconciler is
// not Start()ed: tests drive Cycle explicitly for determinism.
func newReconcileServer(t testing.TB) (*Server, *reconcile.Reconciler) {
	t.Helper()
	gen, err := testGenerator()
	if err != nil {
		t.Fatalf("training test generator: %v", err)
	}
	brk, err := broker.New(broker.Config{Generator: gen})
	if err != nil {
		t.Fatalf("broker.New: %v", err)
	}
	rec, err := reconcile.New(reconcile.Config{Broker: brk})
	if err != nil {
		t.Fatalf("reconcile.New: %v", err)
	}
	s := newTestServer(t, func(c *Config) {
		c.Broker = brk
		c.Reconciler = rec
	})
	return s, rec
}

func TestPlatformEventsValidation(t *testing.T) {
	s, _ := newReconcileServer(t)

	// Before any platform registration the event stream has nothing to
	// validate against.
	if w := do(s, http.MethodPost, "/v1/platform/events", `{"events": [{"type": "leave", "host": 0}]}`); w.Code != http.StatusPreconditionFailed {
		t.Fatalf("events without inventory = %d, want 412; body: %s", w.Code, w.Body.String())
	}
	registerPlatform(t, s, `{"generate": {"clusters": 4, "year": 2006, "seed": 3}}`)

	cases := []struct {
		name string
		body string
		want int
	}{
		{"bad json", `{nope`, http.StatusBadRequest},
		{"no events", `{"events": []}`, http.StatusBadRequest},
		{"unknown type", `{"events": [{"type": "explode"}]}`, http.StatusBadRequest},
		{"host out of range", `{"events": [{"type": "leave", "host": 100000}]}`, http.StatusBadRequest},
		{"cluster out of range", `{"events": [{"type": "cluster_leave", "cluster": 99}]}`, http.StatusBadRequest},
		{"ok", `{"events": [{"type": "leave", "host": 0}, {"type": "load", "host": 1, "load": 0.8}]}`, http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := do(s, http.MethodPost, "/v1/platform/events", tc.body)
			if w.Code != tc.want {
				t.Fatalf("status = %d, want %d; body: %s", w.Code, tc.want, w.Body.String())
			}
			if tc.want == http.StatusOK {
				var resp struct {
					Ingested int `json:"ingested"`
				}
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.Ingested != 2 {
					t.Fatalf("ingested = %d (err %v), want 2; body: %s", resp.Ingested, err, w.Body.String())
				}
			}
		})
	}
}

// One body carries at most maxEventsPerBody events; one more is a 400 that
// names the count and the cap, and queues nothing.
func TestPlatformEventsCap(t *testing.T) {
	s, rec := newReconcileServer(t)
	registerPlatform(t, s, `{"generate": {"clusters": 4, "year": 2006, "seed": 3}}`)
	body := func(n int) string {
		return `{"events": [` + strings.TrimSuffix(strings.Repeat(`{"type": "load", "host": 0, "load": 0.5},`, n), ",") + `]}`
	}
	w := do(s, http.MethodPost, "/v1/platform/events", body(maxEventsPerBody+1))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("%d events = %d, want 400; body: %s", maxEventsPerBody+1, w.Code, w.Body.String())
	}
	for _, want := range []string{fmt.Sprint(maxEventsPerBody + 1), fmt.Sprint(maxEventsPerBody)} {
		if !strings.Contains(w.Body.String(), want) {
			t.Errorf("400 body %q does not name %s", w.Body.String(), want)
		}
	}
	if st := rec.Cycle(context.Background()); st.Events != 0 {
		t.Errorf("a refused body queued %d events", st.Events)
	}
	w = do(s, http.MethodPost, "/v1/platform/events", body(maxEventsPerBody))
	var resp struct {
		Ingested int `json:"ingested"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); w.Code != http.StatusOK || err != nil || resp.Ingested != maxEventsPerBody {
		t.Fatalf("%d events = %d, ingested %d (err %v), want 200 and all ingested", maxEventsPerBody, w.Code, resp.Ingested, err)
	}
}

func TestPlatformEventsWithoutReconciler(t *testing.T) {
	s := newTestServer(t, nil)
	registerPlatform(t, s, `{"generate": {"clusters": 4, "year": 2006, "seed": 3}}`)
	w := do(s, http.MethodPost, "/v1/platform/events", `{"events": [{"type": "leave", "host": 0}]}`)
	if w.Code != http.StatusPreconditionFailed {
		t.Fatalf("events without reconciler = %d, want 412; body: %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "reconcile-interval") {
		t.Errorf("412 body %q does not say how to enable the reconciler", w.Body.String())
	}
}

// TestSelectStatusLifecycle walks the full loop over HTTP: bind, watch the
// status endpoint, kill the session's clusters through the event stream, and
// observe the transparent rebind plus its release-time report.
func TestSelectStatusLifecycle(t *testing.T) {
	s, rec := newReconcileServer(t)
	registerPlatform(t, s, `{"generate": {"clusters": 24, "year": 2003, "seed": 7}}`)

	w := do(s, http.MethodPost, "/v1/select",
		selectBody(`{"clock_ghz": 2.0, "alternative_clocks": [1.5], "alternative_tolerance": 2}`, `"ttl_seconds": 300`))
	if w.Code != http.StatusOK {
		t.Fatalf("select = %d; body: %s", w.Code, w.Body.String())
	}
	var sel struct {
		LeaseID       string `json:"lease_id"`
		Hosts         []int  `json:"hosts"`
		FallbackDepth int    `json:"fallback_depth"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &sel); err != nil {
		t.Fatalf("decoding select response: %v", err)
	}
	if sel.FallbackDepth != 0 {
		t.Fatalf("setup: fallback depth %d, want 0 so the rebind has rungs left", sel.FallbackDepth)
	}
	origin := sel.LeaseID
	if origin == "" {
		t.Fatalf("select response has no lease_id: %s", w.Body.String())
	}

	w = do(s, http.MethodGet, "/v1/select/"+origin, "")
	if w.Code != http.StatusOK {
		t.Fatalf("status before churn = %d; body: %s", w.Code, w.Body.String())
	}
	var st reconcile.SessionStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	if st.Status != reconcile.StatusBound || st.CurrentLeaseID != origin {
		t.Fatalf("fresh session status %+v, want bound under its own ID", st)
	}

	// Kill every leased host via the public event stream, then run a cycle.
	events := make([]string, len(sel.Hosts))
	for i, h := range sel.Hosts {
		events[i] = fmt.Sprintf(`{"type": "leave", "host": %d}`, h)
	}
	w = do(s, http.MethodPost, "/v1/platform/events", `{"events": [`+strings.Join(events, ",")+`]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("events = %d; body: %s", w.Code, w.Body.String())
	}
	if cs := rec.Cycle(context.Background()); cs.Rebinds != 1 {
		t.Fatalf("cycle stats %+v, want 1 rebind", cs)
	}

	w = do(s, http.MethodGet, "/v1/select/"+origin, "")
	if w.Code != http.StatusOK {
		t.Fatalf("status after churn = %d; body: %s", w.Code, w.Body.String())
	}
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	if st.Status != reconcile.StatusRebound || st.CurrentLeaseID == origin || len(st.Rebinds) != 1 {
		t.Fatalf("session after churn %+v, want a rebound session with history", st)
	}
	// The replacement lease ID resolves to the same session.
	if w := do(s, http.MethodGet, "/v1/select/"+st.CurrentLeaseID, ""); w.Code != http.StatusOK {
		t.Errorf("status by current lease ID = %d; body: %s", w.Code, w.Body.String())
	}

	// Release through the origin handle reports the rebind to the client.
	w = do(s, http.MethodPost, "/v1/release", fmt.Sprintf(`{"lease_id": %q}`, origin))
	if w.Code != http.StatusOK {
		t.Fatalf("release = %d; body: %s", w.Code, w.Body.String())
	}
	var rel struct {
		Released bool   `json:"released"`
		LeaseID  string `json:"lease_id"`
		Rebound  bool   `json:"rebound"`
		Rebinds  int    `json:"rebinds"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &rel); err != nil {
		t.Fatalf("decoding release response: %v", err)
	}
	if !rel.Released || !rel.Rebound || rel.Rebinds != 1 {
		t.Fatalf("release response %+v, want released+rebound", rel)
	}
	// Releasing again is 404: the session is already terminal.
	if w := do(s, http.MethodPost, "/v1/release", fmt.Sprintf(`{"lease_id": %q}`, origin)); w.Code != http.StatusNotFound {
		t.Errorf("double release = %d, want 404; body: %s", w.Code, w.Body.String())
	}
}

func TestSelectStatusFallsBackToBrokerView(t *testing.T) {
	// Without a reconciler the status endpoint still serves the broker's
	// view — the shape untracked recovered leases get after a restart.
	s := newTestServer(t, nil)
	registerPlatform(t, s, `{"generate": {"clusters": 24, "year": 2003, "seed": 7}}`)
	w := do(s, http.MethodPost, "/v1/select", selectBody(`{"clock_ghz": 2.0}`, `"ttl_seconds": 300`))
	if w.Code != http.StatusOK {
		t.Fatalf("select = %d; body: %s", w.Code, w.Body.String())
	}
	var sel struct {
		LeaseID string `json:"lease_id"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &sel); err != nil || sel.LeaseID == "" {
		t.Fatalf("decoding select response (err %v): %s", err, w.Body.String())
	}
	w = do(s, http.MethodGet, "/v1/select/"+sel.LeaseID, "")
	if w.Code != http.StatusOK {
		t.Fatalf("broker-view status = %d; body: %s", w.Code, w.Body.String())
	}
	var st reconcile.SessionStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	if st.Status != reconcile.StatusBound || st.CurrentLeaseID != sel.LeaseID || len(st.Hosts) == 0 {
		t.Fatalf("broker-view status %+v", st)
	}
	if w := do(s, http.MethodGet, "/v1/select/lease-nope", ""); w.Code != http.StatusNotFound {
		t.Errorf("unknown lease status = %d, want 404", w.Code)
	}
}

func TestHealthzReportsLeasesAndReconcile(t *testing.T) {
	s, _ := newReconcileServer(t)
	registerPlatform(t, s, `{"generate": {"clusters": 24, "year": 2003, "seed": 7}}`)
	w := do(s, http.MethodPost, "/v1/select", selectBody(`{"clock_ghz": 2.0}`, `"ttl_seconds": 300`))
	if w.Code != http.StatusOK {
		t.Fatalf("select = %d; body: %s", w.Code, w.Body.String())
	}

	w = do(s, http.MethodGet, "/healthz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("healthz = %d; body: %s", w.Code, w.Body.String())
	}
	var hz struct {
		Leases *struct {
			ActiveLeases int `json:"active_leases"`
			LeasedHosts  int `json:"leased_hosts"`
		} `json:"leases"`
		Reconcile *struct {
			ActiveExclusions int `json:"active_exclusions"`
			TrackedSessions  int `json:"tracked_sessions"`
		} `json:"reconcile"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &hz); err != nil {
		t.Fatalf("decoding healthz: %v", err)
	}
	if hz.Leases == nil || hz.Leases.ActiveLeases != 1 || hz.Leases.LeasedHosts == 0 {
		t.Errorf("healthz leases %+v, want one active lease with hosts", hz.Leases)
	}
	if hz.Reconcile == nil || hz.Reconcile.TrackedSessions != 1 {
		t.Errorf("healthz reconcile %+v, want one tracked session", hz.Reconcile)
	}

	// Without a reconciler the block is absent but occupancy still reports.
	s2 := newTestServer(t, nil)
	w = do(s2, http.MethodGet, "/healthz", "")
	body := w.Body.String()
	if !strings.Contains(body, `"leases"`) || strings.Contains(body, `"reconcile"`) {
		t.Errorf("plain healthz %q, want leases without reconcile", body)
	}
}

func TestReconcileMetricsGatedOnConfig(t *testing.T) {
	s, rec := newReconcileServer(t)
	registerPlatform(t, s, `{"generate": {"clusters": 4, "year": 2006, "seed": 3}}`)
	rec.Cycle(context.Background())
	w := do(s, http.MethodGet, "/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics = %d", w.Code)
	}
	for _, series := range []string{
		"rsgend_reconcile_cycles_total 1",
		"rsgend_reconcile_tracked_sessions 0",
		"rsgend_reconcile_active_exclusions 0",
	} {
		if !strings.Contains(w.Body.String(), series) {
			t.Errorf("metrics missing %q", series)
		}
	}
	// TestMetricsGoldenExposition already pins the absence of the
	// rsgend_reconcile_* families on a server without a reconciler.
}
