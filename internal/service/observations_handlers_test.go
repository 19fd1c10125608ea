package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"rsgen/internal/obs"
)

// newObsServer is newTestServer with a flight recorder wired in, which
// mounts GET /v1/observations and the accuracy families.
func newObsServer(t testing.TB) *Server {
	t.Helper()
	return newTestServer(t, func(c *Config) {
		c.Recorder = obs.NewFlightRecorder(0, nil, nil)
	})
}

// bindAndRelease walks one full lease lifecycle over HTTP and returns the
// select response; observedSeconds < 0 skips the release.
func bindAndRelease(t testing.TB, s *Server, observedSeconds float64) SelectResponse {
	t.Helper()
	w := do(s, http.MethodPost, "/v1/select",
		selectBody(`{"clock_ghz": 2.0}`, `"ttl_seconds": 300`))
	if w.Code != http.StatusOK {
		t.Fatalf("POST /v1/select = %d: %s", w.Code, w.Body.String())
	}
	var resp SelectResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding select response: %v", err)
	}
	if observedSeconds >= 0 {
		w = do(s, http.MethodPost, "/v1/release",
			fmt.Sprintf(`{"lease_id": %q, "observed_seconds": %v}`, resp.LeaseID, observedSeconds))
		if w.Code != http.StatusOK {
			t.Fatalf("POST /v1/release = %d: %s", w.Code, w.Body.String())
		}
	}
	return resp
}

func TestObservationsEndpoint(t *testing.T) {
	s := newObsServer(t)
	registerPlatform(t, s, `{"generate": {"clusters": 24, "year": 2003, "seed": 7}}`)

	sel := bindAndRelease(t, s, 42)
	if sel.PredictedTurnAroundSeconds <= 0 {
		t.Errorf("select response predicted_turn_around_seconds = %v, want > 0",
			sel.PredictedTurnAroundSeconds)
	}
	if sel.BoundAt.IsZero() {
		t.Error("select response has no bound_at")
	}

	w := do(s, http.MethodGet, "/v1/observations", "")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /v1/observations = %d: %s", w.Code, w.Body.String())
	}
	var page ObservationsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &page); err != nil {
		t.Fatalf("decoding observations: %v", err)
	}
	if page.Total != 1 || page.Count != 1 || len(page.Observations) != 1 {
		t.Fatalf("page %+v, want exactly the one released lease", page)
	}
	o := page.Observations[0]
	if o.LeaseID != sel.LeaseID || o.EndReason != obs.EndReleased {
		t.Errorf("observation %+v does not match the released lease %s", o, sel.LeaseID)
	}
	if o.PredictedSeconds != sel.PredictedTurnAroundSeconds || o.ObservedSeconds != 42 {
		t.Errorf("observation predicted/observed = %v/%v, want %v/42",
			o.PredictedSeconds, o.ObservedSeconds, sel.PredictedTurnAroundSeconds)
	}
	if len(o.TraceID) != 32 {
		t.Errorf("observation trace_id %q, want the releasing request's 32-hex ID", o.TraceID)
	}

	// Filters: matching backend keeps the row, another drops it; the
	// fingerprint filter round-trips.
	for _, tc := range []struct {
		query string
		want  int
	}{
		{"?backend=" + o.Backend, 1},
		{"?backend=nope", 0},
		{"?fingerprint=" + o.Fingerprint, 1},
		{"?fingerprint=ffffffffffffffff", 0},
		{"?since=2000-01-01T00:00:00Z", 1},
		{"?since=2999-01-01T00:00:00Z", 0},
	} {
		w := do(s, http.MethodGet, "/v1/observations"+tc.query, "")
		if w.Code != http.StatusOK {
			t.Fatalf("GET /v1/observations%s = %d", tc.query, w.Code)
		}
		var p ObservationsResponse
		if err := json.Unmarshal(w.Body.Bytes(), &p); err != nil {
			t.Fatal(err)
		}
		if p.Count != tc.want {
			t.Errorf("%s: count = %d, want %d", tc.query, p.Count, tc.want)
		}
		if p.Observations == nil {
			t.Errorf("%s: observations is null, want [] even when empty", tc.query)
		}
	}

	// Malformed parameters are 400s, not silent defaults.
	for _, q := range []string{"?since=yesterday", "?limit=0", "?limit=x", "?offset=-1"} {
		if w := do(s, http.MethodGet, "/v1/observations"+q, ""); w.Code != http.StatusBadRequest {
			t.Errorf("GET /v1/observations%s = %d, want 400", q, w.Code)
		}
	}
}

func TestObservationsPagination(t *testing.T) {
	s := newObsServer(t)
	registerPlatform(t, s, `{"generate": {"clusters": 24, "year": 2003, "seed": 7}}`)
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, bindAndRelease(t, s, float64(10+i)).LeaseID)
	}
	w := do(s, http.MethodGet, "/v1/observations?limit=2&offset=1", "")
	if w.Code != http.StatusOK {
		t.Fatalf("GET = %d: %s", w.Code, w.Body.String())
	}
	var p ObservationsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if p.Matched != 3 || p.Offset != 1 || p.Count != 2 {
		t.Fatalf("page %+v, want matched=3 offset=1 count=2", p)
	}
	// Newest first: offset 1 of [ids[2], ids[1], ids[0]] is ids[1], ids[0].
	if p.Observations[0].LeaseID != ids[1] || p.Observations[1].LeaseID != ids[0] {
		t.Errorf("page rows %s, %s; want %s, %s",
			p.Observations[0].LeaseID, p.Observations[1].LeaseID, ids[1], ids[0])
	}
}

func TestObservationsRouteAbsentWithoutRecorder(t *testing.T) {
	s := newTestServer(t, nil)
	if w := do(s, http.MethodGet, "/v1/observations", ""); w.Code != http.StatusNotFound {
		t.Errorf("GET /v1/observations without a recorder = %d, want 404", w.Code)
	}
}

func TestHealthzAccuracyAndLeaseAge(t *testing.T) {
	s := newObsServer(t)
	registerPlatform(t, s, `{"generate": {"clusters": 24, "year": 2003, "seed": 7}}`)
	bindAndRelease(t, s, 42)         // scored release
	live := bindAndRelease(t, s, -1) // live lease for the occupancy block

	w := do(s, http.MethodGet, "/healthz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /healthz = %d", w.Code)
	}
	var body struct {
		Leases struct {
			Active                int     `json:"active_leases"`
			OldestBoundAt         string  `json:"oldest_bound_at"`
			OldestLeaseAgeSeconds float64 `json:"oldest_lease_age_seconds"`
		} `json:"leases"`
		Accuracy *obs.AccuracySnapshot `json:"accuracy"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatalf("decoding healthz: %v", err)
	}
	if body.Leases.Active != 1 || body.Leases.OldestBoundAt == "" {
		t.Errorf("healthz leases block %+v, want 1 active with oldest_bound_at", body.Leases)
	}
	if body.Leases.OldestLeaseAgeSeconds < 0 {
		t.Errorf("oldest_lease_age_seconds = %v, want >= 0", body.Leases.OldestLeaseAgeSeconds)
	}
	if body.Accuracy == nil {
		t.Fatal("healthz has no accuracy block")
	}
	if body.Accuracy.Observations != 1 || body.Accuracy.Scored != 1 {
		t.Errorf("accuracy block %+v, want 1 observation, 1 scored", body.Accuracy)
	}

	// The accuracy families are exposed on /metrics.
	m := getMetrics(t, s)
	for _, want := range []string{
		"rsgend_accuracy_observations_total",
		"rsgend_accuracy_scored_total 1",
		"rsgend_model_drift 0",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// GET /v1/select/{id} on the live lease reports when it was bound and
	// how old it is.
	w = do(s, http.MethodGet, "/v1/select/"+live.LeaseID, "")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /v1/select/%s = %d", live.LeaseID, w.Code)
	}
	var st struct {
		BoundAt    string  `json:"bound_at"`
		AgeSeconds float64 `json:"age_seconds"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.BoundAt == "" || st.AgeSeconds < 0 {
		t.Errorf("session status bound_at=%q age_seconds=%v, want a bind time and age", st.BoundAt, st.AgeSeconds)
	}
}
