package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"rsgen/internal/obs"
)

func getMetrics(t *testing.T, s http.Handler) string {
	t.Helper()
	w := do(s, http.MethodGet, "/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", w.Code)
	}
	return w.Body.String()
}

// maskValues replaces every sample value with •, leaving names, labels and
// TYPE lines — the exposition structure — intact.
func maskValues(exposition string) string {
	valueRe := regexp.MustCompile(` \S+$`)
	lines := strings.Split(strings.TrimRight(exposition, "\n"), "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "#") {
			continue
		}
		lines[i] = valueRe.ReplaceAllString(l, " •")
	}
	return strings.Join(lines, "\n") + "\n"
}

// goldenExposition is the full /metrics structure after exactly one
// /v1/spec (cache miss) and one /healthz request. It pins three contracts
// at once: the legacy service + eval + broker series survive the registry
// migration byte-compatibly and in the legacy order, the broker families
// mount after the eval block, and the observability additions (stage
// histograms, draining, runtime families) come last.
const goldenExposition = `# TYPE rsgend_requests_total counter
rsgend_requests_total{path="/healthz",code="200"} •
rsgend_requests_total{path="/v1/spec",code="200"} •
# TYPE rsgend_request_seconds summary
rsgend_request_seconds_sum{path="/healthz"} •
rsgend_request_seconds_count{path="/healthz"} •
rsgend_request_seconds_sum{path="/v1/spec"} •
rsgend_request_seconds_count{path="/v1/spec"} •
# TYPE rsgend_spec_cache_hits_total counter
rsgend_spec_cache_hits_total •
# TYPE rsgend_spec_cache_misses_total counter
rsgend_spec_cache_misses_total •
# TYPE rsgend_spec_cache_entries gauge
rsgend_spec_cache_entries •
# TYPE rsgend_dedup_shared_total counter
rsgend_dedup_shared_total •
# TYPE rsgend_rejected_total counter
rsgend_rejected_total •
# TYPE rsgend_inflight_requests gauge
rsgend_inflight_requests •
# TYPE rsgend_spec_cache_evictions_total counter
rsgend_spec_cache_evictions_total •
# TYPE rsgend_coalesce_hits_total counter
# TYPE rsgend_flight_fallbacks_total counter
rsgend_flight_fallbacks_total •
# TYPE rsgend_batch_requests_total counter
rsgend_batch_requests_total •
# TYPE rsgend_batch_members_total counter
rsgend_batch_members_total •
# TYPE rsgend_eval_points_total counter
rsgend_eval_points_total •
# TYPE rsgend_eval_cache_hits_total counter
rsgend_eval_cache_hits_total •
# TYPE rsgend_eval_cache_misses_total counter
rsgend_eval_cache_misses_total •
# TYPE rsgend_eval_stage_seconds counter
rsgend_eval_stage_seconds{stage="rc_build"} •
rsgend_eval_stage_seconds{stage="schedule"} •
# TYPE rsgend_sched_state_gets_total counter
rsgend_sched_state_gets_total •
# TYPE rsgend_sched_state_allocs_total counter
rsgend_sched_state_allocs_total •
# TYPE rsgend_broker_rung_attempts_total counter
# TYPE rsgend_broker_fallback_depth_total counter
# TYPE rsgend_broker_selections_total counter
rsgend_broker_selections_total •
# TYPE rsgend_broker_unsatisfied_total counter
rsgend_broker_unsatisfied_total •
# TYPE rsgend_broker_bind_failures_total counter
rsgend_broker_bind_failures_total •
# TYPE rsgend_broker_releases_total counter
rsgend_broker_releases_total •
# TYPE rsgend_broker_inflight_selections gauge
rsgend_broker_inflight_selections •
# TYPE rsgend_broker_active_leases gauge
rsgend_broker_active_leases •
# TYPE rsgend_broker_leased_hosts gauge
rsgend_broker_leased_hosts •
# TYPE rsgend_broker_leases_expired_total counter
rsgend_broker_leases_expired_total •
# TYPE rsgend_stage_duration_seconds histogram
rsgend_stage_duration_seconds_bucket{stage="cache",le="0.0001"} •
rsgend_stage_duration_seconds_bucket{stage="cache",le="0.00025"} •
rsgend_stage_duration_seconds_bucket{stage="cache",le="0.0005"} •
rsgend_stage_duration_seconds_bucket{stage="cache",le="0.001"} •
rsgend_stage_duration_seconds_bucket{stage="cache",le="0.0025"} •
rsgend_stage_duration_seconds_bucket{stage="cache",le="0.005"} •
rsgend_stage_duration_seconds_bucket{stage="cache",le="0.01"} •
rsgend_stage_duration_seconds_bucket{stage="cache",le="0.025"} •
rsgend_stage_duration_seconds_bucket{stage="cache",le="0.05"} •
rsgend_stage_duration_seconds_bucket{stage="cache",le="0.1"} •
rsgend_stage_duration_seconds_bucket{stage="cache",le="0.25"} •
rsgend_stage_duration_seconds_bucket{stage="cache",le="0.5"} •
rsgend_stage_duration_seconds_bucket{stage="cache",le="1"} •
rsgend_stage_duration_seconds_bucket{stage="cache",le="2.5"} •
rsgend_stage_duration_seconds_bucket{stage="cache",le="10"} •
rsgend_stage_duration_seconds_bucket{stage="cache",le="+Inf"} •
rsgend_stage_duration_seconds_sum{stage="cache"} •
rsgend_stage_duration_seconds_count{stage="cache"} •
rsgend_stage_duration_seconds_bucket{stage="decode",le="0.0001"} •
rsgend_stage_duration_seconds_bucket{stage="decode",le="0.00025"} •
rsgend_stage_duration_seconds_bucket{stage="decode",le="0.0005"} •
rsgend_stage_duration_seconds_bucket{stage="decode",le="0.001"} •
rsgend_stage_duration_seconds_bucket{stage="decode",le="0.0025"} •
rsgend_stage_duration_seconds_bucket{stage="decode",le="0.005"} •
rsgend_stage_duration_seconds_bucket{stage="decode",le="0.01"} •
rsgend_stage_duration_seconds_bucket{stage="decode",le="0.025"} •
rsgend_stage_duration_seconds_bucket{stage="decode",le="0.05"} •
rsgend_stage_duration_seconds_bucket{stage="decode",le="0.1"} •
rsgend_stage_duration_seconds_bucket{stage="decode",le="0.25"} •
rsgend_stage_duration_seconds_bucket{stage="decode",le="0.5"} •
rsgend_stage_duration_seconds_bucket{stage="decode",le="1"} •
rsgend_stage_duration_seconds_bucket{stage="decode",le="2.5"} •
rsgend_stage_duration_seconds_bucket{stage="decode",le="10"} •
rsgend_stage_duration_seconds_bucket{stage="decode",le="+Inf"} •
rsgend_stage_duration_seconds_sum{stage="decode"} •
rsgend_stage_duration_seconds_count{stage="decode"} •
rsgend_stage_duration_seconds_bucket{stage="generate",le="0.0001"} •
rsgend_stage_duration_seconds_bucket{stage="generate",le="0.00025"} •
rsgend_stage_duration_seconds_bucket{stage="generate",le="0.0005"} •
rsgend_stage_duration_seconds_bucket{stage="generate",le="0.001"} •
rsgend_stage_duration_seconds_bucket{stage="generate",le="0.0025"} •
rsgend_stage_duration_seconds_bucket{stage="generate",le="0.005"} •
rsgend_stage_duration_seconds_bucket{stage="generate",le="0.01"} •
rsgend_stage_duration_seconds_bucket{stage="generate",le="0.025"} •
rsgend_stage_duration_seconds_bucket{stage="generate",le="0.05"} •
rsgend_stage_duration_seconds_bucket{stage="generate",le="0.1"} •
rsgend_stage_duration_seconds_bucket{stage="generate",le="0.25"} •
rsgend_stage_duration_seconds_bucket{stage="generate",le="0.5"} •
rsgend_stage_duration_seconds_bucket{stage="generate",le="1"} •
rsgend_stage_duration_seconds_bucket{stage="generate",le="2.5"} •
rsgend_stage_duration_seconds_bucket{stage="generate",le="10"} •
rsgend_stage_duration_seconds_bucket{stage="generate",le="+Inf"} •
rsgend_stage_duration_seconds_sum{stage="generate"} •
rsgend_stage_duration_seconds_count{stage="generate"} •
# TYPE rsgend_draining gauge
rsgend_draining •
# TYPE rsgend_go_goroutines gauge
rsgend_go_goroutines •
# TYPE rsgend_go_heap_alloc_bytes gauge
rsgend_go_heap_alloc_bytes •
# TYPE rsgend_go_gc_pause_seconds_total counter
rsgend_go_gc_pause_seconds_total •
# TYPE rsgend_go_gcs_total counter
rsgend_go_gcs_total •
`

func TestMetricsGoldenExposition(t *testing.T) {
	s := newTestServer(t, nil)
	if w := post(s, specBody("")); w.Code != http.StatusOK {
		t.Fatalf("POST /v1/spec = %d", w.Code)
	}
	if w := do(s, http.MethodGet, "/healthz", ""); w.Code != http.StatusOK {
		t.Fatalf("GET /healthz = %d", w.Code)
	}
	got := maskValues(getMetrics(t, s))
	if got != goldenExposition {
		t.Errorf("masked exposition drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, goldenExposition)
	}
}

// expositionLineRe matches one sample line: name, optional label set with
// properly quoted values, and a numeric value.
var expositionLineRe = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\\\|\\"|\\n)*"(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\\\|\\"|\\n)*")*\})? (-?[0-9.eE+\-]+|\+Inf|NaN)$`)

// TestExpositionLint machine-checks the whole scrape after mixed traffic:
// every line parses, no family declares # TYPE or # HELP twice, histogram
// buckets are in increasing le order ending at +Inf, and bucket counts are
// cumulative.
func TestExpositionLint(t *testing.T) {
	s := newTestServer(t, nil)
	registerPlatform(t, s, `{"generate": {"clusters": 24, "year": 2003, "seed": 7}}`)
	if w := post(s, specBody("")); w.Code != http.StatusOK {
		t.Fatalf("POST /v1/spec = %d", w.Code)
	}
	post(s, specBody("")) // cache hit
	do(s, http.MethodPost, "/v1/select",
		selectBody(`{"clock_ghz": 2.8, "alternative_clocks": [2.0], "alternative_tolerance": 2}`, ""))
	do(s, http.MethodGet, "/nope", "") // 404 → "other"
	text := getMetrics(t, s)

	seenType := map[string]bool{}
	var bucketFamily string // family currently emitting buckets
	var lastLe float64
	var lastCum uint64
	endBuckets := func() {
		if bucketFamily != "" && lastLe != -1 {
			t.Errorf("family %s bucket run ended without le=\"+Inf\"", bucketFamily)
		}
		bucketFamily = ""
	}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP") {
			t.Errorf("unexpected HELP line (none were emitted pre-registry): %q", line)
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			endBuckets()
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Errorf("malformed TYPE line %q", line)
				continue
			}
			name, typ := parts[2], parts[3]
			if seenType[name] {
				t.Errorf("duplicate # TYPE for family %s", name)
			}
			seenType[name] = true
			switch typ {
			case "counter", "gauge", "summary", "histogram":
			default:
				t.Errorf("unknown type %q in %q", typ, line)
			}
			continue
		}
		if !expositionLineRe.MatchString(line) {
			t.Errorf("unparseable sample line %q", line)
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		if strings.HasSuffix(name, "_bucket") {
			series := line[:strings.LastIndex(line, `,le="`)]
			if series != bucketFamily {
				endBuckets()
				bucketFamily, lastLe, lastCum = series, -1, 0
			}
			leStr := line[strings.LastIndex(line, `le="`)+4 : strings.LastIndex(line, `"`)]
			cum, err := strconv.ParseUint(line[strings.LastIndex(line, " ")+1:], 10, 64)
			if err != nil {
				t.Errorf("non-integer bucket count in %q", line)
				continue
			}
			if cum < lastCum {
				t.Errorf("bucket counts not cumulative at %q", line)
			}
			lastCum = cum
			if leStr == "+Inf" {
				lastLe = -1 // run complete
				continue
			}
			le, err := strconv.ParseFloat(leStr, 64)
			if err != nil {
				t.Errorf("bad le value in %q", line)
				continue
			}
			if lastLe != -1 && le <= lastLe && lastLe != 0 {
				t.Errorf("bucket le out of order at %q (prev %g)", line, lastLe)
			}
			lastLe = le
		} else {
			endBuckets()
		}
	}
	endBuckets()
}

// TestTraceRoundTrip drives POST /v1/select with an inbound W3C traceparent
// and asserts the same trace ID comes back in X-Trace-Id, that the span
// tree in the ring covers the pipeline stages, and that the stage durations
// fit inside the request wall time.
func TestTraceRoundTrip(t *testing.T) {
	s := newTestServer(t, nil)
	registerPlatform(t, s, `{"generate": {"clusters": 24, "year": 2003, "seed": 7}}`)

	const traceID = "11112222333344445555666677778888"
	req := httptest.NewRequest(http.MethodPost, "/v1/select", strings.NewReader(
		selectBody(`{"clock_ghz": 2.8, "alternative_clocks": [2.0], "alternative_tolerance": 2}`, "")))
	req.Header.Set("traceparent", "00-"+traceID+"-aaaabbbbccccdddd-01")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("POST /v1/select = %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Trace-Id"); got != traceID {
		t.Errorf("X-Trace-Id = %q, want the inbound trace ID %q", got, traceID)
	}
	if tp := w.Header().Get("traceparent"); !strings.HasPrefix(tp, "00-"+traceID+"-") {
		t.Errorf("outbound traceparent %q does not continue the inbound trace", tp)
	}

	var rec *obs.TraceRecord
	for _, r := range s.ring.Snapshot() {
		if r.ID == traceID {
			rec = r
		}
	}
	if rec == nil {
		t.Fatal("trace not recorded in the ring")
	}
	stages := map[string]bool{}
	var topLevelNS int64
	for _, sp := range rec.Spans {
		stages[sp.Name] = true
		if sp.DurNS < 0 || sp.StartNS < 0 || sp.StartNS+sp.DurNS > rec.DurNS {
			t.Errorf("span %s [%d, +%d] escapes the request window of %dns", sp.Name, sp.StartNS, sp.DurNS, rec.DurNS)
		}
		if sp.Parent == 0 {
			topLevelNS += sp.DurNS
		}
	}
	for _, want := range []string{"decode", "generate", "select", "lease", "bind"} {
		if !stages[want] {
			t.Errorf("span tree missing stage %q (have %v)", want, stages)
		}
	}
	if topLevelNS > rec.DurNS {
		t.Errorf("top-level spans sum to %dns > request wall time %dns", topLevelNS, rec.DurNS)
	}

	// The same request must have fed the stage histograms.
	metrics := getMetrics(t, s)
	for _, stage := range []string{"decode", "generate", "select", "lease", "bind"} {
		if !strings.Contains(metrics, `rsgend_stage_duration_seconds_count{stage="`+stage+`"} `) {
			t.Errorf("stage histogram missing stage %q", stage)
		}
	}
}

func TestSelectConflictCarriesTraceID(t *testing.T) {
	s := newTestServer(t, nil)
	registerPlatform(t, s, `{"generate": {"clusters": 24, "year": 2003, "seed": 7}}`)
	// 2.8 GHz with no alternatives is unsatisfiable on a 2003 platform.
	w := do(s, http.MethodPost, "/v1/select", selectBody(`{"clock_ghz": 2.8}`, ""))
	if w.Code != http.StatusConflict {
		t.Fatalf("POST /v1/select = %d, want 409: %s", w.Code, w.Body.String())
	}
	var body struct {
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.TraceID == "" || body.TraceID != w.Header().Get("X-Trace-Id") {
		t.Errorf("409 trace_id = %q, want the response's X-Trace-Id %q", body.TraceID, w.Header().Get("X-Trace-Id"))
	}
}

func TestDrainObservability(t *testing.T) {
	s := newTestServer(t, nil)
	if w := do(s, http.MethodGet, "/healthz", ""); w.Code != http.StatusOK {
		t.Fatalf("pre-drain /healthz = %d", w.Code)
	}
	if m := getMetrics(t, s); !strings.Contains(m, "rsgend_draining 0\n") {
		t.Error("pre-drain scrape missing rsgend_draining 0")
	}

	s.BeginDrain()
	w := do(s, http.MethodGet, "/healthz", "")
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("draining /healthz = %d, want 503", w.Code)
	}
	var body struct {
		Status   string `json:"status"`
		Inflight *int64 `json:"inflight"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "draining" || body.Inflight == nil {
		t.Errorf("draining health body = %s", w.Body.String())
	}
	m := getMetrics(t, s)
	if !strings.Contains(m, "rsgend_draining 1\n") {
		t.Error("draining scrape missing rsgend_draining 1")
	}
	if !strings.Contains(m, "rsgend_inflight_requests ") {
		t.Error("scrape missing rsgend_inflight_requests")
	}
	// The broker must reject new selections while draining.
	if w := do(s, http.MethodPost, "/v1/select", selectBody("", "")); w.Code != http.StatusServiceUnavailable {
		t.Errorf("draining /v1/select = %d, want 503", w.Code)
	}
}

func TestMetricPathFolds(t *testing.T) {
	cases := map[string]string{
		"/v1/spec":                "/v1/spec",
		"/healthz":                "/healthz",
		"/debug/traces":           "/debug/traces",
		"/debug/pprof/":           "/debug/pprof",
		"/debug/pprof/profile":    "/debug/pprof",
		"/nope":                   "other",
		"/v1/spec/deeper":         "other",
		"/debug/traces/extra":     "other",
		"/totally/made/up/path/x": "other",
	}
	for in, want := range cases {
		if got := metricPath(in); got != want {
			t.Errorf("metricPath(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestUnknownPathsFoldIntoOther(t *testing.T) {
	s := newTestServer(t, nil)
	for _, p := range []string{"/nope", "/also/nope", "/x"} {
		do(s, http.MethodGet, p, "")
	}
	m := getMetrics(t, s)
	if !strings.Contains(m, `rsgend_requests_total{path="other",code="404"} 3`) {
		t.Errorf("404 traffic not folded into one label:\n%s", m)
	}
	if strings.Contains(m, `path="/nope"`) {
		t.Error("unknown path leaked into metric labels")
	}
}

// TestDebugMuxTracesAndAccounting exercises the operator mux: /debug/traces
// serves the ring as JSON and operator traffic lands in the request
// counters under the folded path labels.
func TestDebugMuxTracesAndAccounting(t *testing.T) {
	s := newTestServer(t, nil)
	if w := post(s, specBody("")); w.Code != http.StatusOK {
		t.Fatalf("POST /v1/spec = %d", w.Code)
	}
	dbg := DebugMux(s)

	w := httptest.NewRecorder()
	dbg.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/traces", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("GET /debug/traces = %d", w.Code)
	}
	var doc struct {
		Held   int               `json:"held"`
		Recent []obs.TraceRecord `json:"recent"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/debug/traces not JSON: %v", err)
	}
	if doc.Held < 1 || len(doc.Recent) < 1 {
		t.Errorf("/debug/traces empty after a traced request: %s", w.Body.String())
	}

	w = httptest.NewRecorder()
	dbg.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/pprof/cmdline", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("GET /debug/pprof/cmdline = %d", w.Code)
	}

	m := getMetrics(t, s)
	for _, series := range []string{
		`rsgend_requests_total{path="/debug/pprof",code="200"} 1`,
		`rsgend_requests_total{path="/debug/traces",code="200"} 1`,
	} {
		if !strings.Contains(m, series) {
			t.Errorf("operator traffic not accounted: missing %q", series)
		}
	}
	// The public server must NOT serve the trace ring.
	if w := do(s, http.MethodGet, "/debug/traces", ""); w.Code == http.StatusOK {
		t.Error("public handler serves /debug/traces — operator endpoint leaked")
	}
}

// TestEveryResponseCarriesTraceID walks every mounted public route —
// success, client error, method-not-allowed, and unmatched paths alike —
// and asserts each response carries an X-Trace-Id header. A row per route
// keeps this honest: a new handler that bypasses the trace middleware
// fails here, not in production.
func TestEveryResponseCarriesTraceID(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Recorder = obs.NewFlightRecorder(0, nil, nil)
	})
	cases := []struct {
		method, path, body string
		want               int
	}{
		// Happy paths (before a platform is registered where possible).
		{http.MethodPost, "/v1/spec", specBody(""), http.StatusOK},
		{http.MethodPost, "/v1/spec/batch", `{"requests": [` + specBody("") + `]}`, http.StatusOK},
		{http.MethodGet, "/v1/observations", "", http.StatusOK},
		{http.MethodGet, "/healthz", "", http.StatusOK},
		{http.MethodGet, "/metrics", "", http.StatusOK},
		// Client errors.
		{http.MethodPost, "/v1/spec", "{not json", http.StatusBadRequest},
		{http.MethodPost, "/v1/spec/batch", "", http.StatusBadRequest},
		{http.MethodPost, "/v1/select", selectBody("", ""), http.StatusPreconditionFailed},
		{http.MethodGet, "/v1/select/lease-00000001", "", http.StatusNotFound},
		{http.MethodPost, "/v1/release", `{"lease_id": "nope"}`, http.StatusNotFound},
		{http.MethodPut, "/v1/platform", "{not json", http.StatusBadRequest},
		{http.MethodGet, "/v1/platform", "", http.StatusNotFound},
		{http.MethodPost, "/v1/platform/events", "{}", http.StatusPreconditionFailed},
		// /v1/advise is mounted only with an advisor backend; unmounted it
		// falls through to the mux 404, which must still be traced.
		{http.MethodPost, "/v1/advise", selectBody("", ""), http.StatusNotFound},
		{http.MethodGet, "/v1/observations?limit=x", "", http.StatusBadRequest},
		// Method mismatches and unmatched paths fall to the mux's own
		// error responses, which must still be traced.
		{http.MethodGet, "/v1/spec", "", http.StatusMethodNotAllowed},
		{http.MethodDelete, "/healthz", "", http.StatusMethodNotAllowed},
		{http.MethodGet, "/nope", "", http.StatusNotFound},
	}
	for _, tc := range cases {
		w := do(s, tc.method, tc.path, tc.body)
		if w.Code != tc.want {
			t.Errorf("%s %s = %d, want %d: %s", tc.method, tc.path, w.Code, tc.want, w.Body.String())
		}
		if id := w.Header().Get("X-Trace-Id"); len(id) != 32 {
			t.Errorf("%s %s (%d): X-Trace-Id = %q, want a 32-hex ID", tc.method, tc.path, w.Code, id)
		}
	}
}
