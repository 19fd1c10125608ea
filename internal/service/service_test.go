package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rsgen/internal/dag"
	"rsgen/internal/heurpred"
	"rsgen/internal/knee"
	"rsgen/internal/spec"
)

// testGenerator trains one tiny model pair for the whole test binary
// (training is deterministic, so sharing it cannot couple tests).
var testGenerator = sync.OnceValues(func() (*spec.Generator, error) {
	size, err := knee.Train(knee.TrainConfig{
		Sizes:      []int{30, 80},
		CCRs:       []float64{0.1, 0.5},
		Alphas:     []float64{0.4, 0.7},
		Betas:      []float64{0.2, 0.8},
		Reps:       1,
		Density:    0.5,
		MeanCost:   40,
		Thresholds: knee.Thresholds,
		Seed:       7,
	})
	if err != nil {
		return nil, err
	}
	heur, err := heurpred.Train(heurpred.TrainConfig{
		Sizes:  []int{30, 80},
		CCRs:   []float64{0.1},
		Alphas: []float64{0.5},
		Betas:  []float64{0.5},
		Reps:   1,
		Seed:   8,
	})
	if err != nil {
		return nil, err
	}
	return &spec.Generator{Size: size, Heur: heur}, nil
})

func newTestServer(t testing.TB, mutate func(*Config)) *Server {
	t.Helper()
	gen, err := testGenerator()
	if err != nil {
		t.Fatalf("training test generator: %v", err)
	}
	cfg := Config{Generator: gen}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// testDAGJSON is a small valid request DAG (a diamond).
const testDAGJSON = `{"tasks":[{"id":0,"cost":10},{"id":1,"cost":12},{"id":2,"cost":8},{"id":3,"cost":9}],
"edges":[{"from":0,"to":1,"cost":2},{"from":0,"to":2,"cost":2},{"from":1,"to":3,"cost":1},{"from":2,"to":3,"cost":1}]}`

func specBody(opts string) string {
	if opts == "" {
		opts = "{}"
	}
	return fmt.Sprintf(`{"dag": %s, "options": %s}`, testDAGJSON, opts)
}

func post(s http.Handler, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/spec", strings.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func TestHandlerErrors(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxBodyBytes = 4096 })
	cases := []struct {
		name string
		body string
		want int
	}{
		{"bad json", "{not json", http.StatusBadRequest},
		{"empty body", "", http.StatusBadRequest},
		{"no dag", `{"options": {}}`, http.StatusBadRequest},
		{"invalid dag (cycle)", `{"dag": {"tasks":[{"id":0,"cost":1},{"id":1,"cost":1}],"edges":[{"from":0,"to":1,"cost":1},{"from":1,"to":0,"cost":1}]}}`, http.StatusBadRequest},
		{"oversized body", specBody(`{"heuristic": "` + strings.Repeat("A", 5000) + `"}`), http.StatusRequestEntityTooLarge},
		{"unknown heuristic", specBody(`{"heuristic": "NOPE"}`), http.StatusBadRequest},
		{"unknown threshold", specBody(`{"threshold": 0.42}`), http.StatusBadRequest},
		{"negative clock", specBody(`{"clock_ghz": -1}`), http.StatusBadRequest},
		{"het out of range", specBody(`{"heterogeneity_tolerance": 1.5}`), http.StatusBadRequest},
		{"bad alternative clock", specBody(`{"alternative_clocks": [0]}`), http.StatusBadRequest},
		{"ok", specBody(""), http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := post(s, tc.body)
			if w.Code != tc.want {
				t.Fatalf("status = %d, want %d; body: %s", w.Code, tc.want, w.Body.String())
			}
			if w.Code != http.StatusOK {
				var e errorBody
				if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
					t.Errorf("error body not {\"error\": …}: %q", w.Body.String())
				}
			}
		})
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := newTestServer(t, nil)
	req := httptest.NewRequest(http.MethodGet, "/v1/spec", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/spec = %d, want 405", w.Code)
	}
}

func TestTimeout(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Timeout = time.Millisecond })
	s.computeHook = func() { time.Sleep(50 * time.Millisecond) }
	w := post(s, specBody(""))
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body: %s", w.Code, w.Body.String())
	}
}

func TestPinnedHeuristicAndOptions(t *testing.T) {
	s := newTestServer(t, nil)
	w := post(s, specBody(`{"heuristic": "FCFS", "clock_ghz": 2.5, "heterogeneity_tolerance": 0.2, "min_memory_mb": 2048}`))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	var resp SpecResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Heuristic != "FCFS" {
		t.Errorf("heuristic = %q, want pinned FCFS", resp.Heuristic)
	}
	if resp.MaxClockGHz != 2.5 || resp.MinMemoryMB != 2048 {
		t.Errorf("options not honored: %+v", resp)
	}
	if resp.RCSize < 1 || resp.VgDL == "" || resp.ClassAd == "" || resp.Sword == "" {
		t.Errorf("incomplete specification: %+v", resp)
	}
}

// TestByteIdenticalUnderConcurrency is the cache-determinism contract: 16
// parallel clients posting the same request all get byte-identical bodies,
// and a subsequent request is a visible cache hit.
func TestByteIdenticalUnderConcurrency(t *testing.T) {
	s := newTestServer(t, nil)
	const clients = 16
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := post(s, specBody(""))
			if w.Code != http.StatusOK {
				t.Errorf("client %d: status %d: %s", i, w.Code, w.Body.String())
				return
			}
			bodies[i] = w.Body.Bytes()
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("client %d body differs:\n%s\nvs\n%s", i, bodies[0], bodies[i])
		}
	}
	// One more serial request must be a cache hit with the same bytes.
	w := post(s, specBody(""))
	if got := w.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(bodies[0], w.Body.Bytes()) {
		t.Error("cache replay differs from computed body")
	}
	// And the hit must be visible in /metrics.
	mw := httptest.NewRecorder()
	s.ServeHTTP(mw, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if mw.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", mw.Code)
	}
	metrics := mw.Body.String()
	if !strings.Contains(metrics, "rsgend_spec_cache_hits_total") {
		t.Errorf("metrics missing cache hit counter:\n%s", metrics)
	}
	if strings.Contains(metrics, "rsgend_spec_cache_hits_total 0\n") {
		t.Errorf("cache hits still zero after a replayed request:\n%s", metrics)
	}
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/healthz = %d", w.Code)
	}
	var h map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h["status"] != "ok" {
		t.Errorf("status = %v", h["status"])
	}
	if n, ok := h["size_thresholds"].(float64); !ok || n < 1 {
		t.Errorf("size_thresholds = %v", h["size_thresholds"])
	}
	// The in-memory store reports no persistence and nothing recovered.
	store, ok := h["store"].(map[string]any)
	if !ok {
		t.Fatalf("store = %v, want recovery object", h["store"])
	}
	if store["durable"] != false {
		t.Errorf("store.durable = %v on the in-memory store, want false", store["durable"])
	}
}

// TestGracefulShutdownDrains starts a real http.Server, parks a request
// inside the compute path, initiates Shutdown, and asserts the shutdown
// blocks until the in-flight request completes successfully.
func TestGracefulShutdownDrains(t *testing.T) {
	s := newTestServer(t, nil)
	entered := make(chan struct{})
	release := make(chan struct{})
	var hookOnce sync.Once
	s.computeHook = func() {
		hookOnce.Do(func() {
			close(entered)
			<-release
		})
	}

	ts := httptest.NewServer(s)
	defer ts.Close()

	type result struct {
		status int
		body   []byte
		err    error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/spec", "application/json", strings.NewReader(specBody("")))
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resc <- result{status: resp.StatusCode, body: buf.Bytes()}
	}()

	<-entered // request is now inside compute

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- ts.Config.Shutdown(ctx)
	}()

	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) while a request was still in flight", err)
	case <-time.After(100 * time.Millisecond):
		// Still draining, as it should be.
	}

	close(release)
	res := <-resc
	if res.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", res.err)
	}
	if res.status != http.StatusOK {
		t.Fatalf("in-flight request = %d during drain: %s", res.status, res.body)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown after drain: %v", err)
	}
}

// TestConcurrencyLimit saturates a 1-slot server and asserts a waiter whose
// client gives up gets a 503 instead of hanging.
func TestConcurrencyLimit(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxInflight = 1 })
	entered := make(chan struct{})
	release := make(chan struct{})
	var hookOnce sync.Once
	s.computeHook = func() {
		hookOnce.Do(func() {
			close(entered)
			<-release
		})
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		post(s, specBody("")) // occupies the only slot
	}()
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/spec", strings.NewReader(specBody(`{"clock_ghz": 2.0}`))).WithContext(ctx)
	w := httptest.NewRecorder()
	go func() { time.Sleep(20 * time.Millisecond); cancel() }()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated server returned %d, want 503", w.Code)
	}
	close(release)
	<-done
}

// TestCacheLRUEviction checks the server's response cache as New builds it:
// CacheEntries bounds it, and a Get refreshes recency so the least recently
// used response is the one evicted.
func TestCacheLRUEviction(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.CacheEntries = 2 })
	c := s.cache
	c.Put("a", []byte("A"))
	c.Put("b", []byte("B"))
	if _, ok := c.Get("a"); !ok { // refresh a
		t.Fatal("a missing")
	}
	c.Put("c", []byte("C")) // should evict b (LRU)
	if _, ok := c.Get("b"); ok {
		t.Error("b not evicted")
	}
	if v, ok := c.Get("a"); !ok || string(v) != "A" {
		t.Error("a lost")
	}
	if v, ok := c.Get("c"); !ok || string(v) != "C" {
		t.Error("c lost")
	}
	if c.Len() != 2 || c.Evictions() != 1 {
		t.Errorf("len %d, evictions %d; want 2, 1", c.Len(), c.Evictions())
	}
}

func TestArtifactRoundTripThroughService(t *testing.T) {
	gen, err := testGenerator()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := spec.SaveGenerator(&buf, gen, 1.5); err != nil {
		t.Fatal(err)
	}
	loaded, trainSeconds, err := spec.LoadGenerator(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if trainSeconds != 1.5 {
		t.Errorf("train seconds = %v, want 1.5", trainSeconds)
	}

	// A server over the loaded artifact must produce the same bytes as a
	// server over the in-memory generator: persistence cannot perturb
	// predictions.
	s1 := newTestServer(t, nil)
	s2, err := New(Config{Generator: loaded})
	if err != nil {
		t.Fatal(err)
	}
	b1 := post(s1, specBody(""))
	b2 := post(s2, specBody(""))
	if b1.Code != http.StatusOK || b2.Code != http.StatusOK {
		t.Fatalf("status %d / %d", b1.Code, b2.Code)
	}
	if !bytes.Equal(b1.Body.Bytes(), b2.Body.Bytes()) {
		t.Errorf("loaded-artifact response differs from in-memory response:\n%s\nvs\n%s", b1.Body.String(), b2.Body.String())
	}
}

// TestDagDecodeMatchesIO pins the request DAG wire format to internal/dag's.
func TestDagDecodeMatchesIO(t *testing.T) {
	d, err := dag.Decode(strings.NewReader(testDAGJSON))
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() != 4 {
		t.Errorf("size = %d", d.Size())
	}
}

func TestDebugMux(t *testing.T) {
	srv := newTestServer(t, nil)
	mux := DebugMux(srv)
	for _, path := range []string{"/debug/pprof/", "/healthz", "/metrics"} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Errorf("GET %s on debug mux: status %d", path, w.Code)
		}
	}
	// The public server must NOT expose the profiling endpoints.
	req := httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code == http.StatusOK {
		t.Fatal("public handler serves /debug/pprof/ — profiling endpoints leaked onto the public listener")
	}
	// Nil server: pprof only.
	req = httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil)
	w = httptest.NewRecorder()
	DebugMux(nil).ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Errorf("nil-server debug mux: status %d", w.Code)
	}
}
