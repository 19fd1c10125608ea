// Package service is the serving subsystem behind cmd/rsgend: it exposes
// the Chapter VII specification generator as an HTTP service. The paper's
// end product is exactly service-shaped — a DAG comes in, a resource
// specification in three selector languages comes out — and this package
// adds the production concerns the one-shot CLIs lack:
//
//   - Persistent models: the server is constructed around an already
//     trained spec.Generator (see spec.SaveGenerator/LoadGenerator), so
//     cold start costs a JSON decode, not a training run.
//   - Determinism at any concurrency: responses are cached in a bounded
//     LRU keyed by dag.Key() — a seeded in-process hash of what
//     dag.Fingerprint() hashes — plus every option that affects the output
//     (the same key discipline as internal/eval), and concurrent
//     identical requests are deduplicated through a single-flight group, so
//     the same request returns byte-identical bodies whether it is computed,
//     deduplicated, or replayed from cache.
//   - Bounded resources: a handler concurrency limit, a request body size
//     limit, and a per-request compute deadline.
//
// The handler set is POST /v1/spec, GET /healthz and GET /metrics
// (Prometheus text exposition, including the internal/eval counters).
// Everything is stdlib net/http + encoding/json.
//
// Observability (internal/obs): every request runs under a trace — the
// inbound W3C traceparent header's trace ID when present, random otherwise —
// echoed back in X-Trace-Id and traceparent response headers; pipeline
// stages (decode, generate, select, lease, bind…) record spans into a ring
// buffer served at GET /debug/traces on the operator mux; all metric
// families live in one obs.Registry (service + eval + mounted broker
// series); and a request-scoped slog.Logger carrying the trace ID rides the
// context into the broker.
package service

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"rsgen/internal/broker"
	"rsgen/internal/dag"
	"rsgen/internal/eval"
	"rsgen/internal/knee"
	"rsgen/internal/moga"
	"rsgen/internal/obs"
	"rsgen/internal/reconcile"
	"rsgen/internal/sched"
	"rsgen/internal/spec"
)

// Config parameterizes a Server. The zero value of every field except
// Generator is usable; see the field comments for defaults.
type Config struct {
	// Generator is the trained specification generator (required).
	Generator *spec.Generator
	// MaxBodyBytes bounds the request body; 0 defaults to 1 MiB.
	MaxBodyBytes int64
	// Timeout bounds one specification computation; 0 defaults to 30s.
	// The clock starts when the computation starts, so a request that
	// waited for a concurrency slot still gets the full budget.
	Timeout time.Duration
	// MaxInflight bounds concurrently handled /v1/spec requests; waiting
	// requests block until a slot frees or their client gives up (503).
	// 0 defaults to 64.
	MaxInflight int
	// CacheEntries bounds the response LRU; 0 defaults to 1024.
	CacheEntries int
	// MaxBatchMembers bounds the member count of one POST /v1/spec/batch
	// request; 0 defaults to 256.
	MaxBatchMembers int
	// Workers bounds the evaluation pool used for alternative
	// specifications; 0 uses all cores.
	Workers int
	// BaseCtx is the lifetime of shared computations (deduplicated
	// requests compute under it, not under one client's context); nil
	// defaults to context.Background(). Cancel it on shutdown to abort
	// orphaned work.
	BaseCtx context.Context
	// Broker is the closed-loop selection broker behind /v1/select; nil
	// builds one with default lease/bind settings over the same Generator
	// and Workers.
	Broker *broker.Broker
	// Reconciler, when set, enables the continuous reconciliation loop:
	// POST /v1/platform/events ingestion, GET /v1/select/{id} session
	// status, transparent rebinds reported on release, and the
	// rsgend_reconcile_* metric families. It must wrap the same broker.
	Reconciler *reconcile.Reconciler
	// Recorder, when set, enables the prediction-accuracy flight recorder:
	// the broker's terminal lease events (release, TTL expiry, rebind) feed
	// it, GET /v1/observations serves its ring, the rsgend_accuracy_* and
	// rsgend_model_drift families are mounted, and /healthz grows an
	// accuracy block.
	Recorder *obs.FlightRecorder
	// Moga, when set, enables the multi-objective selection backend: the
	// internally built broker registers it as backend=moga, POST /v1/advise
	// is mounted, and the rsgend_moga_* metric families are registered. A
	// caller passing its own Broker must ALSO set broker.Config.Moga there —
	// advice runs through the broker's moga backend — and should pass the
	// same Config: this field then supplies the /v1/advise default budget
	// and the metrics' Stats, and an advise hands its search to the select
	// that follows only when the two budgets agree.
	Moga *moga.Config
	// Logger receives the service's structured logs (request logs at debug,
	// slow-request warnings); nil discards them.
	Logger *slog.Logger
	// TraceEntries bounds the /debug/traces ring buffer; 0 defaults to 256.
	TraceEntries int
	// SlowRequest is the total duration at or above which a finished
	// request logs a warning with its span breakdown; 0 defaults to 1s,
	// negative disables.
	SlowRequest time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Timeout == 0 {
		c.Timeout = 30 * time.Second
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.MaxBatchMembers == 0 {
		c.MaxBatchMembers = 256
	}
	if c.BaseCtx == nil {
		c.BaseCtx = context.Background()
	}
	if c.Logger == nil {
		c.Logger = obs.Nop
	}
	if c.SlowRequest == 0 {
		c.SlowRequest = time.Second
	}
	return c
}

// Server is the HTTP serving layer over a trained generator. It is safe for
// concurrent use; construct with New and mount it as an http.Handler.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	cache    *responseCache
	flight   eval.Flight[string, []byte]
	metrics  *metrics
	reg      *obs.Registry
	ring     *obs.Ring
	tracer   *obs.Tracer
	brk      *broker.Broker
	rec      *reconcile.Reconciler
	recorder *obs.FlightRecorder
	sem      chan struct{}
	started  time.Time
	draining atomic.Bool

	// computeHook, when set (tests), runs at the start of every leader
	// computation — before the deadline check — so tests can stall or
	// observe the compute path deterministically.
	computeHook func()
}

// New validates the config and assembles the server.
func New(cfg Config) (*Server, error) {
	if cfg.Generator == nil || cfg.Generator.Size == nil || len(cfg.Generator.Size.Models) == 0 {
		return nil, errors.New("service: config needs a generator with a trained size model")
	}
	cfg = cfg.withDefaults()
	if cfg.Moga != nil && cfg.Moga.Stats == nil {
		// Stats must exist before the broker copies the Config into its
		// selector, or searches through /v1/select would go uncounted.
		cfg.Moga.Stats = &moga.Stats{}
	}
	brk := cfg.Broker
	if brk == nil {
		var err error
		brk, err = broker.New(broker.Config{Generator: cfg.Generator, Workers: cfg.Workers, Moga: cfg.Moga})
		if err != nil {
			return nil, err
		}
	}
	cache := newResponseCache(cfg.CacheEntries)
	reg := obs.NewRegistry()
	m := newMetrics(reg, cache)
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		cache:    cache,
		metrics:  m,
		reg:      reg,
		ring:     obs.NewRing(cfg.TraceEntries),
		brk:      brk,
		rec:      cfg.Reconciler,
		recorder: cfg.Recorder,
		sem:      make(chan struct{}, cfg.MaxInflight),
		started:  time.Now(),
	}
	// The broker's families mount after the service+eval prefix, preserving
	// the pre-registry scrape layout; the genuinely new families go last.
	reg.Mount(brk.Registry())
	if s.rec != nil {
		// rsgend_reconcile_* appears in the scrape only when the loop is
		// actually configured, mirroring the durable-store families.
		reg.Mount(s.rec.Registry())
	}
	if s.recorder != nil {
		// rsgend_accuracy_* / rsgend_model_drift appear only with a flight
		// recorder configured, and the broker's terminal lease events start
		// flowing into it.
		reg.Mount(s.recorder.Registry())
		brk.SetObservationSink(s.recorder.Record)
	}
	m.stage = reg.HistogramVec("rsgend_stage_duration_seconds", obs.DefBuckets, "stage")
	reg.IntGaugeFunc("rsgend_draining", func() int64 {
		if s.draining.Load() {
			return 1
		}
		return 0
	})
	registerRuntime(reg)
	if cfg.Moga != nil {
		// rsgend_moga_* appears only when the backend is enabled, like the
		// reconciler families.
		st := cfg.Moga.Stats
		reg.CounterFunc("rsgend_moga_searches_total", func() uint64 { return uint64(st.Searches()) })
		reg.CounterFunc("rsgend_moga_memo_hits_total", func() uint64 { return uint64(st.MemoHits()) })
		reg.CounterFunc("rsgend_moga_evaluations_total", func() uint64 { return uint64(st.Evaluations()) })
		reg.CounterFunc("rsgend_moga_generations_total", func() uint64 { return uint64(st.Generations()) })
		reg.IntGaugeFunc("rsgend_moga_front_size", st.LastFrontSize)
		m.adviseLatency = reg.Histogram("rsgend_moga_advise_duration_seconds", obs.DefBuckets)
	}
	s.tracer = &obs.Tracer{
		Ring:          s.ring,
		OnSpan:        func(name string, d time.Duration) { m.stage.With(name).Observe(d) },
		Logger:        cfg.Logger,
		SlowThreshold: cfg.SlowRequest,
	}
	if s.rec != nil {
		// Reconcile cycles trace into the same ring and stage histograms
		// as requests.
		s.rec.SetTracer(s.tracer)
	}
	s.mux.HandleFunc("POST /v1/spec", s.handleSpec)
	s.mux.HandleFunc("POST /v1/spec/batch", s.handleSpecBatch)
	s.mux.HandleFunc("POST /v1/select", s.handleSelect)
	s.mux.HandleFunc("GET /v1/select/{id}", s.handleSelectStatus)
	s.mux.HandleFunc("POST /v1/release", s.handleRelease)
	s.mux.HandleFunc("PUT /v1/platform", s.handlePlatformPut)
	s.mux.HandleFunc("GET /v1/platform", s.handlePlatformGet)
	s.mux.HandleFunc("POST /v1/platform/events", s.handlePlatformEvents)
	if s.recorder != nil {
		s.mux.HandleFunc("GET /v1/observations", s.handleObservations)
	}
	if cfg.Moga != nil {
		s.mux.HandleFunc("POST /v1/advise", s.handleAdvise)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// Broker returns the selection broker behind /v1/select, so the serving
// binary can start its lease sweeper and drain it on shutdown.
func (s *Server) Broker() *broker.Broker { return s.brk }

// ServeHTTP dispatches to the mux with request accounting: a trace is
// opened (honoring an inbound traceparent) and echoed back in X-Trace-Id
// and traceparent headers before the handler runs, and on completion the
// trace is finished into the ring with the response status.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	ctx, tr := s.tracer.Start(r.Context(), r.Method+" "+r.URL.Path, r.Header.Get("traceparent"))
	lg := s.cfg.Logger.With("trace_id", tr.ID)
	r = r.WithContext(obs.WithLogger(ctx, lg))
	w.Header().Set("X-Trace-Id", tr.ID)
	w.Header().Set("traceparent", tr.Traceparent())
	rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
	s.metrics.inflight.Add(1)
	s.mux.ServeHTTP(rec, r)
	s.metrics.inflight.Add(-1)
	d := time.Since(start)
	s.metrics.observe(metricPath(r.URL.Path), rec.code, d)
	s.tracer.Finish(tr, rec.code)
	lg.Debug("request",
		"method", r.Method, "path", r.URL.Path, "status", rec.code,
		"duration_ms", float64(d.Microseconds())/1000)
}

// metricPath folds unknown paths into one label so arbitrary 404 traffic
// cannot grow the metrics maps without bound. The operator-mux paths are
// whitelisted too: DebugMux routes its traffic through the same accounting.
func metricPath(p string) string {
	switch p {
	case "/v1/spec", "/v1/spec/batch", "/v1/select", "/v1/release",
		"/v1/advise", "/v1/platform", "/v1/platform/events",
		"/v1/observations", "/healthz", "/metrics", "/debug/traces":
		return p
	}
	if strings.HasPrefix(p, "/v1/select/") {
		return "/v1/select/{id}"
	}
	if strings.HasPrefix(p, "/debug/pprof") {
		return "/debug/pprof"
	}
	return "other"
}

// statusRecorder captures the handler's status code for metrics.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// SpecRequest is the POST /v1/spec body less its "dag" member — the workflow
// in the daggen JSON form,
// {"tasks":[{"id":0,"cost":10},…],"edges":[{"from":0,"to":1,"cost":5},…]} —
// which decodeRequest reads in place rather than through this struct.
type SpecRequest struct {
	// Options tune the generation; all fields optional.
	Options SpecOptions `json:"options"`
}

// SpecOptions is the wire form of spec.Options plus the alternative-spec
// request knobs.
type SpecOptions struct {
	Threshold              float64 `json:"threshold,omitempty"`
	UtilityLambda          float64 `json:"utility_lambda,omitempty"`
	ClockGHz               float64 `json:"clock_ghz,omitempty"`
	HeterogeneityTolerance float64 `json:"heterogeneity_tolerance,omitempty"`
	MinMemoryMB            int     `json:"min_memory_mb,omitempty"`
	SCR                    float64 `json:"scr,omitempty"`
	MixedParallel          bool    `json:"mixed_parallel,omitempty"`
	// Heuristic pins the scheduling heuristic instead of predicting it.
	Heuristic string `json:"heuristic,omitempty"`
	// AlternativeClocks, when non-empty, asks for the Chapter VII
	// degraded fallback specs at these slower clock classes (GHz). This
	// runs real evaluation sweeps and is the expensive path the request
	// deadline guards.
	AlternativeClocks []float64 `json:"alternative_clocks,omitempty"`
	// AlternativeTolerance is the acceptable turn-around slack for an
	// alternative (0 defaults to 0.02).
	AlternativeTolerance float64 `json:"alternative_tolerance,omitempty"`
}

// SpecResponse is the POST /v1/spec response body.
type SpecResponse struct {
	Heuristic     string                `json:"heuristic"`
	RCSize        int                   `json:"rc_size"`
	MinClockGHz   float64               `json:"min_clock_ghz"`
	MaxClockGHz   float64               `json:"max_clock_ghz"`
	MinMemoryMB   int                   `json:"min_memory_mb"`
	Threshold     float64               `json:"threshold"`
	MixedParallel bool                  `json:"mixed_parallel,omitempty"`
	VgDL          string                `json:"vgdl"`
	ClassAd       string                `json:"classad"`
	Sword         string                `json:"sword"`
	Alternatives  []AlternativeResponse `json:"alternatives,omitempty"`
}

// AlternativeResponse is one degraded fallback specification.
type AlternativeResponse struct {
	ClockGHz     float64 `json:"clock_ghz"`
	RCSize       int     `json:"rc_size"`
	RelativeSize float64 `json:"relative_size"`
	VgDL         string  `json:"vgdl"`
	ClassAd      string  `json:"classad"`
	Sword        string  `json:"sword"`
}

// errorBody is every non-2xx response's JSON shape.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// handleSpec is POST /v1/spec.
func (s *Server) handleSpec(w http.ResponseWriter, r *http.Request) {
	// Concurrency limit: wait for a slot, bail if the client gives up
	// first.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-r.Context().Done():
		s.metrics.rejected.Add(1)
		writeError(w, http.StatusServiceUnavailable, "server saturated: %v", r.Context().Err())
		return
	}

	_, decSpan := obs.StartSpan(r.Context(), "decode")
	var req SpecRequest
	d, ok := s.readRequest(w, r, decSpan, &req)
	if !ok {
		return
	}
	if err := s.validateOptions(req.Options); err != nil {
		decSpan.EndErr(err)
		writeError(w, http.StatusBadRequest, "invalid options: %v", err)
		return
	}
	decSpan.SetDetail("tasks=%d", len(d.Tasks()))
	decSpan.End()

	out, source, err := s.resolveSpec(r.Context(), d, req.Options, optsKey(req.Options))
	if err != nil {
		if errors.Is(err, errAbandoned) {
			writeError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		writeError(w, specErrStatus(err), "generate: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", xCacheValue(source))
	_, _ = w.Write(out)
}

// How a request's bytes were produced, for headers and batch accounting.
const (
	srcCacheHit  = "cache"       // byte-exact response cache
	srcShapeHit  = "shape-cache" // shape cache: coalesced with a past computation
	srcComputed  = "computed"    // this caller led the computation
	srcShared    = "shared"      // waited on an identical in-flight computation
	srcCoalesced = "coalesced"   // waited on a shape-identical in-flight computation
	srcFallback  = "fallback"    // leader failed; computed independently
)

// errAbandoned marks a caller whose own request context ended while it was
// waiting on a shared in-flight computation.
var errAbandoned = errors.New("request abandoned")

func specErrStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// xCacheValue renders the X-Cache header: anything that had to compute or
// wait is a miss, matching the pre-batch header vocabulary plus the new
// shape-hit value.
func xCacheValue(source string) string {
	switch source {
	case srcCacheHit:
		return "hit"
	case srcShapeHit:
		return "shape-hit"
	}
	return "miss"
}

// coalescible reports whether a request may share bytes with shape-identical
// (isomorphic-modulo-labels) requests. The plain path qualifies: its response
// is a pure function of the DAG's characteristics vector and width, both
// invariant under relabeling. The alternatives path does not — it runs real
// schedule sweeps whose tie-breaking follows task numbering — so it keeps
// byte-exact dedup only.
func coalescible(o SpecOptions) bool { return len(o.AlternativeClocks) == 0 }

// shapeKey keys the canonical form; the prefix keeps the shape keyspace
// disjoint from byte-exact keys (a normal form is itself a valid DAG whose
// exact key must stay distinct).
func shapeKey(nd *dag.DAG, okey string) string { return "shape|" + cacheKey(nd, okey) }

// resolveSpec turns one validated (DAG, options) pair into response bytes,
// through — in order — the byte-exact cache, the shape cache, and the
// single-flight group, computing only when no prior or concurrent identical
// work exists. Coalescible requests are *computed on their canonical form*,
// so a coalesced response is byte-identical to an independent evaluation of
// the same request by construction, not by accident of arrival order.
//
// It is the shared engine of POST /v1/spec and every /v1/spec/batch member;
// rctx carries the caller's trace and cancellation, while leader computation
// runs under the server's BaseCtx+Timeout as before. okey is optsKey(o),
// rendered once per request (or batch member) by the caller.
func (s *Server) resolveSpec(rctx context.Context, d *dag.DAG, o SpecOptions, okey string) (body []byte, source string, err error) {
	exact := cacheKey(d, okey)
	_, cacheSpan := obs.StartSpan(rctx, "cache")
	if body, ok := s.cache.Get(exact); ok {
		cacheSpan.SetDetail("hit=true")
		cacheSpan.End()
		s.metrics.cacheHits.Inc()
		return body, srcCacheHit, nil
	}
	s.metrics.cacheMisses.Inc()

	key, nd := exact, d
	if coalescible(o) {
		nd = d.Normalize()
		key = shapeKey(nd, okey)
		if body, ok := s.cache.Get(key); ok {
			cacheSpan.SetDetail("hit=false shape=true")
			cacheSpan.End()
			s.metrics.coalesceHits.With("cache").Inc()
			// Promote the bytes to this variant's exact key so its next
			// occurrence skips normalization.
			s.cache.Put(exact, body)
			return body, srcShapeHit, nil
		}
	}
	cacheSpan.SetDetail("hit=false")
	cacheSpan.End()

	// Deduplicate concurrent identical (or shape-identical) requests: the
	// leader computes under the server's context (so one client
	// disconnecting cannot fail the rest), followers wait for the shared
	// bytes.
	call, leader := s.flight.Join(key)
	if leader {
		body, err := s.computeResponse(rctx, nd, o)
		if err == nil {
			s.cache.Put(key, body)
			if key != exact {
				s.cache.Put(exact, body)
			}
		}
		s.flight.Finish(key, call, body, err)
		return body, srcComputed, err
	}
	source = srcShared
	if key != exact {
		source = srcCoalesced
		s.metrics.coalesceHits.With("flight").Inc()
	} else {
		s.metrics.dedupShared.Inc()
	}
	_, awaitSpan := obs.StartSpan(rctx, "await")
	if err := call.Wait(rctx); err != nil {
		awaitSpan.EndErr(err)
		return nil, source, fmt.Errorf("%w: %v", errAbandoned, err)
	}
	awaitSpan.End()
	if body, err := call.Result(); err == nil {
		return body, source, nil
	}
	// The leader failed — possibly for a reason particular to its own run
	// (deadline hit under load). Fall back to an independent evaluation so
	// one poisoned leader cannot fail the whole group, mirroring
	// internal/eval's dedup discipline.
	s.metrics.flightFallbacks.Inc()
	body, err = s.computeResponse(rctx, nd, o)
	if err != nil {
		return nil, srcFallback, err
	}
	s.cache.Put(key, body)
	if key != exact {
		s.cache.Put(exact, body)
	}
	return body, srcFallback, nil
}

// effectiveWorkers is the evaluation fan-out width used for batch members
// and alternative sweeps.
func (s *Server) effectiveWorkers() int {
	if s.cfg.Workers > 0 {
		return s.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// validateOptions rejects requests the generator would choke on, so bad
// input is a 400 before any compute is spent.
func (s *Server) validateOptions(o SpecOptions) error {
	switch {
	case o.Threshold < 0:
		return fmt.Errorf("threshold %v < 0", o.Threshold)
	case o.UtilityLambda < 0:
		return fmt.Errorf("utility_lambda %v < 0", o.UtilityLambda)
	case o.ClockGHz < 0:
		return fmt.Errorf("clock_ghz %v < 0", o.ClockGHz)
	case o.HeterogeneityTolerance < 0 || o.HeterogeneityTolerance >= 1:
		return fmt.Errorf("heterogeneity_tolerance %v outside [0,1)", o.HeterogeneityTolerance)
	case o.MinMemoryMB < 0:
		return fmt.Errorf("min_memory_mb %d < 0", o.MinMemoryMB)
	case o.SCR < 0:
		return fmt.Errorf("scr %v < 0", o.SCR)
	case o.AlternativeTolerance < 0:
		return fmt.Errorf("alternative_tolerance %v < 0", o.AlternativeTolerance)
	}
	if o.Heuristic != "" {
		if _, err := sched.ByName(o.Heuristic); err != nil {
			return err
		}
	}
	if o.Threshold > 0 {
		if _, err := s.cfg.Generator.Size.ByThreshold(o.Threshold); err != nil {
			return err
		}
	}
	for _, c := range o.AlternativeClocks {
		if c <= 0 {
			return fmt.Errorf("alternative clock %v <= 0", c)
		}
	}
	return nil
}

// cacheKey identifies a request by the DAG's Key plus every option that
// affects the generated bytes — the internal/eval key discipline applied one
// layer up: "%016x|" of the key, then the options key. A hit is served on
// key equality alone, so the key is seeded per process: unlike the
// Fingerprint, it cannot be steered onto another client's entry.
func cacheKey(d *dag.DAG, okey string) string {
	var k [8]byte
	binary.BigEndian.PutUint64(k[:], d.Key())
	return hex.EncodeToString(k[:]) + "|" + okey
}

// optsKey is the option block's contribution to every cache and coalescing
// key: two requests share results only when every option matches.
func optsKey(o SpecOptions) string {
	return fmt.Sprintf("t%g|u%g|c%g|h%g|m%d|s%g|x%t|H%s|ac%v|at%g",
		o.Threshold, o.UtilityLambda, o.ClockGHz,
		o.HeterogeneityTolerance, o.MinMemoryMB, o.SCR, o.MixedParallel,
		o.Heuristic, o.AlternativeClocks, o.AlternativeTolerance)
}

// computeResponse runs the generator and renders the response bytes. It
// runs under the server's base context bounded by the configured timeout
// (rctx only contributes its trace, so one client disconnecting cannot fail
// the shared computation); generation is deterministic, so recomputing
// after cache eviction yields the same bytes.
func (s *Server) computeResponse(rctx context.Context, d *dag.DAG, o SpecOptions) ([]byte, error) {
	ctx, cancel := context.WithTimeout(s.cfg.BaseCtx, s.cfg.Timeout)
	defer cancel()
	ctx = obs.AdoptTrace(ctx, rctx)
	if s.computeHook != nil {
		s.computeHook()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	_, genSpan := obs.StartSpan(ctx, "generate")
	g := s.cfg.Generator
	sp, err := g.Generate(d, spec.Options{
		Threshold:              o.Threshold,
		UtilityLambda:          o.UtilityLambda,
		ClockGHz:               o.ClockGHz,
		HeterogeneityTolerance: o.HeterogeneityTolerance,
		MinMemoryMB:            o.MinMemoryMB,
		SCRValue:               o.SCR,
		MixedParallel:          o.MixedParallel,
		Heuristic:              o.Heuristic,
	})
	genSpan.EndErr(err)
	if err != nil {
		return nil, err
	}
	resp := SpecResponse{
		Heuristic:     sp.Heuristic,
		RCSize:        sp.RCSize,
		MinClockGHz:   sp.MinClockGHz,
		MaxClockGHz:   sp.MaxClockGHz,
		MinMemoryMB:   sp.MinMemoryMB,
		Threshold:     sp.Threshold,
		MixedParallel: sp.MixedParallel,
		VgDL:          sp.VgDL,
		ClassAd:       sp.ClassAd,
		Sword:         sp.SwordXML,
	}
	if len(o.AlternativeClocks) > 0 {
		tol := o.AlternativeTolerance
		if tol == 0 {
			tol = 0.02
		}
		_, altSpan := obs.StartSpan(ctx, "alternatives")
		altSpan.SetDetail("clocks=%d", len(o.AlternativeClocks))
		sweep := knee.SweepConfig{Ctx: ctx, Workers: s.cfg.Workers}
		alts, err := g.Alternatives(d, sp, o.AlternativeClocks, sweep, tol)
		altSpan.EndErr(err)
		if err != nil {
			return nil, err
		}
		for _, a := range alts {
			resp.Alternatives = append(resp.Alternatives, AlternativeResponse{
				ClockGHz:     a.ClockGHz,
				RCSize:       a.RCSize,
				RelativeSize: a.RelativeSize,
				VgDL:         a.Spec.VgDL,
				ClassAd:      a.Spec.ClassAd,
				Sword:        a.Spec.SwordXML,
			})
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	body, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// BeginDrain marks the server draining: /healthz turns 503 so load
// balancers stop routing new traffic, the rsgend_draining gauge flips to 1,
// and the broker fails new selections fast with ErrDraining. In-flight
// requests finish normally.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	s.brk.BeginDrain()
}

// handleHealthz is GET /healthz: cheap liveness plus model provenance.
// During drain it answers 503 with the in-flight count so orchestrators
// stop routing while the drain empties.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":   "draining",
			"inflight": s.metrics.inflight.Load(),
		})
		return
	}
	g := s.cfg.Generator
	stats := s.brk.LeaseStats()
	body := map[string]any{
		"status":          "ok",
		"size_thresholds": len(g.Size.Models),
		"heuristic_model": g.Heur != nil,
		"eval_workers":    s.effectiveWorkers(),
		"uptime_seconds":  int64(time.Since(s.started).Seconds()),
		"spec_cache": map[string]any{
			"entries":  s.cache.Len(),
			"capacity": s.cfg.CacheEntries,
		},
		// What the broker's store recovered at startup: all zero-valued
		// (durable=false) when running on the in-memory store.
		"store":             s.brk.Recovery(),
		"selector_backends": s.brk.Backends(),
	}
	leases := map[string]any{
		"active_leases": stats.ActiveLeases,
		"leased_hosts":  stats.LeasedHosts,
	}
	if !stats.OldestBoundAt.IsZero() {
		leases["oldest_bound_at"] = stats.OldestBoundAt
		leases["oldest_lease_age_seconds"] = time.Since(stats.OldestBoundAt).Seconds()
	}
	body["leases"] = leases
	if s.rec != nil {
		body["reconcile"] = map[string]any{
			"active_exclusions": s.rec.ActiveExclusions(),
			"tracked_sessions":  s.rec.SessionCount(),
		}
	}
	if s.recorder != nil {
		body["accuracy"] = s.recorder.Accuracy().Snapshot()
	}
	writeJSON(w, http.StatusOK, body)
}

// handleMetrics is GET /metrics: the unified registry's Prometheus text
// exposition — service counters, eval engine counters, the mounted broker
// series, then the observability additions (stage histograms, drain and
// runtime gauges).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.Expose(w)
}
