package service

import (
	"runtime"
	"strconv"
	"time"

	"rsgen/internal/eval"
	"rsgen/internal/obs"
	"rsgen/internal/sched"
)

// metrics holds the service's request instruments, registered on the
// server's obs.Registry. Registration order reproduces the hand-rolled
// exposition this replaced byte-compatibly; the eval families read the
// process-wide eval.Stats counters at scrape time so one scrape covers both
// the HTTP front and the evaluation engine behind it.
type metrics struct {
	requests *obs.CounterVec
	latency  *obs.SummaryVec
	// stage is the per-pipeline-stage latency histogram fed from finished
	// trace spans (rsgend_stage_duration_seconds); registered by New after
	// the broker mount so the legacy series stay a contiguous prefix.
	stage *obs.HistogramVec

	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	dedupShared *obs.Counter
	rejected    *obs.Counter // 503s from the concurrency limiter
	inflight    *obs.Gauge

	// coalesceHits counts requests served by shape coalescing, labeled by
	// where the share happened: kind="cache" (a past computation's bytes
	// under the shape key) or kind="flight" (joined a shape-identical
	// in-flight computation). Byte-exact shares stay in cacheHits and
	// dedupShared; cacheMisses keeps its meaning of "no byte-exact entry".
	coalesceHits *obs.CounterVec
	// flightFallbacks counts followers that recomputed independently after
	// their leader failed.
	flightFallbacks *obs.Counter
	batchRequests   *obs.Counter // POST /v1/spec/batch bodies accepted
	batchMembers    *obs.Counter // members across all accepted batches

	// adviseLatency times POST /v1/advise search runs
	// (rsgend_moga_advise_duration_seconds); registered by New only when the
	// moga backend is enabled, like the reconciler families.
	adviseLatency *obs.Histogram
}

func newMetrics(reg *obs.Registry, cache *eval.LRU[string, []byte]) *metrics {
	m := &metrics{}
	m.requests = reg.CounterVec("rsgend_requests_total", "path", "code")
	m.latency = reg.SummaryVec("rsgend_request_seconds", "path")
	m.cacheHits = reg.Counter("rsgend_spec_cache_hits_total")
	m.cacheMisses = reg.Counter("rsgend_spec_cache_misses_total")
	reg.IntGaugeFunc("rsgend_spec_cache_entries", func() int64 { return int64(cache.Len()) })
	m.dedupShared = reg.Counter("rsgend_dedup_shared_total")
	m.rejected = reg.Counter("rsgend_rejected_total")
	m.inflight = reg.Gauge("rsgend_inflight_requests")

	// Batch + coalescing families (this block sits between the legacy
	// service prefix and the eval families; the broker mount still follows
	// the whole service+eval group).
	reg.CounterFunc("rsgend_spec_cache_evictions_total", cache.Evictions)
	m.coalesceHits = reg.CounterVec("rsgend_coalesce_hits_total", "kind")
	m.flightFallbacks = reg.Counter("rsgend_flight_fallbacks_total")
	m.batchRequests = reg.Counter("rsgend_batch_requests_total")
	m.batchMembers = reg.Counter("rsgend_batch_members_total")

	// The evaluation engine's process-wide counters (internal/eval).
	reg.CounterFunc("rsgend_eval_points_total", func() uint64 { return eval.Snapshot().Points })
	reg.CounterFunc("rsgend_eval_cache_hits_total", func() uint64 { return eval.Snapshot().CacheHits })
	reg.CounterFunc("rsgend_eval_cache_misses_total", func() uint64 { return eval.Snapshot().CacheMisses })
	reg.Func("rsgend_eval_stage_seconds", "counter", func() []obs.Sample {
		s := eval.Snapshot()
		return []obs.Sample{
			{Labels: `{stage="rc_build"}`, Value: obs.FormatFloat(s.RCBuild.Seconds())},
			{Labels: `{stage="schedule"}`, Value: obs.FormatFloat(s.Schedule.Seconds())},
		}
	})
	// Scheduler state-pool effectiveness: gets ≫ allocs means the pooled
	// structures (PR 3) are actually being reused across requests and batch
	// members rather than reallocated.
	reg.CounterFunc("rsgend_sched_state_gets_total", func() uint64 { g, _ := sched.StatePoolStats(); return g })
	reg.CounterFunc("rsgend_sched_state_allocs_total", func() uint64 { _, a := sched.StatePoolStats(); return a })
	return m
}

// observe records one finished request.
func (m *metrics) observe(path string, code int, d time.Duration) {
	m.requests.With(path, strconv.Itoa(code)).Inc()
	m.latency.Observe(d, path)
}

// registerRuntime adds the Go runtime families: goroutine count, heap
// occupancy, and cumulative GC pause time. ReadMemStats stops the world for
// microseconds, which a scrape-rate caller never notices.
func registerRuntime(reg *obs.Registry) {
	reg.IntGaugeFunc("rsgend_go_goroutines", func() int64 { return int64(runtime.NumGoroutine()) })
	reg.IntGaugeFunc("rsgend_go_heap_alloc_bytes", func() int64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	})
	reg.FloatCounterFunc("rsgend_go_gc_pause_seconds_total", func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return time.Duration(ms.PauseTotalNs).Seconds()
	})
	reg.CounterFunc("rsgend_go_gcs_total", func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return uint64(ms.NumGC)
	})
}
