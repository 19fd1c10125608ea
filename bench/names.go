package main

// The names in this file are the benchmark's public vocabulary: the workload
// and metric names printed by every mode, listed in BENCHMARK.json, and
// matched by -compare. TestBenchmarkJSONMatchesCode keeps the two in step.

// workloadSpec names one traffic mix and records why it exists.
type workloadSpec struct {
	Name string
	Why  string
}

const (
	wlSpecSingle = "spec_single"
	wlSpecBatch  = "spec_batch"
	wlLeaseCycle = "lease_cycle"
	wlMogaFront  = "moga_front"
)

var workloads = []workloadSpec{
	{wlSpecSingle, "1 client, POST /v1/spec, 640 distinct 400-task DAGs cycled: exceeds the 1024-entry cache, so decode/normalize/generate do all the work (cache bypassed)"},
	{wlSpecBatch, "1 client, POST /v1/spec/batch, 32 x 40-task members, unique:shape-dup:byte-dup 1:12:7 over 128 shapes: dedup, shape coalescing and the batch renderer do the work (cache used)"},
	{wlLeaseCycle, "2 clients, POST /v1/select then /v1/release on 40-task DAGs with 64 leases pre-held plus load events: broker, WAL, bind, reconciler and flight recorder do the work"},
	{wlMogaFront, "1 client, 64-task DAGs, alternating POST /v1/advise with a moga-backend select and release: the NSGA-II search and the scheduler objective do the work"},
}

// metricSpec is one reported number. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics carry
// none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	Bound  float64
	// Moves names the end-to-end metric and workload this per-layer number
	// is expected to move; the table prints it beside the value.
	Moves string
}

const (
	mSetup     = "setup_s"
	mOps       = "ops_per_s"
	mP50       = "latency_p50_ms"
	mP95       = "latency_p95_ms"
	mCPU       = "server_cpu_ms_per_op"
	mRSS       = "server_rss_peak_mb"
	mFailShare = "failed_share"
)

// endToEnd are the gated metrics of BENCHMARK.json. failed_share is reported
// beside them but rides in the driver line's attempted/failed counts: its
// healthy value is 0, and a bound expressed as a share of 0 gates nothing.
var endToEnd = []metricSpec{
	{Name: mSetup, Unit: "s", Better: "lower", Bound: 0.25},
	{Name: mOps, Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: mP50, Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: mP95, Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: mCPU, Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: mRSS, Unit: "MB", Better: "lower", Bound: 0.15},
}

var failedShare = metricSpec{Name: mFailShare, Unit: "ratio", Better: "lower"}

const (
	onSingle = "latency_p50_ms, server_cpu_ms_per_op on spec_single"
	onBatch  = "ops_per_s on spec_batch"
	onLease  = "latency_p50_ms, ops_per_s on lease_cycle"
	onLeaseT = "latency_p95_ms on lease_cycle"
	onMoga   = "latency_p50_ms, ops_per_s, server_cpu_ms_per_op on moga_front"
	onAll    = "server_cpu_ms_per_op on every workload (small)"
	onP95    = "latency_p95_ms, server_cpu_ms_per_op on spec_single"
	attrib   = "attributes latency_p50_ms of the traced workload"
	ofBench  = "describes the run, moves nothing"
)

func layer(name, unit, better, moves string) metricSpec {
	return metricSpec{Name: name, Unit: unit, Better: better, Moves: moves}
}

// perLayer lists every ungated per-layer metric, in table order.
var perLayer = []metricSpec{
	layer("dag.decode_us", "us", "lower", onSingle),
	layer("dag.decode_allocs", "count", "lower", onSingle),
	layer("dag.normalize_us", "us", "lower", onSingle+"; "+onBatch),
	layer("dag.fingerprint_us", "us", "lower", onSingle+"; "+onBatch),
	layer("dag.characteristics_us", "us", "lower", onSingle),
	layer("spec.generate_us", "us", "lower", "server_cpu_ms_per_op on spec_single"),
	layer("spec.generate_allocs", "count", "lower", "server_cpu_ms_per_op on spec_single"),
	layer("spec.alternatives_ms", "ms", "lower", "none of the four workloads asks for alternatives; published cost"),

	layer("service.spec_miss_us", "us", "lower", onSingle),
	layer("service.spec_hit_us", "us", "lower", onBatch),
	layer("service.spec_shape_hit_us", "us", "lower", onBatch),
	layer("service.batch32_ms", "ms", "lower", "latency_p50_ms on spec_batch"),
	layer("service.select_us", "us", "lower", onLease),
	layer("service.release_us", "us", "lower", "ops_per_s on lease_cycle"),
	layer("service.advise_ms", "ms", "lower", onMoga),
	layer("service.events32_us", "us", "lower", onLeaseT),
	layer("service.self_share", "ratio", "lower", attrib),
	layer("service.transport_us", "us", "lower", "latency_p50_ms on every workload"),
	layer("service.cache_hit_ratio", "ratio", "higher", onBatch+"; must stay 0 on spec_single"),
	layer("service.coalesce_ratio", "ratio", "higher", onBatch+"; must stay 0 on spec_single"),
	layer("service.dedup_shared_per_kop", "count", "higher", onBatch),
	layer("service.cache_evictions_per_kop", "count", "lower", onBatch),
	layer("service.stage_decode_ms_per_op", "ms", "lower", attrib),
	layer("service.stage_cache_ms_per_op", "ms", "lower", attrib),
	layer("service.stage_generate_ms_per_op", "ms", "lower", attrib),
	layer("service.stage_members_ms_per_op", "ms", "lower", attrib),
	layer("service.stage_select_ms_per_op", "ms", "lower", attrib),
	layer("service.stage_lease_ms_per_op", "ms", "lower", attrib),
	layer("service.stage_bind_ms_per_op", "ms", "lower", attrib),
	layer("service.stage_advise_ms_per_op", "ms", "lower", attrib),

	layer("vgdl.find_us", "us", "lower", onLease),
	layer("classad.match_us", "us", "lower", "latency_p50_ms on lease_cycle when the classad backend is asked for"),
	layer("sword.select_us", "us", "lower", "latency_p50_ms on lease_cycle when the sword backend is asked for"),
	layer("bind.bind_us", "us", "lower", onLease),
	layer("sched.schedule_bound_rc_us", "us", "lower", onLease+"; select half of moga_front"),

	layer("broker.select_mem_us", "us", "lower", onLease),
	layer("broker.select_durable_us", "us", "lower", onLease),
	layer("broker.select_moga_ms", "ms", "lower", onMoga),
	layer("broker.release_mem_us", "us", "lower", onLease),
	layer("broker.release_durable_us", "us", "lower", onLease),
	layer("broker.store_leased_us", "us", "lower", onLease),
	layer("broker.store_acquire_us", "us", "lower", onLease),
	layer("broker.store_release_us", "us", "lower", onLease),
	layer("broker.store_swap_us", "us", "lower", onLeaseT+" (rebinds only)"),
	layer("broker.rung_attempts_per_select", "ratio", "lower", onLease),
	layer("broker.fallback_depth_mean", "count", "lower", onLease),

	layer("durable.acquire_us", "us", "lower", onLease+" (minus broker.store_acquire_us = fsync floor)"),
	layer("durable.release_us", "us", "lower", onLease),
	layer("durable.swap_us", "us", "lower", onLeaseT+" (rebinds only)"),
	layer("durable.wal_append_us", "us", "lower", onLease),
	layer("durable.wal_records_per_op", "count", "lower", onLease),
	layer("durable.wal_bytes_per_op", "B", "lower", onLease),
	layer("durable.snapshot_ms", "ms", "lower", onLeaseT),
	layer("durable.snapshots_per_kop", "count", "lower", onLeaseT),
	layer("durable.open_recover_ms", "ms", "lower", "setup_s after a crash"),
	layer("durable.restart_ready_ms", "ms", "lower", "setup_s after a crash"),

	layer("moga.search_ms", "ms", "lower", onMoga),
	layer("moga.search_clamped_ms", "ms", "lower", "worst case a client can ask of /v1/advise"),
	layer("moga.search_allocs", "count", "lower", onMoga),
	layer("moga.evaluations_per_search", "count", "lower", onMoga),
	layer("moga.generations_per_search", "count", "lower", onMoga),
	layer("moga.front_size", "count", "higher", "advice quality on moga_front"),

	layer("reconcile.ingest32_us", "us", "lower", onLeaseT),
	layer("reconcile.cycle_ms", "ms", "lower", onLeaseT),
	layer("reconcile.cycles", "count", "lower", onLeaseT),

	layer("obs.expose_us", "us", "lower", onAll),
	layer("obs.accuracy_record_ns", "ns", "lower", onAll),
	layer("obs.recorder_record_mem_ns", "ns", "lower", onAll),
	layer("obs.recorder_record_log_us", "us", "lower", "ops_per_s on lease_cycle: the cost of -obs-dir"),
	layer("obs.span_ns", "ns", "lower", onAll),

	layer("platform.generate_ms", "ms", "lower", "setup_s"),

	layer("process.gc_cycles_per_kop", "count", "lower", onP95),
	layer("process.gc_pause_ms_per_kop", "ms", "lower", onP95),
	layer("process.heap_alloc_mb", "MB", "lower", "server_rss_peak_mb"),
	layer("process.goroutines", "count", "lower", "server_rss_peak_mb"),

	layer("bench.train_s", "s", "lower", ofBench),
	layer("bench.build_s", "s", "lower", ofBench),
	layer("bench.corpus_s", "s", "lower", "setup_s"),
	layer("bench.boot_ready_ms", "ms", "lower", "setup_s"),
	layer("bench.samples", "count", "higher", ofBench),
	layer("bench.latency_p99_ms", "ms", "lower", ofBench),
	layer("bench.latency_max_ms", "ms", "lower", ofBench),
	layer("bench.client_cpu_share", "ratio", "lower", ofBench),
	layer("bench.trace_overhead_share", "ratio", "lower", ofBench),
}

// value is one measured number as the driver line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects measured values by metric name.
type metricSet map[string]float64

// render pairs every listed metric with its unit. A metric the run did not
// produce is an error: the driver expects the full list.
func (m metricSet) render(specs []metricSpec) (map[string]value, []string) {
	out := make(map[string]value, len(specs))
	var missing []string
	for _, s := range specs {
		v, ok := m[s.Name]
		if !ok {
			missing = append(missing, s.Name)
			continue
		}
		out[s.Name] = value{Value: v, Unit: s.Unit}
	}
	return out, missing
}

func listed(specs []metricSpec, name string) bool {
	for _, s := range specs {
		if s.Name == name {
			return true
		}
	}
	return false
}
