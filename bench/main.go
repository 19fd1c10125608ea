// Command bench is the repository's benchmark: four closed-loop workloads
// against the real rsgend binary for the end-to-end numbers, and a traced
// in-process pass over every package's exported functions for the per-layer
// numbers. See README.md in this directory.
//
//	go run ./bench -seed 1                      # all four workloads, end to end
//	go run ./bench -seed 1 -trace 1             # the traced per-layer pass
//	go run ./bench -seed 1 -repeat 5 -out a.json
//	go run ./bench -compare a.json b.json       # noise-aware regression verdict
//	go run ./bench --workload spec_single --seed 3 --seconds 25 --trace 0
//
// With -workload the last line of standard output is the one-object JSON
// summary BENCHMARK.json's driver reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// setupRepeats is how many times one run boots and prepares a server:
// setup_s is the median, so one slow fork or fsync does not move it.
const setupRepeats = 3

// outDir receives result.json and trace.json (ignored by git).
var outDir = filepath.Join("bench", "out")

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "run one workload (spec_single | spec_batch | lease_cycle | moga_front) and print the driver's JSON line; empty runs all four")
		seed     = fs.Uint64("seed", 1, "seed of every generated input (corpora, platform, observed makespans)")
		seconds  = fs.Int("seconds", 25, "measured window per workload, seconds")
		trace    = fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics; 0 reports the end-to-end metrics")
		repeat   = fs.Int("repeat", 1, "repetitions of each workload (fresh servers each); -compare needs several to judge noise")
		out      = fs.String("out", filepath.Join(outDir, "result.json"), "result document path")
		compare  = fs.Bool("compare", false, "compare two sets of result documents: -compare old.json new.json (each side may be a comma-separated list whose runs are pooled)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result documents: old.json new.json")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *seconds < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -repeat must be at least 1, -trace 0 or 1")
		return 2
	}
	var names []string
	for _, w := range workloads {
		if *workload == "" || *workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}

	art, err := prepareArtefacts()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	dirs, err := newRunDirs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer dirs.cleanup()
	// An interrupted run must not leave servers or their state behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killLiveServers()
		dirs.cleanup()
		os.Exit(130)
	}()

	doc := newResultDoc(*seed, *seconds, *trace == 1, dirs.root)
	var last *workloadRun
	status := 0
	for _, name := range names {
		for rep := 0; rep < *repeat; rep++ {
			r, err := runOnce(art, dirs, name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			doc.add(name, r)
			printTable(os.Stdout, name, r)
			if !r.correct() {
				status = 1
			}
			last = r
		}
	}
	if err := doc.write(*out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("\nresult document: %s\n", *out)
	if *workload != "" {
		if err := printDriverLine(last, *trace == 1); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return status
}

// printDriverLine emits the last line the driver parses: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func printDriverLine(r *workloadRun, traced bool) error {
	specs, set := endToEnd, r.EndToEnd
	if traced {
		specs, set = perLayer, r.PerLayer
	}
	metrics, missing := set.render(specs)
	if len(missing) > 0 {
		return fmt.Errorf("run produced no value for %v", missing)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.correct(),
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runOnce is one full pass over one workload: corpus, repeated set-up, the
// measured window, the after-window checks, and a clean drain. A traced pass
// shortens the window (it only feeds the /metrics deltas) and adds the
// in-process layer replay.
func runOnce(art *artefacts, dirs *runDirs, name string, seed uint64, window time.Duration, traced bool) (*workloadRun, error) {
	t := &tally{}
	start := time.Now()
	corp, err := buildCorpus(name, seed)
	if err != nil {
		return nil, err
	}
	corpusS := time.Since(start).Seconds()

	setups := setupRepeats
	if traced {
		setups = 1
		window /= 2
		if window < 5*time.Second {
			window = 5 * time.Second
		}
	}
	var sess *session
	var setupS []float64
	for rep := 0; rep < setups; rep++ {
		if sess != nil {
			sess.cli.close()
			t.check(sess.srv.stop(), "clean drain after set-up")
		}
		begin := time.Now()
		srv, err := startServer(art, dirs.next())
		if err != nil {
			return nil, err
		}
		sess = newSession(name, seed, corp, srv, t)
		if err := registerPlatform(sess.cli); err != nil {
			srv.kill()
			return nil, err
		}
		if err := sess.prepare(); err != nil {
			srv.kill()
			return nil, err
		}
		setupS = append(setupS, time.Since(begin).Seconds())
	}
	defer func() {
		sess.cli.close()
		sess.srv.kill()
	}()

	w, err := sess.measure(warmupOps[name], window)
	if err != nil {
		return nil, err
	}
	r := &workloadRun{
		EndToEnd:   make(metricSet),
		PerLayer:   make(metricSet),
		Samples:    len(w.latencies),
		CorpusHash: corp.hash(),
	}
	// The gated tail is p95. A traced pass halves the window and gates
	// nothing, so it may fall back to the highest percentile it supports.
	p95, err := percentile(w.latencies, 95)
	r.Percentile = 95
	if err != nil {
		if !traced {
			return nil, fmt.Errorf("window too short for the gated tail: %w", err)
		}
		r.Percentile, p95 = highestPercentile(w.latencies, 90, 75)
	}
	ops := float64(w.ops)
	r.EndToEnd[mSetup] = corpusS + medianOf(setupS)
	r.EndToEnd[mOps] = ops / w.elapsed.Seconds()
	r.EndToEnd[mP50] = median(w.latencies)
	r.EndToEnd[mP95] = p95
	r.EndToEnd[mCPU] = float64(w.serverCPU.Microseconds()) / 1000 / ops
	r.EndToEnd[mRSS] = float64(w.peakRSS) / (1 << 20)

	windowLayers(r.PerLayer, sess, w, art, corpusS)
	if name == wlSpecSingle && r.PerLayer["service.cache_hit_ratio"] > 0.01 {
		t.check(fmt.Errorf("service.cache_hit_ratio %.4f > 0.01", r.PerLayer["service.cache_hit_ratio"]), "spec_single must bypass the cache")
	}

	if name == wlSpecBatch {
		sess.checkBatchMembers()
	}
	if name == wlLeaseCycle || traced {
		restartMS, err := sess.crashAndRecover(art)
		t.check(err, "crash recovery")
		r.PerLayer["durable.restart_ready_ms"] = restartMS
	}
	sess.cli.close()
	t.check(sess.srv.stop(), "clean drain")

	if traced {
		acc, err := tracedPass(r.PerLayer, art, dirs, corp, seed, t)
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		r.Accounted = acc
	}

	for name := range r.PerLayer {
		if !listed(perLayer, name) {
			return nil, fmt.Errorf("run produced %q, which names.go does not list", name)
		}
	}
	r.Attempted, r.Failed, r.Failures = t.attempted, t.failed, t.notes
	r.EndToEnd[mFailShare] = float64(t.failed) / float64(t.attempted)
	return r, nil
}

// windowLayers derives the per-layer numbers that come from the real server:
// deltas of the counters and histograms rsgend already exports, over the
// measured window.
func windowLayers(out metricSet, s *session, w *window, art *artefacts, corpusS float64) {
	d, ops := w.metrics, float64(w.ops)
	kops := ops / 1000
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	hits := d.get("rsgend_spec_cache_hits_total")
	lookups := hits + d.get("rsgend_spec_cache_misses_total")
	out["service.cache_hit_ratio"] = ratio(hits, lookups)
	out["service.coalesce_ratio"] = ratio(d.sum("rsgend_coalesce_hits_total", nil), lookups)
	out["service.dedup_shared_per_kop"] = ratio(d.get("rsgend_dedup_shared_total"), kops)
	out["service.cache_evictions_per_kop"] = ratio(d.get("rsgend_spec_cache_evictions_total"), kops)
	for _, stage := range []string{"decode", "cache", "generate", "members", "select", "lease", "bind", "advise"} {
		sum := d.get(fmt.Sprintf(`rsgend_stage_duration_seconds_sum{stage=%q}`, stage))
		out["service.stage_"+stage+"_ms_per_op"] = ratio(sum*1000, ops)
	}

	// Client latency minus the server's own request time on the primary
	// paths: what HTTP, the loopback and the generator add.
	var srvSum, srvCount float64
	for _, path := range primaryPaths[s.name] {
		srvSum += d.get(fmt.Sprintf(`rsgend_request_seconds_sum{path=%q}`, path))
		srvCount += d.get(fmt.Sprintf(`rsgend_request_seconds_count{path=%q}`, path))
	}
	clientMean := 0.0
	for _, l := range w.latencies {
		clientMean += l
	}
	clientMean /= float64(len(w.latencies))
	out["service.transport_us"] = clientMean*1000 - ratio(srvSum, srvCount)*1e6

	selections := d.get("rsgend_broker_selections_total")
	out["broker.rung_attempts_per_select"] = ratio(d.sum("rsgend_broker_rung_attempts_total", nil), selections)
	depthSum, depthN := 0.0, 0.0
	for _, p := range d.samples {
		if p.Name == "rsgend_broker_fallback_depth_total" {
			var depth float64
			fmt.Sscan(p.Labels["depth"], &depth)
			depthSum += depth * p.Value
			depthN += p.Value
		}
	}
	out["broker.fallback_depth_mean"] = ratio(depthSum, depthN)

	out["durable.wal_append_us"] = ratio(d.get("rsgend_store_wal_append_seconds_sum")*1e6, d.get("rsgend_store_wal_append_seconds_count"))
	out["durable.wal_records_per_op"] = ratio(d.get("rsgend_store_wal_records_total"), ops)
	out["durable.wal_bytes_per_op"] = ratio(d.get("rsgend_store_wal_bytes_total"), ops)
	out["durable.snapshot_ms"] = ratio(d.get("rsgend_store_snapshot_seconds_sum")*1000, d.get("rsgend_store_snapshot_seconds_count"))
	out["durable.snapshots_per_kop"] = ratio(d.get("rsgend_store_snapshots_total"), kops)

	searches := d.get("rsgend_moga_searches_total")
	out["moga.evaluations_per_search"] = ratio(d.get("rsgend_moga_evaluations_total"), searches)
	out["moga.generations_per_search"] = ratio(d.get("rsgend_moga_generations_total"), searches)
	out["moga.front_size"] = w.after.get("rsgend_moga_front_size")

	out["reconcile.cycles"] = d.get("rsgend_reconcile_cycles_total")

	out["process.gc_cycles_per_kop"] = ratio(d.get("rsgend_go_gcs_total"), kops)
	out["process.gc_pause_ms_per_kop"] = ratio(d.get("rsgend_go_gc_pause_seconds_total")*1000, kops)
	out["process.heap_alloc_mb"] = w.after.get("rsgend_go_heap_alloc_bytes") / (1 << 20)
	out["process.goroutines"] = w.after.get("rsgend_go_goroutines")

	out["bench.train_s"] = art.trainS
	out["bench.build_s"] = art.buildS
	out["bench.corpus_s"] = corpusS
	out["bench.boot_ready_ms"] = s.srv.bootMS
	out["bench.samples"] = float64(len(w.latencies))
	_, out["bench.latency_p99_ms"] = highestPercentile(w.latencies, 99, 95)
	out["bench.latency_max_ms"] = w.latencies[len(w.latencies)-1]
	out["bench.client_cpu_share"] = w.clientCPU.Seconds() / (w.elapsed.Seconds() * float64(runtime.NumCPU()))
}

// primaryPaths are the request paths whose latency a workload reports.
var primaryPaths = map[string][]string{
	wlSpecSingle: {"/v1/spec"},
	wlSpecBatch:  {"/v1/spec/batch"},
	wlLeaseCycle: {"/v1/select"},
	wlMogaFront:  {"/v1/advise", "/v1/select"},
}
