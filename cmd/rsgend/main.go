// Command rsgend serves the Chapter VII specification generator over HTTP.
//
// Train once, persist the models, then serve them without retraining:
//
//	rsgend -train -models models.json -scale quick   # ~10s of CPU, better models
//	rsgend -train -models models.json -scale smoke   # ~1s of CPU, smoke tests
//	rsgend -models models.json -addr :8080
//
// Serve mode exposes:
//
//	POST /v1/spec     {"dag": {...}, "options": {...}} → generated specification
//	PUT  /v1/platform {"generate": {...}} → register a synthetic inventory
//	GET  /v1/platform inventory summary + lease occupancy (404 before PUT)
//	POST /v1/select   closed-loop selection: spec ladder → select → lease → bind
//	GET  /v1/select/{id}      session status: current lease, health, rebind history
//	POST /v1/platform/events  {"events": [...]} → host churn / load / clock drift
//	POST /v1/release  {"lease_id": "..."} → free a lease's hosts (reports rebinds)
//	POST /v1/advise   what-if advisor: the full Pareto front over predicted
//	                  turn-around / dollar cost / power / fragmentation,
//	                  without taking a lease (404 with -moga=false)
//	GET  /v1/observations  prediction-accuracy flight recorder: every lease's
//	                  terminal event (release / expiry / rebind) with the
//	                  promised vs observed makespan (filters: backend,
//	                  fingerprint, since; paginated)
//	GET  /healthz     liveness + model provenance + registered selector backends
//	GET  /metrics     Prometheus text exposition (requests, latencies, caches,
//	                  broker rung attempts, fallback depth, lease occupancy)
//
// /v1/select answers 412 until an inventory is registered, 409 (with the
// per-rung trace) when no rung of the specification ladder can be satisfied,
// 503 while draining, and 504 on deadline; successes carry an
// X-Fallback-Depth header (0 = the optimal specification was fulfilled).
//
// The continuous reconciler (on by default; tune with -reconcile-interval,
// disable with 0) owns every lease handed out by /v1/select: it folds the
// platform event stream into per-lease health monitors, probes clusters
// whose queue waits exceed -probe-timeout, and when a lease's resources
// stall it transparently re-selects down the specification ladder — the
// client's lease ID keeps resolving via GET /v1/select/{id} while the hosts
// underneath are swapped atomically.
//
// With -state-dir the broker's state (registered inventory, inventory
// generation, host leases) persists across restarts in a write-ahead log
// plus snapshots under that directory: after a crash the server recovers
// pre-crash leases before binding its listener, so their hosts are never
// double-bound, and a graceful drain folds the log into one final
// snapshot. Without the flag everything lives in memory, exactly as
// before the flag existed.
//
// With -obs-dir every terminal lease event is additionally appended to a
// size-capped JSONL observation log in that directory; the in-memory ring
// behind GET /v1/observations, the rsgend_accuracy_* metric families, and
// the rsgend_model_drift drift detector run either way.
//
// With -debug-addr a second, operator-only listener additionally serves
// net/http/pprof and GET /debug/traces — the span-level breakdown of recent
// and slowest requests — plus /healthz and /metrics on a separate mux;
// these endpoints are never mounted on the public -addr listener.
//
// Every response carries X-Trace-Id (honoring an inbound W3C traceparent
// header), and -log-level/-log-format/-slow-request control the structured
// logs the service emits to stderr.
//
// SIGINT/SIGTERM drain in-flight requests and selections (bounded by -drain)
// and exit 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rsgen"
	"rsgen/internal/broker"
	"rsgen/internal/broker/durable"
	"rsgen/internal/moga"
	"rsgen/internal/obs"
	"rsgen/internal/reconcile"
	"rsgen/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("rsgend", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		train       = fs.Bool("train", false, "train models, write them to -models, and exit")
		scale       = fs.String("scale", "quick", "training scale: quick | smoke")
		seed        = fs.Uint64("seed", 1, "training seed")
		modelsPath  = fs.String("models", "", "model artifact path (written by -train, read by serve mode)")
		addr        = fs.String("addr", ":8080", "listen address (use :0 for an ephemeral port)")
		maxBody     = fs.Int64("max-body", 1<<20, "request body size limit in bytes")
		timeout     = fs.Duration("timeout", 30*time.Second, "per-request compute deadline")
		maxInflight = fs.Int("max-inflight", 64, "handler concurrency limit")
		maxBatch    = fs.Int("max-batch", 256, "member limit for one POST /v1/spec/batch request")
		workers     = fs.Int("j", 0, "evaluation workers for batch members, alternative specs and moga generation scoring (0 = all cores); /healthz reports the effective count")
		leaseTTL    = fs.Duration("lease-ttl", 5*time.Minute, "default host-lease lifetime for /v1/select")
		stateDir    = fs.String("state-dir", "", "directory for durable broker state (WAL + snapshots); empty serves from memory only")
		obsDir      = fs.String("obs-dir", "", "directory for the prediction-accuracy observation log (append-only JSONL, size-capped rotation); empty keeps observations in memory only")
		leaseSweep  = fs.Duration("lease-sweep", 30*time.Second, "background lease-expiry sweep interval; with -state-dir also the longest a release waits for an fsync")
		recEvery    = fs.Duration("reconcile-interval", 5*time.Second, "continuous-reconciler cycle period (0 disables the closed loop)")
		probeWindow = fs.Duration("probe-timeout", time.Hour, "expected-progress window: clusters whose probed queue wait exceeds this are declared stalled and rebound around")
		drain       = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
		debugAddr   = fs.String("debug-addr", "", "operator-only listen address for net/http/pprof, /debug/traces, /healthz and /metrics (e.g. 127.0.0.1:6060); never exposed on -addr")
		logLevel    = fs.String("log-level", "info", "log verbosity: debug | info | warn | error")
		logFormat   = fs.String("log-format", "text", "log encoding: text | json")
		slowReq     = fs.Duration("slow-request", time.Second, "log a warning with the span breakdown for requests at least this slow (0 disables)")
		traceSize   = fs.Int("trace-entries", 256, "finished request traces held for /debug/traces")
		mogaOn      = fs.Bool("moga", true, "register the multi-objective (NSGA-II) selection backend and mount POST /v1/advise")
		cacheSize   = fs.Int("spec-cache-size", 1024, "response cache entries (LRU over rendered bodies)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *modelsPath == "" {
		fmt.Fprintln(os.Stderr, "rsgend: -models <file> is required (train it with -train)")
		return 2
	}

	if *train {
		if err := trainAndSave(*modelsPath, *scale, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "rsgend:", err)
			return 1
		}
		return 0
	}

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rsgend:", err)
		return 2
	}
	slowThreshold := *slowReq
	if slowThreshold == 0 {
		slowThreshold = -1 // Config treats 0 as "default", negative as off
	}

	gen, trainSeconds, err := loadModels(*modelsPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rsgend:", err)
		return 1
	}
	if trainSeconds > 0 {
		fmt.Fprintf(os.Stderr, "rsgend: loaded models from %s (skipped ~%.1fs of training)\n", *modelsPath, trainSeconds)
	}

	baseCtx, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	// Crash recovery runs before the listener binds: a client that can
	// reach the server never races the replay.
	var store broker.Store
	if *stateDir != "" {
		st, err := durable.Open(*stateDir, durable.Options{Logger: logger})
		if err != nil {
			fmt.Fprintln(os.Stderr, "rsgend:", err)
			return 1
		}
		store = st
		rec := st.Recovery()
		fmt.Fprintf(os.Stderr,
			"rsgend: recovered state from %s (snapshot=%v, wal records=%d, torn bytes=%d, leases=%d live/%d expired, inventory=%v)\n",
			*stateDir, rec.SnapshotLoaded, rec.RecordsReplayed, rec.TornTailBytes,
			rec.LeasesRecovered-rec.LeasesExpired, rec.LeasesExpired, rec.InventoryRecovered)
		logger.Info("state recovered", "dir", *stateDir,
			"snapshot", rec.SnapshotLoaded, "wal_records", rec.RecordsReplayed,
			"torn_tail_bytes", rec.TornTailBytes, "leases_recovered", rec.LeasesRecovered,
			"leases_expired", rec.LeasesExpired, "inventory", rec.InventoryRecovered)
	}
	// One moga.Config (and one Stats) is shared by the broker's selector and
	// the service's /v1/advise handler, so backend=moga selections and
	// advisories count into the same rsgend_moga_* families, score their
	// generations across the same -j workers, and search under the same
	// default budget, which lets a select reuse the search of the advise
	// before it.
	var mogaCfg *moga.Config
	if *mogaOn {
		mogaCfg = &moga.Config{Stats: &moga.Stats{}, Workers: *workers}
	}
	brk, err := broker.New(broker.Config{
		Generator: gen,
		Workers:   *workers,
		LeaseTTL:  *leaseTTL,
		Store:     store,
		Moga:      mogaCfg,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rsgend:", err)
		return 1
	}
	if store != nil {
		// Runs after the drain paths below: a graceful exit folds the WAL
		// into one final snapshot, so the next start replays nothing.
		defer store.Close()
	}
	// The flight recorder always runs (in-memory ring, accuracy series,
	// GET /v1/observations); -obs-dir additionally persists every
	// observation as JSONL.
	var obsLog *obs.ObsLog
	if *obsDir != "" {
		obsLog, err = obs.OpenObsLog(*obsDir, obs.ObsLogOptions{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "rsgend:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "rsgend: observation log at %s\n", obsLog.Path())
	}
	recorder := obs.NewFlightRecorder(0, obsLog, logger)
	defer recorder.Close()
	stopSweeper := brk.StartSweeper(*leaseSweep)
	defer stopSweeper()
	var rec *reconcile.Reconciler
	if *recEvery > 0 {
		rec, err = reconcile.New(reconcile.Config{
			Broker:      brk,
			Interval:    *recEvery,
			ProbeWindow: *probeWindow,
			Logger:      logger,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "rsgend:", err)
			return 1
		}
	}
	srv, err := service.New(service.Config{
		Generator:       gen,
		MaxBodyBytes:    *maxBody,
		Timeout:         *timeout,
		MaxInflight:     *maxInflight,
		MaxBatchMembers: *maxBatch,
		CacheEntries:    *cacheSize,
		Workers:         *workers,
		BaseCtx:         baseCtx,
		Broker:          brk,
		Reconciler:      rec,
		Recorder:        recorder,
		Moga:            mogaCfg,
		Logger:          logger,
		TraceEntries:    *traceSize,
		SlowRequest:     slowThreshold,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rsgend:", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rsgend:", err)
		return 1
	}
	// Print the resolved address so scripts using :0 can find the port.
	fmt.Fprintf(os.Stderr, "rsgend: listening on http://%s\n", ln.Addr())

	var stopReconciler func()
	if rec != nil {
		// Start after service.New so cycles trace into the service tracer.
		stopReconciler = rec.Start()
		defer stopReconciler()
		fmt.Fprintf(os.Stderr, "rsgend: reconciler running (interval %v, probe window %v)\n", *recEvery, *probeWindow)
	}

	if *debugAddr != "" {
		// The pprof handlers live on their own mux and listener: they leak
		// heap contents and must never ride on the public -addr handler.
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rsgend:", err)
			return 1
		}
		dbg := &http.Server{Handler: service.DebugMux(srv)}
		go func() {
			if err := dbg.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "rsgend: debug listener:", err)
			}
		}()
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "rsgend: debug endpoints (pprof) on http://%s/debug/pprof/\n", dln.Addr())
	}

	httpSrv := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "rsgend: %v: draining (budget %v)\n", sig, *drain)
		logger.Info("draining", "signal", sig.String(), "budget", drain.String())
		// Shutdown order: stop the reconciler first so no cycle starts a
		// rebind against a draining broker, then stop admitting new
		// selections (also flips /healthz to 503 and the rsgend_draining
		// gauge to 1), then drain the HTTP layer (which waits for in-flight
		// handlers, selections included), then wait out any selection still
		// running off-handler.
		if stopReconciler != nil {
			stopReconciler()
		}
		srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			// Drain budget exceeded: abort the stragglers' computations.
			cancelBase()
			_ = httpSrv.Close()
			fmt.Fprintln(os.Stderr, "rsgend: drain incomplete:", err)
			return 1
		}
		if err := brk.Drain(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "rsgend: broker drain incomplete:", err)
			return 1
		}
		fmt.Fprintln(os.Stderr, "rsgend: drained, exiting")
		return 0
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "rsgend:", err)
			return 1
		}
		return 0
	}
}

// trainAndSave trains at the requested scale and writes the versioned
// artifact.
func trainAndSave(path, scale string, seed uint64) error {
	var (
		gen *rsgen.Generator
		err error
	)
	start := time.Now()
	switch scale {
	case "quick":
		gen, err = rsgen.QuickGenerator(seed)
	case "smoke":
		gen, err = rsgen.TinyGenerator(seed)
	default:
		return fmt.Errorf("unknown -scale %q (quick | smoke)", scale)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rsgen.SaveGenerator(f, gen, elapsed.Seconds()); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "rsgend: trained %s models in %v, wrote %s\n", scale, elapsed.Round(time.Millisecond), path)
	return nil
}

func loadModels(path string) (*rsgen.Generator, float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return rsgen.LoadGenerator(f)
}
