package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"rsgen"
	"rsgen/internal/bind"
	"rsgen/internal/broker"
	"rsgen/internal/broker/durable"
	"rsgen/internal/classad"
	"rsgen/internal/dag"
	"rsgen/internal/knee"
	"rsgen/internal/moga"
	"rsgen/internal/obs"
	"rsgen/internal/platform"
	"rsgen/internal/reconcile"
	"rsgen/internal/sched"
	"rsgen/internal/service"
	"rsgen/internal/spec"
	"rsgen/internal/sword"
	"rsgen/internal/vgdl"
	"rsgen/internal/xrand"
)

// Operations replayed per workload by the traced pass: the first 256 of the
// workload's fixed sequence (32 for moga_front, 32 requests = 1024 member
// specs for spec_batch). Each is sent whole through Server.ServeHTTP with
// spans off, then the same sequence is run decomposed into calls on each
// layer's exported functions with spans on.
var replayOps = map[string]int{
	wlSpecSingle: 256,
	wlSpecBatch:  32,
	wlLeaseCycle: 256,
	wlMogaFront:  32,
}

// stack is cmd/rsgend's production wiring, in process: one generator, one
// platform, a broker over the given store, the reconciler (stepped by hand,
// never started), the flight recorder and the HTTP server.
type stack struct {
	gen   *spec.Generator
	p     *platform.Platform
	grid  *bind.Grid
	store broker.Store
	brk   *broker.Broker
	rec   *reconcile.Reconciler
	fr    *obs.FlightRecorder
	mcfg  *moga.Config
	srv   *service.Server
}

func newStack(gen *spec.Generator, p *platform.Platform, store broker.Store, log *obs.ObsLog) (*stack, error) {
	st := &stack{gen: gen, p: p, grid: bind.DedicatedGrid(p), store: store, mcfg: &moga.Config{Stats: &moga.Stats{}}}
	var err error
	if st.brk, err = broker.New(broker.Config{Generator: gen, Store: store, Moga: st.mcfg}); err != nil {
		return nil, err
	}
	st.fr = obs.NewFlightRecorder(0, log, nil)
	if st.rec, err = reconcile.New(reconcile.Config{Broker: st.brk}); err != nil {
		return nil, err
	}
	st.srv, err = service.New(service.Config{
		Generator: gen, Broker: st.brk, Reconciler: st.rec, Recorder: st.fr, Moga: st.mcfg,
	})
	if err != nil {
		return nil, err
	}
	if err := st.brk.RegisterInventory(p, st.grid); err != nil {
		return nil, err
	}
	return st, nil
}

// serve sends one request through the handler chain without a socket.
func (st *stack) serve(method, path string, body []byte) (int, http.Header, []byte, time.Duration) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	start := time.Now()
	st.srv.ServeHTTP(w, req)
	d := time.Since(start)
	return w.Code, w.Header(), w.Body.Bytes(), d
}

// mustServe insists on a 200 and returns the body and the handler time.
func (st *stack) mustServe(path string, body []byte) ([]byte, time.Duration, error) {
	code, _, out, d := st.serve(http.MethodPost, path, body)
	if code != http.StatusOK {
		return nil, d, fmt.Errorf("in-process POST %s: status %d: %s", path, code, truncate(out))
	}
	return out, d, nil
}

// preHold takes the same 64 long leases the real workloads run under.
func (st *stack) preHold(corp *corpus) error {
	for i := 0; i < heldLeases; i++ {
		if _, _, err := st.mustServe("/v1/select", heldLeaseBody(corp.dags[i%len(corp.dags)])); err != nil {
			return err
		}
	}
	return nil
}

// tracer is the traced pass's working state.
type tracer struct {
	rec     *recorder
	dur     *stack // broker on durable.Open + observation log: the production path
	mem     *stack // broker on MemStore, no log: the cost of -state-dir/-obs-dir by difference
	corp    map[string]*corpus
	seed    uint64
	out     metricSet
	handler map[string][]float64 // per workload: handler time per op, us, no spans
	opRange map[string][2]int    // decomposed operation identifiers per workload
	kind    map[string][]float64 // handler time by request kind, us
	self    map[int]int64        // span self times, once the replays are over
}

// tracedPass is the separate single-process pass behind every per-layer
// number that is not a /metrics delta. It fills out, writes trace.json, and
// returns per workload the share of the handler median that the layers plus
// the service's own time explain. asked is the corpus of the workload the run
// was for; service.self_share and the span overhead are reported for it.
func tracedPass(out metricSet, art *artefacts, dirs *runDirs, asked *corpus, seed uint64, t *tally) (map[string]float64, error) {
	f, err := os.Open(art.models)
	if err != nil {
		return nil, err
	}
	gen, _, err := rsgen.LoadGenerator(f)
	f.Close()
	if err != nil {
		return nil, err
	}

	tr := &tracer{
		rec: newRecorder(), seed: seed, out: out,
		corp:    make(map[string]*corpus),
		handler: make(map[string][]float64),
		opRange: make(map[string][2]int), kind: make(map[string][]float64),
	}
	tr.corp[asked.workload] = asked
	for _, w := range workloads {
		if tr.corp[w.Name] != nil {
			continue
		}
		if tr.corp[w.Name], err = buildCorpus(w.Name, seed); err != nil {
			return nil, err
		}
	}

	gspec := platform.GenSpec{Clusters: platformClusters, Year: platformYear}
	var p *platform.Platform
	out["platform.generate_ms"] = timeEach(3, func(int) {
		p, err = platform.Generate(gspec, xrand.New(platformSeed))
	}) / 1e6
	if err != nil {
		return nil, err
	}

	dir := dirs.next()
	dstore, err := durable.Open(filepath.Join(dir, "state"), durable.Options{})
	if err != nil {
		return nil, err
	}
	defer dstore.Close()
	olog, err := obs.OpenObsLog(filepath.Join(dir, "obs"), obs.ObsLogOptions{})
	if err != nil {
		return nil, err
	}
	if tr.dur, err = newStack(gen, p, dstore, olog); err != nil {
		return nil, err
	}
	defer tr.dur.fr.Close()
	if tr.mem, err = newStack(gen, p, broker.NewMemStore(), nil); err != nil {
		return nil, err
	}
	for _, st := range []*stack{tr.dur, tr.mem} {
		if err := st.preHold(tr.corp[wlLeaseCycle]); err != nil {
			return nil, err
		}
	}

	for _, w := range workloads {
		if err := tr.replayWhole(w.Name); err != nil {
			return nil, fmt.Errorf("%s whole replay: %w", w.Name, err)
		}
		lo := tr.rec.op + 1
		if err := tr.replayDecomposed(w.Name); err != nil {
			return nil, fmt.Errorf("%s decomposed replay: %w", w.Name, err)
		}
		tr.opRange[w.Name] = [2]int{lo, tr.rec.op + 1}
	}
	tr.self = selfTimes(tr.rec.spans)
	if err := tr.micro(dirs, t); err != nil {
		return nil, err
	}
	return tr.account(asked.workload)
}

// timeEach runs fn n times and returns the median duration in nanoseconds.
func timeEach(n int, fn func(i int)) float64 {
	xs := make([]float64, n)
	for i := range xs {
		start := time.Now()
		fn(i)
		xs[i] = float64(time.Since(start).Nanoseconds())
	}
	return medianOf(xs)
}

// meanEach is for calls too short to time one by one: nanoseconds per call
// over n back-to-back calls.
func meanEach(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// allocsEach is heap allocations per call over n calls.
func allocsEach(n int, fn func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1000 }

// replayWhole sends the operations through Server.ServeHTTP with no span
// recorded: the handler median every layer's share is measured against.
func (tr *tracer) replayWhole(name string) error {
	for i := 0; i < replayOps[name]; i++ {
		total, err := tr.wholeOp(tr.dur, name, tr.corp[name], i)
		if err != nil {
			return err
		}
		tr.handler[name] = append(tr.handler[name], us(total))
	}
	return nil
}

// wholeOp is the in-process twin of session.op: the same requests in the
// same order, returning the handler time the operation cost.
func (tr *tracer) wholeOp(st *stack, name string, corp *corpus, i int) (time.Duration, error) {
	note := func(kind string, d time.Duration) { tr.kind[kind] = append(tr.kind[kind], us(d)) }
	switch name {
	case wlSpecSingle:
		_, d, err := st.mustServe("/v1/spec", corp.bodies[i%len(corp.bodies)])
		note("spec_miss", d)
		return d, err
	case wlSpecBatch:
		_, d, err := st.mustServe("/v1/spec/batch", corp.bodies[i%len(corp.bodies)])
		note("batch", d)
		return d, err
	case wlLeaseCycle:
		return tr.leaseOp(st, corp.bodies[i%len(corp.bodies)], i%eventsEvery == 0, "select", note)
	default:
		idx := (i / 2) % len(corp.bodies)
		if i%2 == 0 {
			_, d, err := st.mustServe("/v1/advise", corp.bodies[idx])
			note("advise", d)
			return d, err
		}
		return tr.leaseOp(st, corp.selectBodies[idx], false, "moga_select", note)
	}
}

func (tr *tracer) leaseOp(st *stack, body []byte, events bool, kind string, note func(string, time.Duration)) (time.Duration, error) {
	out, d, err := st.mustServe("/v1/select", body)
	if err != nil {
		return d, err
	}
	note(kind, d)
	var r selectReply
	if err := json.Unmarshal(out, &r); err != nil {
		return d, err
	}
	rel := fmt.Sprintf(`{"lease_id":%q,"observed_seconds":%g}`, r.LeaseID, r.Predicted)
	_, d2, err := st.mustServe("/v1/release", []byte(rel))
	if err != nil {
		return d + d2, err
	}
	note("release", d2)
	total := d + d2
	if events {
		_, d3, err := st.mustServe("/v1/platform/events", tr.eventsBody(st))
		if err != nil {
			return total, err
		}
		note("events", d3)
		total += d3
	}
	return total, nil
}

// eventsBody reports low load on 32 hosts the stack currently holds leased.
func (tr *tracer) eventsBody(st *stack) []byte {
	held := st.store.Leased(time.Now())
	ids := make([]int, 0, len(held))
	for h := range held {
		ids = append(ids, int(h))
	}
	sort.Ints(ids)
	return loadEventsBody(tr.seed, ids)
}

// replayDecomposed runs the same operations again as direct calls on each
// layer's exported functions, in the order the handler crosses them, each
// call under its own span.
func (tr *tracer) replayDecomposed(name string) error {
	corp := tr.corp[name]
	lru := newLRUModel(serverCacheCap)
	for i := 0; i < replayOps[name]; i++ {
		tr.rec.nextOp()
		tr.rec.begin("op." + name)
		var err error
		switch name {
		case wlSpecSingle:
			err = tr.specMember(corp.dags[i%len(corp.dags)], lru)
		case wlSpecBatch:
			seen := make(map[string]bool)
			for _, raw := range corp.memberDAGs[i%len(corp.memberDAGs)] {
				if seen[string(raw)] {
					continue // the handler merges byte-identical members before decoding
				}
				seen[string(raw)] = true
				if err = tr.specMember(raw, lru); err != nil {
					break
				}
			}
		case wlLeaseCycle:
			err = tr.leaseLayers(corp.dags[i%len(corp.dags)])
		default:
			err = tr.mogaLayers(corp.dags[(i/2)%len(corp.dags)], i%2 == 1)
		}
		tr.rec.end()
		if err != nil {
			return err
		}
	}
	return nil
}

// specMember is what resolving one specification costs below the service:
// decode, exact key, and on a miss the canonical form, its key, and the
// generator. lru stands in for the server's response cache.
func (tr *tracer) specMember(raw []byte, lru *lruModel) error {
	r := tr.rec
	var d, nd *dag.DAG
	var err error
	r.in("dag.decode", func() { d, err = dag.Decode(bytes.NewReader(raw)) })
	if err != nil {
		return err
	}
	var exact, shape string
	r.in("dag.fingerprint", func() { exact = fmt.Sprintf("%016x", d.Fingerprint()) })
	if lru.get(exact) {
		return nil
	}
	r.in("dag.normalize", func() { nd = d.Normalize() })
	r.in("dag.fingerprint", func() { shape = fmt.Sprintf("shape|%016x", nd.Fingerprint()) })
	if lru.get(shape) {
		lru.put(exact)
		return nil
	}
	r.in("spec.generate", func() { _, err = tr.dur.gen.Generate(nd, spec.Options{}) })
	lru.put(shape)
	lru.put(exact)
	return err
}

// leaseLayers is one vgdl select and release below the service and broker,
// on the durable store and the logging flight recorder.
func (tr *tracer) leaseLayers(raw []byte) error {
	r, st := tr.rec, tr.dur
	var d *dag.DAG
	var sp *spec.Specification
	var err error
	r.in("dag.decode", func() { d, err = dag.Decode(bytes.NewReader(raw)) })
	if err != nil {
		return err
	}
	r.in("spec.generate", func() { sp, err = st.gen.Generate(d, spec.Options{}) })
	if err != nil {
		return err
	}
	now := time.Now()
	var excluded map[platform.HostID]bool
	r.in("broker.store_leased", func() { excluded = st.store.Leased(now) })
	var rc *platform.ResourceCollection
	r.in("vgdl.find", func() {
		var parsed *vgdl.Spec
		if parsed, err = vgdl.Parse(sp.VgDL); err != nil {
			return
		}
		f := vgdl.NewFinder(st.p)
		f.ExcludedHosts = excluded
		rc, err = f.Find(parsed)
	})
	if err != nil {
		return err
	}
	return tr.bindAndRelease(d, sp, rc, "vgdl")
}

// bindAndRelease is the tail every lease shares: predict on the bound
// collection, acquire, bind, then release and record the observation.
func (tr *tracer) bindAndRelease(d *dag.DAG, sp *spec.Specification, rc *platform.ResourceCollection, backend string) error {
	r, st := tr.rec, tr.dur
	var err error
	predicted := 0.0
	r.in("sched.schedule_bound_rc", func() { predicted, err = predictOnBound(d, sp.Heuristic, st.p, rc) })
	if err != nil {
		return err
	}
	now := time.Now()
	meta := broker.LeaseMeta{
		Backend: backend, Heuristic: sp.Heuristic, PredictedTurnAround: predicted,
		Fingerprint: fmt.Sprintf("%016x", d.Fingerprint()),
	}
	var lease *broker.Lease
	r.in("durable.acquire", func() { lease, err = st.store.Acquire(rc.Hosts, 5*time.Minute, now, meta) })
	if err != nil {
		return err
	}
	r.in("bind.bind", func() { _, err = st.grid.Bind(rc, 3600) })
	if err != nil {
		return err
	}
	ok := false
	r.in("durable.release", func() { ok = st.store.Release(lease.ID, time.Now()) })
	if !ok {
		return fmt.Errorf("decomposed release of %s failed", lease.ID)
	}
	r.in("obs.recorder_record", func() { st.fr.Record(observationOf(lease, predicted)) })
	return nil
}

// predictOnBound is the bind-time turn-around prediction: the spec's
// heuristic scheduling the DAG on the collection that was actually bound.
func predictOnBound(d *dag.DAG, heuristic string, p *platform.Platform, rc *platform.ResourceCollection) (float64, error) {
	h, err := sched.ByName(heuristic)
	if err != nil {
		return 0, err
	}
	s, err := h.Schedule(d, platform.SubsetRC(p, rc.Hosts))
	if err != nil {
		return 0, err
	}
	return s.TurnAround(1), nil
}

func observationOf(l *broker.Lease, observed float64) obs.Observation {
	return obs.Observation{
		Time: time.Now(), LeaseID: l.ID, Fingerprint: l.Fingerprint, Backend: l.Backend,
		Heuristic: l.Heuristic, RCSize: len(l.Hosts), EndReason: obs.EndReleased,
		PredictedSeconds: l.PredictedTurnAround, ObservedSeconds: observed,
	}
}

// mogaLayers is one advise (search only) or one moga select (search, then
// the shared lease tail) below the service and broker.
func (tr *tracer) mogaLayers(raw []byte, selectHalf bool) error {
	r, st := tr.rec, tr.dur
	var d *dag.DAG
	var sp *spec.Specification
	var err error
	r.in("dag.decode", func() { d, err = dag.Decode(bytes.NewReader(raw)) })
	if err != nil {
		return err
	}
	r.in("spec.generate", func() { sp, err = st.gen.Generate(d, spec.Options{}) })
	if err != nil {
		return err
	}
	var excluded map[platform.HostID]bool
	r.in("broker.store_leased", func() { excluded = st.brk.SelectionMask() })
	var res *moga.Result
	r.in("moga.search", func() {
		res, err = moga.Search(context.Background(), moga.Problem{Platform: st.p, Spec: sp, Dag: d, Excluded: excluded}, moga.Config{})
	})
	if err != nil {
		return err
	}
	if !selectHalf {
		return nil
	}
	hosts := make([]platform.Host, len(res.Front[0].Hosts))
	for i, id := range res.Front[0].Hosts {
		hosts[i] = st.p.Hosts[id]
	}
	return tr.bindAndRelease(d, sp, platform.SubsetRC(st.p, hosts), "moga")
}

// lruModel is a key-only LRU: the response cache's hit/miss behaviour
// without its bodies.
type lruModel struct {
	cap   int
	tick  int
	stamp map[string]int
}

func newLRUModel(capacity int) *lruModel {
	return &lruModel{cap: capacity, stamp: make(map[string]int)}
}

func (l *lruModel) get(key string) bool {
	if _, ok := l.stamp[key]; !ok {
		return false
	}
	l.tick++
	l.stamp[key] = l.tick
	return true
}

func (l *lruModel) put(key string) {
	l.tick++
	if _, ok := l.stamp[key]; !ok && len(l.stamp) >= l.cap {
		oldest, at := "", l.tick
		for k, t := range l.stamp {
			if t < at {
				oldest, at = k, t
			}
		}
		delete(l.stamp, oldest)
	}
	l.stamp[key] = l.tick
}

// micro measures the layers no replay crosses, and the pairs whose
// difference is a published cost (MemStore vs durable, ring vs log).
func (tr *tracer) micro(dirs *runDirs, t *tally) error {
	out, dur, mem := tr.out, tr.dur, tr.mem
	ctx := context.Background()

	// 400-task DAGs and their specs, decoded once.
	single := tr.corp[wlSpecSingle]
	big := make([]*dag.DAG, 64)
	for i := range big {
		d, err := dag.Decode(bytes.NewReader(single.dags[i]))
		if err != nil {
			return err
		}
		big[i] = d
	}
	out["dag.characteristics_us"] = timeEach(len(big), func(i int) { big[i].Characteristics() }) / 1000
	out["dag.decode_allocs"] = allocsEach(32, func(i int) { dag.Decode(bytes.NewReader(single.dags[i])) })
	out["spec.generate_allocs"] = allocsEach(len(big), func(i int) { dur.gen.Generate(big[i], spec.Options{}) })

	// 40-task DAGs, their specs, and the live exclusion mask.
	lease := tr.corp[wlLeaseCycle]
	small := make([]*dag.DAG, 64)
	specs := make([]*spec.Specification, len(small))
	for i := range small {
		d, err := dag.Decode(bytes.NewReader(lease.dags[i]))
		if err != nil {
			return err
		}
		small[i] = d
		if specs[i], err = dur.gen.Generate(d, spec.Options{}); err != nil {
			return err
		}
	}
	var err error
	out["spec.alternatives_ms"] = timeEach(3, func(i int) {
		sweep := knee.SweepConfig{Ctx: ctx, NoCache: true}
		if _, e := dur.gen.Alternatives(small[i], specs[i], []float64{2.8, 2.4, 2.0}, sweep, 0.02); e != nil {
			err = e
		}
	}) / 1e6
	if err != nil {
		return fmt.Errorf("alternatives: %w", err)
	}

	// Hit and shape-hit beside the miss: 64 fresh 400-task shapes, each sent
	// once (miss), again (hit), and relabelled (shape hit).
	rng := xrand.NewFrom(tr.seed, 0x417)
	var hit, shapeHit []float64
	for i := 0; i < 64; i++ {
		k := replayOps[wlSpecSingle] + i // past everything the whole replay sent
		iso, err := relabel(mustDecode(single.dags[k]), rng)
		if err != nil {
			return err
		}
		for n, body := range [][]byte{single.bodies[k], single.bodies[k], specBody(iso)} {
			code, hdr, _, d := dur.serve(http.MethodPost, "/v1/spec", body)
			want := []string{"miss", "hit", "shape-hit"}[n]
			if code != http.StatusOK || hdr.Get("X-Cache") != want {
				t.add(1, 1, "in-process spec %d step %d: status %d X-Cache %q, want %q", k, n, code, hdr.Get("X-Cache"), want)
				continue
			}
			t.add(1, 0, "")
			switch n {
			case 1:
				hit = append(hit, us(d))
			case 2:
				shapeHit = append(shapeHit, us(d))
			}
		}
	}
	out["service.spec_hit_us"] = medianOf(hit)
	out["service.spec_shape_hit_us"] = medianOf(shapeHit)
	out["service.spec_miss_us"] = medianOf(tr.kind["spec_miss"])
	out["service.batch32_ms"] = medianOf(tr.kind["batch"]) / 1000
	out["service.select_us"] = medianOf(tr.kind["select"])
	out["service.release_us"] = medianOf(tr.kind["release"])
	out["service.advise_ms"] = medianOf(tr.kind["advise"]) / 1000
	out["service.events32_us"] = medianOf(tr.kind["events"])

	// The two selectors the default backend list does not reach.
	excluded := dur.store.Leased(time.Now())
	ads := classad.MachineAds(dur.p)
	out["classad.match_us"] = timeEach(32, func(i int) {
		ad, e := classad.Parse(specs[i].ClassAd)
		if e != nil {
			err = e
			return
		}
		idx := classad.MatchBestIndices(ad, ads, specs[i].RCSize, func(j int) bool { return excluded[platform.HostID(j)] })
		if len(idx) < specs[i].RCSize {
			err = fmt.Errorf("classad matched %d of %d", len(idx), specs[i].RCSize)
		}
	}) / 1000
	if err != nil {
		return err
	}
	directory := sword.NewDirectory(dur.p, xrand.New(1))
	out["sword.select_us"] = timeEach(32, func(i int) {
		req, e := sword.Decode(specs[i].SwordXML)
		if e == nil {
			_, e = directory.SelectExcluding(req, excluded)
		}
		if e != nil {
			err = e
		}
	}) / 1000
	if err != nil {
		return fmt.Errorf("sword: %w", err)
	}

	// Broker.Select and release on both stores: same DAGs, same 64 leases held.
	for _, side := range []struct {
		st   *stack
		name string
	}{{mem, "mem"}, {dur, "durable"}} {
		var sel, rel []float64
		for i := 0; i < 128; i++ {
			start := time.Now()
			o, e := side.st.brk.Select(ctx, broker.Request{Dag: small[i%len(small)]})
			sel = append(sel, us(time.Since(start)))
			if e != nil {
				return fmt.Errorf("broker select on %s: %w", side.name, e)
			}
			start = time.Now()
			side.st.brk.ReleaseObserved(ctx, o.Lease.ID, o.Lease.PredictedTurnAround)
			rel = append(rel, us(time.Since(start)))
		}
		out["broker.select_"+side.name+"_us"] = medianOf(sel)
		out["broker.release_"+side.name+"_us"] = medianOf(rel)
	}
	mid := mustDecode(tr.corp[wlMogaFront].dags[0])
	out["broker.select_moga_ms"] = timeEach(8, func(int) {
		o, e := dur.brk.Select(ctx, broker.Request{Dag: mid, Backends: []string{"moga"}})
		if e != nil {
			err = e
			return
		}
		dur.brk.Release(o.Lease.ID)
	}) / 1e6
	if err != nil {
		return fmt.Errorf("broker moga select: %w", err)
	}

	// The bare stores, identical inputs: durable minus MemStore is what the
	// WAL append and its fsync cost.
	fresh, err := durable.Open(filepath.Join(dirs.next(), "state"), durable.Options{})
	if err != nil {
		return err
	}
	defer fresh.Close()
	for _, side := range []struct {
		store  broker.Store
		prefix string
	}{{broker.NewMemStore(), "broker.store_"}, {fresh, "durable."}} {
		m, err := storeMicro(side.store, dur.p, dur.grid)
		if err != nil {
			return fmt.Errorf("%sstore: %w", side.prefix, err)
		}
		for k, v := range m {
			if side.prefix == "durable." && k == "leased_us" {
				continue // Leased never touches the log
			}
			out[side.prefix+k] = v
		}
	}
	if out["durable.open_recover_ms"], err = openRecover(dirs, dur.p, dur.grid); err != nil {
		return err
	}

	// The search at the default budget, at the ceiling a client may ask
	// for, and its allocations.
	midSpec, err := dur.gen.Generate(mid, spec.Options{})
	if err != nil {
		return err
	}
	problem := moga.Problem{Platform: dur.p, Spec: midSpec, Dag: mid, Excluded: excluded}
	search := func(cfg moga.Config) func(int) {
		return func(int) {
			if _, e := moga.Search(ctx, problem, cfg); e != nil {
				err = e
			}
		}
	}
	out["moga.search_ms"] = tr.layerMedianIn("moga.search", wlMogaFront) / 1000
	out["moga.search_allocs"] = allocsEach(4, search(moga.Config{}))
	out["moga.search_clamped_ms"] = timeEach(1, search(moga.Config{PopSize: 256, Generations: 256, MaxEvaluations: 1 << 17})) / 1e6
	if err != nil {
		return fmt.Errorf("moga search: %w", err)
	}

	// The reconciler over the 64 sessions the pre-held leases opened.
	events := make([]reconcile.Event, eventsPerPost)
	ids := make([]platform.HostID, 0, len(excluded))
	for h := range excluded {
		ids = append(ids, h)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for i := range events {
		events[i] = reconcile.Event{Type: reconcile.EventLoad, Host: ids[i%len(ids)], Load: 0.05}
	}
	out["reconcile.ingest32_us"] = timeEach(64, func(int) { dur.rec.Ingest(events) }) / 1000
	out["reconcile.cycle_ms"] = timeEach(16, func(int) {
		dur.rec.Ingest(events)
		dur.rec.Cycle(ctx)
	}) / 1e6

	// Telemetry's own cost.
	out["obs.expose_us"] = timeEach(32, func(int) { dur.serve(http.MethodGet, "/metrics", nil) }) / 1000
	sample := func(i int) obs.Observation {
		return obs.Observation{
			Time: time.Unix(1190000000+int64(i), 0), LeaseID: fmt.Sprintf("lease-%08d", i),
			Backend: "vgdl", Heuristic: "MCP", RCSize: 12, EndReason: obs.EndReleased,
			PredictedSeconds: 100, ObservedSeconds: 100 + float64(i%7),
		}
	}
	acc := obs.NewAccuracy()
	out["obs.accuracy_record_ns"] = meanEach(20000, func(i int) { acc.Record(sample(i)) })
	ring := obs.NewFlightRecorder(0, nil, nil)
	out["obs.recorder_record_mem_ns"] = meanEach(20000, func(i int) { ring.Record(sample(i)) })
	out["obs.recorder_record_log_us"] = meanEach(2000, func(i int) { dur.fr.Record(sample(i)) }) / 1000
	tracer := &obs.Tracer{Ring: obs.NewRing(256), OnSpan: func(string, time.Duration) {}}
	out["obs.span_ns"] = meanEach(20000, func(int) {
		c, trc := tracer.Start(ctx, "bench", "")
		_, h := obs.StartSpan(c, "stage")
		h.End()
		tracer.Finish(trc, http.StatusOK)
	})

	// Everything a decomposed replay timed.
	for _, m := range []struct{ metric, span, workload string }{
		// On the 400-task DAGs, where these layers dominate.
		{"dag.decode_us", "dag.decode", wlSpecSingle},
		{"dag.normalize_us", "dag.normalize", wlSpecSingle},
		{"dag.fingerprint_us", "dag.fingerprint", wlSpecSingle},
		{"spec.generate_us", "spec.generate", wlSpecSingle},
		{"vgdl.find_us", "vgdl.find", wlLeaseCycle},
		{"bind.bind_us", "bind.bind", wlLeaseCycle},
		{"sched.schedule_bound_rc_us", "sched.schedule_bound_rc", wlLeaseCycle},
	} {
		out[m.metric] = tr.layerMedianIn(m.span, m.workload)
	}
	return nil
}

func mustDecode(raw []byte) *dag.DAG {
	d, err := dag.Decode(bytes.NewReader(raw))
	if err != nil {
		panic(err) // the corpus was marshalled from valid DAGs
	}
	return d
}

// storeMicro times the four store operations a lease's life crosses, on a
// store holding the registered inventory and 64 live leases.
func storeMicro(store broker.Store, p *platform.Platform, grid *bind.Grid) (map[string]float64, error) {
	now := time.Now()
	if _, err := store.RegisterInventory(broker.NewInventoryRecord(p, grid), now); err != nil {
		return nil, err
	}
	const width = 12 // hosts per lease, the size 40-task DAGs ask for
	set := func(k int) []platform.Host { return p.Hosts[k*width : (k+1)*width] }
	meta := broker.LeaseMeta{Backend: "vgdl", Heuristic: "MCP", Fingerprint: "00000000deadbeef", PredictedTurnAround: 321.5}
	for k := 0; k < heldLeases; k++ {
		if _, err := store.Acquire(set(k), 10*time.Minute, now, meta); err != nil {
			return nil, err
		}
	}
	const n = 256
	leased, acquire, swap, release := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		store.Leased(now)
		leased[i] = us(time.Since(start))

		start = time.Now()
		l, err := store.Acquire(set(heldLeases+2*(i%32)), 5*time.Minute, now, meta)
		acquire[i] = us(time.Since(start))
		if err != nil {
			return nil, err
		}
		start = time.Now()
		l2, err := store.Swap(l.ID, set(heldLeases+2*(i%32)+1), now, meta)
		swap[i] = us(time.Since(start))
		if err != nil {
			return nil, err
		}
		start = time.Now()
		ok := store.Release(l2.ID, now)
		release[i] = us(time.Since(start))
		if !ok {
			return nil, fmt.Errorf("release of %s failed", l2.ID)
		}
	}
	return map[string]float64{
		"leased_us": medianOf(leased), "acquire_us": medianOf(acquire),
		"swap_us": medianOf(swap), "release_us": medianOf(release),
	}, nil
}

// openRecover times durable.Open on a directory a crash left behind: the
// inventory, 64 live leases and 1000 WAL records, never compacted.
func openRecover(dirs *runDirs, p *platform.Platform, grid *bind.Grid) (float64, error) {
	dir := filepath.Join(dirs.next(), "state")
	st, err := durable.Open(dir, durable.Options{CompactEvery: 1 << 30})
	if err != nil {
		return 0, err
	}
	// No Close: a graceful close would fold the log into a snapshot, and
	// the point is the replay. The descriptor goes with the process.
	now := time.Now()
	if _, err := st.RegisterInventory(broker.NewInventoryRecord(p, grid), now); err != nil {
		return 0, err
	}
	const width = 12
	for k := 0; k < heldLeases+468; k++ {
		slot := k
		if k >= heldLeases {
			slot = heldLeases + k%32 // released again below, so the slots recycle
		}
		l, err := st.Acquire(p.Hosts[slot*width:(slot+1)*width], 10*time.Minute, now, broker.LeaseMeta{Backend: "vgdl"})
		if err != nil {
			return 0, err
		}
		if k >= heldLeases {
			st.Release(l.ID, now)
		}
	}
	var openErr error
	ms := timeEach(5, func(int) {
		again, err := durable.Open(dir, durable.Options{CompactEvery: 1 << 30})
		if err != nil {
			openErr = err
			return
		}
		if rec := again.Recovery(); rec.LeasesRecovered != heldLeases || rec.RecordsReplayed < 1000 {
			openErr = fmt.Errorf("recovered %d leases from %d records, want %d from >= 1000", rec.LeasesRecovered, rec.RecordsReplayed, heldLeases)
		}
	}) / 1e6
	return ms, openErr
}

// layerMedianIn is the median self time (us) of the spans of that name in
// one workload's decomposed replay.
func (tr *tracer) layerMedianIn(name, workload string) float64 {
	r := tr.opRange[workload]
	return layerStats(tr.rec.spans, tr.self, r[0], r[1])[name].MedianSelfUS
}

// account closes the pass: per workload, how much of the in-process handler
// median the decomposed layers explain, what remains as the service's own
// time, the span overhead, and trace.json.
func (tr *tracer) account(name string) (map[string]float64, error) {
	self := tr.self
	doc := &traceDoc{Seed: tr.seed, Workloads: make(map[string]*traceWorkload), Spans: tr.rec.spans}
	accounted := make(map[string]float64)
	for _, w := range workloads {
		r := tr.opRange[w.Name]
		// Layer time per operation: every non-root span's self time.
		perOp := make(map[int]float64)
		for _, s := range tr.rec.spans {
			if s.Op >= r[0] && s.Op < r[1] && s.Parent != 0 {
				perOp[s.Op] += float64(self[s.ID]) / 1000
			}
		}
		layers := make([]float64, 0, len(perOp))
		for _, v := range perOp {
			layers = append(layers, v)
		}
		h := medianOf(tr.handler[w.Name])
		tw := &traceWorkload{
			Operations: r[1] - r[0], HandlerMedianUS: h, LayersPerOpUS: medianOf(layers),
			Layers: layerStats(tr.rec.spans, self, r[0], r[1]), FirstOp: r[0], EndOp: r[1],
		}
		if h > 0 {
			tw.SelfShare = max(0, 1-tw.LayersPerOpUS/h)
			tw.Accounted = tw.LayersPerOpUS/h + tw.SelfShare
		}
		doc.Workloads[w.Name] = tw
		accounted[w.Name] = tw.Accounted
	}
	tr.out["service.self_share"] = doc.Workloads[name].SelfShare
	// What the spans themselves add to a decomposed operation: the
	// recorder's cost per span, times the spans an operation opens, against
	// the handler median measured with no span at all.
	scratch := newRecorder()
	perSpanUS := meanEach(20000, func(int) { scratch.in("x", func() {}) }) / 1000
	w := doc.Workloads[name]
	spans := 0
	for _, l := range w.Layers {
		spans += l.Count
	}
	tr.out["bench.trace_overhead_share"] = perSpanUS * float64(spans) / float64(w.Operations) / w.HandlerMedianUS
	return accounted, doc.write(filepath.Join(outDir, "trace.json"))
}
