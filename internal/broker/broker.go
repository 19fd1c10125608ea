// Package broker closes the dissertation's selection loop (Fig. I-2,
// Chapter VII): the specification generator renders an optimal request plus
// degraded alternatives, and this package runs the full lifecycle against a
// live resource pool — generate the spec ladder, try each rung through a
// pluggable selection backend with leased hosts masked out, bind the
// winning collection through the cluster managers with bounded retry, and
// fall to the next rung when selection or binding fails. Successful
// selections hold host leases (TTL'd, swept on expiry) so concurrent
// sessions share one inventory without double-allocating nodes, and every
// request returns a per-rung outcome trace recording which spec, which
// backend, and why each failed rung failed.
package broker

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"rsgen/internal/bind"
	"rsgen/internal/dag"
	"rsgen/internal/knee"
	"rsgen/internal/moga"
	"rsgen/internal/obs"
	"rsgen/internal/platform"
	"rsgen/internal/sched"
	"rsgen/internal/spec"
)

// Config parameterizes a Broker. The zero value of every field except
// Generator is usable; see the field comments for defaults.
type Config struct {
	// Generator is the trained specification generator (required): it
	// renders the ladder of specs the broker walks.
	Generator *spec.Generator
	// SwordSeed seeds the synthetic SWORD directory built at inventory
	// registration; 0 defaults to 1.
	SwordSeed uint64
	// LeaseTTL is the default host-lease lifetime; 0 defaults to 5m.
	LeaseTTL time.Duration
	// MaxBindWaitSeconds bounds the acceptable manager delay when binding;
	// 0 defaults to 3600 (one hour of queue or reservation wait).
	MaxBindWaitSeconds float64
	// BindAttempts bounds bind retries per rung; 0 defaults to 3.
	BindAttempts int
	// BindBackoff is the first retry delay, doubling per attempt; 0
	// defaults to 50ms.
	BindBackoff time.Duration
	// LeaseAttempts bounds re-selections after losing an acquisition race
	// to a concurrent session; 0 defaults to 3.
	LeaseAttempts int
	// Workers bounds the evaluation pool used when computing alternative
	// specifications; 0 uses all cores.
	Workers int
	// Moga, when non-nil, additionally registers the multi-objective
	// Pareto-front backend as "moga" (internal/moga); the config bounds
	// every search it runs. Nil leaves the backend unregistered.
	Moga *moga.Config
	// Now is the clock (tests); nil defaults to time.Now.
	Now func() time.Time
	// Store owns the broker's mutable state (inventory record, generation,
	// lease table); nil defaults to a fresh in-memory MemStore. Pass a
	// durable store (internal/broker/durable) opened on a state directory
	// to make the state survive restarts; Broker.New adopts whatever
	// inventory and leases the store recovered.
	Store Store
}

func (c Config) withDefaults() Config {
	if c.SwordSeed == 0 {
		c.SwordSeed = 1
	}
	if c.LeaseTTL == 0 {
		c.LeaseTTL = 5 * time.Minute
	}
	if c.MaxBindWaitSeconds == 0 {
		c.MaxBindWaitSeconds = 3600
	}
	if c.BindAttempts == 0 {
		c.BindAttempts = 3
	}
	if c.BindBackoff == 0 {
		c.BindBackoff = 50 * time.Millisecond
	}
	if c.LeaseAttempts == 0 {
		c.LeaseAttempts = 3
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Sentinel errors the serving layer maps to HTTP statuses.
var (
	// ErrNoInventory means no platform has been registered yet.
	ErrNoInventory = errors.New("broker: no inventory registered")
	// ErrDraining means the broker is shutting down and rejects new work.
	ErrDraining = errors.New("broker: draining, not accepting selections")
	// ErrLeaseGone means a rebind targeted a lease that is no longer held
	// (released or expired): the swap is abandoned, never applied late.
	ErrLeaseGone = errors.New("broker: lease no longer held")
)

// UnsatisfiableError reports that every rung of the ladder failed; Trace
// records each attempt and its failure reason.
type UnsatisfiableError struct {
	Trace []RungAttempt
}

func (e *UnsatisfiableError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "broker: all %d rung attempts failed", len(e.Trace))
	for _, a := range e.Trace {
		fmt.Fprintf(&b, "; rung %d via %s: %s (%s)", a.Rung, a.Backend, a.Err, a.Stage)
	}
	return b.String()
}

// inventory is one registered resource pool: the platform, its binding
// managers, and the selection backends materialized over it.
type inventory struct {
	p         *platform.Platform
	grid      *bind.Grid
	selectors map[string]Selector
}

// Broker owns a registered inventory, the concurrent lease table over its
// hosts, and the closed-loop select→lease→bind lifecycle. It is safe for
// concurrent use.
type Broker struct {
	cfg     Config
	store   Store
	metrics *Metrics

	invMu sync.RWMutex
	inv   *inventory

	sweepMu   sync.Mutex
	sweepStop func()

	drainMu  sync.Mutex
	draining bool
	inflight sync.WaitGroup

	exclMu       sync.RWMutex
	exclProvider func() map[platform.HostID]bool

	obsMu   sync.RWMutex
	obsSink func(obs.Observation)
}

// New validates the config and assembles a broker over the configured
// store. With an in-memory store (the default) the broker starts
// inventory-less and selections fail with ErrNoInventory until
// RegisterInventory; a durable store that recovered a registered inventory
// has its platform, managers, and leases adopted here, so leases acquired
// before a crash stay honored (their hosts masked) after the restart.
func New(cfg Config) (*Broker, error) {
	if cfg.Generator == nil || cfg.Generator.Size == nil || len(cfg.Generator.Size.Models) == 0 {
		return nil, errors.New("broker: config needs a generator with a trained size model")
	}
	b := &Broker{cfg: cfg.withDefaults()}
	b.store = b.cfg.Store
	if b.store == nil {
		b.store = NewMemStore()
	}
	if rec := b.store.RecoveredInventory(); rec != nil {
		inv, err := materialize(rec, b.cfg.SwordSeed, b.cfg.Moga)
		if err != nil {
			return nil, fmt.Errorf("broker: recovered inventory: %w", err)
		}
		b.inv = inv
	}
	b.metrics = newBrokerMetrics(b.LeaseStats)
	// A store that exposes its own metric families (the durable WAL /
	// snapshot series) mounts after the broker families, so the in-memory
	// path's exposition stays byte-identical.
	if p, ok := b.store.(interface{ MetricsRegistry() *obs.Registry }); ok {
		if reg := p.MetricsRegistry(); reg != nil {
			b.metrics.reg.Mount(reg)
		}
	}
	return b, nil
}

// materialize validates an inventory record and builds the derived
// in-memory state (binding grid, selection backends) the store never
// persists.
func materialize(rec *InventoryRecord, swordSeed uint64, mogaCfg *moga.Config) (*inventory, error) {
	p := rec.Platform
	if p == nil {
		return nil, errors.New("broker: inventory record has no platform")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(rec.Managers) != len(p.Clusters) {
		return nil, fmt.Errorf("broker: record has %d managers, platform has %d clusters", len(rec.Managers), len(p.Clusters))
	}
	return &inventory{p: p, grid: rec.Grid(), selectors: newSelectors(p, swordSeed, mogaCfg)}, nil
}

// RegisterInventory installs (or replaces) the resource pool the broker
// selects from, bumping the store's inventory generation. Replacing the
// inventory drops every outstanding lease: the hosts they referenced no
// longer exist.
func (b *Broker) RegisterInventory(p *platform.Platform, grid *bind.Grid) error {
	if p == nil || grid == nil {
		return errors.New("broker: inventory needs a platform and a binding grid")
	}
	if err := p.Validate(); err != nil {
		return err
	}
	if grid.NumClusters() != len(p.Clusters) {
		return fmt.Errorf("broker: grid manages %d clusters, platform has %d", grid.NumClusters(), len(p.Clusters))
	}
	inv := &inventory{p: p, grid: grid, selectors: newSelectors(p, b.cfg.SwordSeed, b.cfg.Moga)}
	// Persist first: if the store cannot make the registration durable the
	// broker keeps serving the previous inventory.
	if _, err := b.store.RegisterInventory(NewInventoryRecord(p, grid), b.cfg.Now()); err != nil {
		return err
	}
	b.invMu.Lock()
	b.inv = inv
	b.invMu.Unlock()
	return nil
}

// Generation returns the store's inventory epoch: 0 before any
// registration, bumped by each RegisterInventory, restored across restarts
// by durable stores. Clients compare it to detect universe swaps.
func (b *Broker) Generation() uint64 { return b.store.Generation() }

// Recovery reports what the store's crash recovery found at open time
// (zero-valued for the in-memory store).
func (b *Broker) Recovery() RecoveryInfo { return b.store.Recovery() }

// Inventory returns the registered platform and grid (nil, nil before
// registration).
func (b *Broker) Inventory() (*platform.Platform, *bind.Grid) {
	b.invMu.RLock()
	defer b.invMu.RUnlock()
	if b.inv == nil {
		return nil, nil
	}
	return b.inv.p, b.inv.grid
}

// Backends returns the configured backend names in default try order: the
// static trio plus "moga" when Config.Moga enabled it. /healthz reports this
// list so operators can see what is mounted without grepping flags.
func (b *Broker) Backends() []string {
	names := append([]string(nil), BackendNames...)
	if b.cfg.Moga != nil {
		names = append(names, "moga")
	}
	return names
}

// SelectionMask returns the hosts a fresh selection would currently be
// masked from: every leased host plus the exclusion provider's stalled set.
// The what-if advisor uses it so advice reflects the same universe a real
// selection would see.
func (b *Broker) SelectionMask() map[platform.HostID]bool {
	return b.mask(nil, b.externalStalled())
}

// mask builds a fresh exclusion set for one selection: every leased host,
// minus own (the hosts of the lease a rebind is replacing, which are
// candidates for its replacement), plus stalled — in that order, so a stalled
// host stays masked even when the rebound lease holds it.
func (b *Broker) mask(own []platform.HostID, stalled map[platform.HostID]bool) map[platform.HostID]bool {
	m := b.store.Leased(b.cfg.Now())
	for _, h := range own {
		delete(m, h)
	}
	for h := range stalled {
		m[h] = true
	}
	return m
}

// Metrics returns the broker's counter set.
func (b *Broker) Metrics() *Metrics { return b.metrics }

// Registry returns the broker's metric registry so a serving layer can
// mount it into a combined scrape.
func (b *Broker) Registry() *obs.Registry { return b.metrics.reg }

// LeaseStats sweeps expired leases and reports occupancy.
func (b *Broker) LeaseStats() LeaseStats {
	st := b.store.Stats(b.cfg.Now())
	b.flushExpired()
	return st
}

// SetObservationSink registers the flight recorder's intake: every terminal
// lease event (release, TTL expiry, rebind replacement) is handed to it as
// an obs.Observation. At most one sink; nil disconnects.
func (b *Broker) SetObservationSink(f func(obs.Observation)) {
	b.obsMu.Lock()
	b.obsSink = f
	b.obsMu.Unlock()
}

func (b *Broker) emitObservation(o obs.Observation) {
	b.obsMu.RLock()
	f := b.obsSink
	b.obsMu.RUnlock()
	if f != nil {
		f(o)
	}
}

// observe builds the Observation closing a lease's segment. observed is the
// client-reported makespan when positive; otherwise the wall-clock duration
// the lease was held (zero when BoundAt predates the annotation fields).
func observe(l *Lease, endReason, traceID string, end time.Time, observed float64) obs.Observation {
	if observed <= 0 && !l.BoundAt.IsZero() && end.After(l.BoundAt) {
		observed = end.Sub(l.BoundAt).Seconds()
	}
	return obs.Observation{
		Time:             end,
		LeaseID:          l.ID,
		TraceID:          traceID,
		Fingerprint:      l.Fingerprint,
		Backend:          l.Backend,
		Heuristic:        l.Heuristic,
		Rung:             l.Rung,
		FrontRank:        l.FrontRank,
		RCSize:           len(l.Hosts),
		EndReason:        endReason,
		PredictedSeconds: l.PredictedTurnAround,
		ObservedSeconds:  observed,
		HourlyUSD:        l.HourlyUSD,
		Watts:            l.Watts,
	}
}

// flushExpired drains the store's TTL-reclaimed leases and emits their
// expiry observations. Expiry happens inside the store's sweep (under its
// mutex, from many call paths), so the store queues the reclaimed leases
// and the broker folds them into the flight recorder here — called after
// every lease operation and from the background sweeper tick. An expiry has
// no requesting trace, so TraceID stays empty; the observed duration is the
// full TTL the lease was held.
func (b *Broker) flushExpired() {
	for _, l := range b.store.TakeExpired() {
		b.emitObservation(observe(l, obs.EndExpired, "", l.Expires, 0))
	}
}

// Release frees a lease; ok is false for unknown or expired IDs.
func (b *Broker) Release(id string) bool {
	return b.ReleaseObserved(context.Background(), id, 0)
}

// ReleaseObserved frees a lease and emits its terminal observation,
// carrying the request's trace ID from ctx and the client-reported makespan
// (observedSeconds <= 0 falls back to the lease's wall-clock hold time). ok
// is false for unknown or expired IDs.
func (b *Broker) ReleaseObserved(ctx context.Context, id string, observedSeconds float64) bool {
	now := b.cfg.Now()
	lease, held := b.store.Lookup(id, now)
	ok := b.store.Release(id, now)
	if ok {
		b.metrics.releases.Add(1)
		if held {
			b.emitObservation(observe(&lease, obs.EndReleased, obs.TraceIDFrom(ctx), now, observedSeconds))
		}
	}
	b.flushExpired()
	return ok
}

// Lease returns a copy of a live lease by ID; ok is false for unknown or
// expired IDs.
func (b *Broker) Lease(id string) (Lease, bool) { return b.store.Lookup(id, b.cfg.Now()) }

// SetExclusionProvider registers a callback supplying externally diagnosed
// stalled hosts (the reconciler's active exclusions). Every Select and
// Rebind seeds its stalled mask from it, so new selections route around
// clusters the closed loop has already declared dead instead of
// rediscovering them one bind failure at a time.
func (b *Broker) SetExclusionProvider(f func() map[platform.HostID]bool) {
	b.exclMu.Lock()
	b.exclProvider = f
	b.exclMu.Unlock()
}

func (b *Broker) externalStalled() map[platform.HostID]bool {
	b.exclMu.RLock()
	f := b.exclProvider
	b.exclMu.RUnlock()
	if f == nil {
		return nil
	}
	return f()
}

// StartSweeper reclaims expired leases every interval until the returned
// stop function is called. Sweeping also happens inline on every lease
// operation; the background pass only keeps occupancy gauges fresh while
// the broker is idle. StartSweeper is idempotent: while a sweeper is
// already running, further calls spawn nothing and return the running
// sweeper's stop function. After a stop, the next call starts a fresh one.
func (b *Broker) StartSweeper(interval time.Duration) (stop func()) {
	b.sweepMu.Lock()
	defer b.sweepMu.Unlock()
	if b.sweepStop != nil {
		return b.sweepStop
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				b.store.Sweep(b.cfg.Now())
				b.flushExpired()
			}
		}
	}()
	var once sync.Once
	stop = func() {
		once.Do(func() {
			close(done)
			b.sweepMu.Lock()
			b.sweepStop = nil
			b.sweepMu.Unlock()
		})
	}
	b.sweepStop = stop
	return stop
}

// BeginDrain makes every subsequent Select fail fast with ErrDraining;
// in-flight selections continue.
func (b *Broker) BeginDrain() {
	b.drainMu.Lock()
	b.draining = true
	b.drainMu.Unlock()
}

// Drain begins draining and waits for in-flight selections to finish or the
// context to expire.
func (b *Broker) Drain(ctx context.Context) error {
	b.BeginDrain()
	done := make(chan struct{})
	go func() {
		b.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (b *Broker) enter() bool {
	b.drainMu.Lock()
	defer b.drainMu.Unlock()
	if b.draining {
		return false
	}
	b.inflight.Add(1)
	return true
}

// Request is one closed-loop selection request.
type Request struct {
	// Dag is the workflow to select resources for (required).
	Dag *dag.DAG
	// Options tune the base specification.
	Options spec.Options
	// AlternativeClocks, when non-empty, extends the ladder with the
	// Chapter VII degraded specifications at these slower clock classes
	// (GHz), tried in order after the optimal rung fails.
	AlternativeClocks []float64
	// AlternativeTolerance is the acceptable turn-around slack for an
	// alternative; 0 defaults to 0.02.
	AlternativeTolerance float64
	// Backends names the selection backends to try per rung, in order;
	// empty defaults to ["vgdl"].
	Backends []string
	// TTL overrides the broker's default lease lifetime when positive.
	TTL time.Duration
	// MaxBindWaitSeconds overrides the broker's bind-wait bound when
	// positive.
	MaxBindWaitSeconds float64
}

// RungAttempt is one entry of the outcome trace: a (rung, backend) attempt
// and where in the lifecycle it ended.
type RungAttempt struct {
	// Rung indexes the ladder: 0 is the optimal spec, 1.. the
	// alternatives in order.
	Rung int `json:"rung"`
	// ClockGHz and RCSize summarize the rung's specification.
	ClockGHz float64 `json:"clock_ghz"`
	RCSize   int     `json:"rc_size"`
	// Backend is the selection backend tried.
	Backend string `json:"backend"`
	// Stage is where the attempt ended: select | lease | bind | bound.
	Stage string `json:"stage"`
	// Err is the failure reason (empty when Stage is bound).
	Err string `json:"error,omitempty"`
	// BindWaitSeconds is the winning binding's availability delay.
	BindWaitSeconds float64 `json:"bind_wait_seconds,omitempty"`
	// FrontRank is the Pareto-front rank a RungSelector (moga) attempt
	// used: 0 is the knee point, higher ranks are the front walked after
	// bind failures that taught the stall probe nothing.
	FrontRank int `json:"front_rank,omitempty"`
}

// Outcome is a successful closed-loop selection.
type Outcome struct {
	// Lease holds the acquired hosts until released or expired.
	Lease *Lease
	// Rung is the winning ladder index; FallbackDepth aliases it in the
	// response for the Fig. VII fallback-depth accounting.
	Rung int
	// Backend is the winning selection backend.
	Backend string
	// Spec is the winning rung's specification.
	Spec *spec.Specification
	// RC is the bound resource collection.
	RC *platform.ResourceCollection
	// Clusters counts the distinct clusters of the collection.
	Clusters int
	// AvailableAtSeconds is the binding's manager delay (bind.Binding).
	AvailableAtSeconds float64
	// Trace records every rung attempt, failures included.
	Trace []RungAttempt
}

// Select runs the paper lifecycle for one request: generate the spec
// ladder, then per rung and per backend select → lease → bind, falling to
// the next backend/rung on failure. The error is ErrNoInventory,
// ErrDraining, a generation error, the context's error, or an
// *UnsatisfiableError carrying the full trace.
func (b *Broker) Select(ctx context.Context, req Request) (*Outcome, error) {
	return b.walk(ctx, "", req, nil)
}

// Rebind transparently re-selects a live lease down its request's spec
// ladder — the reconciler's path when a bound cluster is declared stalled.
// It is Select's walk started from a lease that already exists: instead of
// acquiring a fresh lease it atomically swaps the old one (preserving its
// expiry) once a replacement collection binds; the old lease stays intact
// until that swap, so a failed rebind changes nothing. stalled is the
// caller's exclusion set (typically the dead clusters' hosts) and is grown
// in place as bind failures discover more stalled clusters. The error is
// ErrLeaseGone when the lease was released or expired mid-rebind (the swap
// is then abandoned, never applied late), ErrDraining, ErrNoInventory, the
// context's error, or an *UnsatisfiableError carrying the full trace.
func (b *Broker) Rebind(ctx context.Context, leaseID string, req Request, stalled map[platform.HostID]bool) (*Outcome, error) {
	if leaseID == "" { // walk reads the empty ID as "fresh selection"; it never names a lease
		return nil, fmt.Errorf("%w: %q", ErrLeaseGone, leaseID)
	}
	return b.walk(ctx, leaseID, req, stalled)
}

// walk is the one Chapter VII fallback procedure behind both entry points:
// admit the request past the drain gate, render the ladder, and try every
// rung × backend pair in order until one binds. A fresh selection passes
// replace "" and alone moves the selections, inflight, fallback-depth and
// unsatisfied series. stalled accumulates, per request, the hosts of clusters
// whose managers refused or stalled past the wait bound, so every later
// attempt routes around them instead of re-selecting the same dead clusters;
// it starts from the caller's set (nil for none) plus the hosts the
// reconciler's exclusion provider already knows to be dead.
func (b *Broker) walk(ctx context.Context, replace string, req Request, stalled map[platform.HostID]bool) (*Outcome, error) {
	if !b.enter() {
		return nil, ErrDraining
	}
	defer b.inflight.Done()
	defer b.flushExpired() // selections sweep inline; surface what they reclaimed
	fresh := replace == ""
	if fresh {
		b.metrics.inflight.Add(1)
		defer b.metrics.inflight.Add(-1)
		b.metrics.selections.Add(1)
	}

	b.invMu.RLock()
	inv := b.inv
	b.invMu.RUnlock()
	if inv == nil {
		return nil, ErrNoInventory
	}
	if req.Dag == nil {
		return nil, errors.New("broker: request has no dag")
	}
	sels, err := inv.selectorsFor(req.Backends)
	if err != nil {
		return nil, err
	}
	if !fresh {
		if _, held := b.store.Lookup(replace, b.cfg.Now()); !held {
			return nil, fmt.Errorf("%w: %s", ErrLeaseGone, replace)
		}
	}

	genCtx, genSpan := obs.StartSpan(ctx, "generate")
	ladder, err := b.ladder(genCtx, req)
	genSpan.SetDetail("rungs=%d", len(ladder))
	genSpan.EndErr(err)
	if err != nil {
		return nil, err
	}

	if req.TTL <= 0 {
		req.TTL = b.cfg.LeaseTTL
	}
	if req.MaxBindWaitSeconds <= 0 {
		req.MaxBindWaitSeconds = b.cfg.MaxBindWaitSeconds
	}
	if stalled == nil {
		stalled = make(map[platform.HostID]bool)
	}
	for h := range b.externalStalled() {
		stalled[h] = true
	}
	var trace []RungAttempt
	for rung, sp := range ladder {
		for _, sel := range sels {
			out, atts, err := b.tryRung(ctx, inv, &req, replace, stalled, rung, sp, sel)
			trace = append(trace, atts...)
			if err != nil {
				return nil, err
			}
			if out != nil {
				out.Trace = trace
				if fresh {
					b.metrics.fallbackDepth(rung)
				}
				return out, nil
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
	}
	if fresh {
		b.metrics.unsatisfied.Add(1)
	}
	return nil, &UnsatisfiableError{Trace: trace}
}

// selectorsFor resolves backend names (default: vgdl only) against the
// registry.
func (inv *inventory) selectorsFor(names []string) ([]Selector, error) {
	if len(names) == 0 {
		names = []string{"vgdl"}
	}
	out := make([]Selector, 0, len(names))
	for _, n := range names {
		s, ok := inv.selectors[n]
		if !ok {
			return nil, fmt.Errorf("broker: unknown backend %q (have %s)", n, strings.Join(inv.knownBackends(), ", "))
		}
		out = append(out, s)
	}
	return out, nil
}

// ladder renders the optimal specification plus the requested degraded
// alternatives, in fallback order.
func (b *Broker) ladder(ctx context.Context, req Request) ([]*spec.Specification, error) {
	base, err := b.cfg.Generator.Generate(req.Dag, req.Options)
	if err != nil {
		return nil, err
	}
	ladder := []*spec.Specification{base}
	if len(req.AlternativeClocks) > 0 {
		tol := req.AlternativeTolerance
		if tol == 0 {
			tol = 0.02
		}
		sweep := knee.SweepConfig{Ctx: ctx, Workers: b.cfg.Workers}
		alts, err := b.cfg.Generator.Alternatives(req.Dag, base, req.AlternativeClocks, sweep, tol)
		if err != nil {
			return nil, err
		}
		for _, a := range alts {
			ladder = append(ladder, a.Spec)
		}
	}
	return ladder, nil
}

// tryRung attempts one (rung, backend) pair: select with leased and stalled
// hosts masked, take the lease, bind with bounded retry. Three failures
// restart the loop instead of abandoning the rung: losing the acquisition or
// swap race to a concurrent session (bounded by LeaseAttempts), a bind
// refusal that stalls new clusters — the Chapter VII rebind loop, which
// re-selects around the stalled clusters and is bounded because every
// iteration must grow the mask — and, for RungSelectors (moga), a bind refusal
// that taught the probe nothing, which walks to the next rank of the
// selector's own Pareto front (bounded because the front is finite and
// exhaustion is a selection failure). A selection failure ends the rung: it
// is deterministic given the mask and rank, so the caller moves on.
//
// A rebind differs in three places. It looks its lease up every iteration,
// unmasks that lease's hosts, and a vanished lease ends the whole walk (the
// non-nil error). It commits with Swap, not Acquire. And it commits after the
// bind, not before: binding is a stateless feasibility check, so discarding it
// when the swap fails is free, while swapping first would tear down the old
// lease for a collection the managers then refuse — bind-before-swap is what
// makes a failed rebind change nothing. A fresh selection leases first and
// releases on refusal, because the gap between selecting hosts and owning
// them is where a concurrent session wins the race, and a bind's backoff
// sleeps inside that gap would turn more selections into re-selections.
// Either commit reads the clock as it commits, never a value from before the
// selection or the backoff, so the store's expiry sweep and the lease's
// BoundAt see the moment the lease changed hands.
func (b *Broker) tryRung(ctx context.Context, inv *inventory, req *Request, replace string, stalled map[platform.HostID]bool, rung int, sp *spec.Specification, sel Selector) (*Outcome, []RungAttempt, error) {
	var atts []RungAttempt
	fresh := replace == ""
	rebindTag := ""
	if !fresh {
		rebindTag = " rebind=" + replace
	}
	commitMisses := 0
	walk := rungWalk{sel: sel}
	for {
		rank := walk.rank
		att := RungAttempt{Rung: rung, ClockGHz: sp.MaxClockGHz, RCSize: sp.RCSize, Backend: sel.Name(), FrontRank: rank}
		var own Lease
		if !fresh {
			var held bool
			if own, held = b.store.Lookup(replace, b.cfg.Now()); !held {
				return nil, atts, fmt.Errorf("%w: %s", ErrLeaseGone, replace)
			}
		}
		excluded := b.mask(own.Hosts, stalled)
		_, selSpan := obs.StartSpan(ctx, "select")
		selSpan.SetDetail("rung=%d backend=%s rank=%d%s", rung, sel.Name(), rank, rebindTag)
		rc, err := walk.pick(ctx, req.Dag, sp, excluded)
		selSpan.EndErr(err)
		if err != nil {
			att.Stage, att.Err = StageSelect, err.Error()
			b.metrics.rungAttempt(sel.Name(), StageSelect)
			return nil, append(atts, att), nil
		}
		var lease *Lease
		if fresh { // lease before bind
			_, span := obs.StartSpan(ctx, "lease")
			span.SetDetail("rung=%d hosts=%d", rung, len(rc.Hosts))
			meta := leaseMeta(inv, req.Dag, sp, rc, rung, rank, sel.Name())
			lease, err = b.store.Acquire(rc.Hosts, req.TTL, b.cfg.Now(), meta)
			span.EndErr(err)
		}
		var binding *bind.Binding
		if err == nil {
			bindCtx, bindSpan := obs.StartSpan(ctx, "bind")
			bindSpan.SetDetail("rung=%d backend=%s", rung, sel.Name())
			binding, err = b.bindWithRetry(bindCtx, inv.grid, rc, req.MaxBindWaitSeconds)
			bindSpan.EndErr(err)
			if err != nil {
				if fresh {
					b.store.Release(lease.ID, b.cfg.Now())
				}
				grew := b.markStalled(inv, rc, req.MaxBindWaitSeconds, stalled)
				att.Stage, att.Err = StageBind, err.Error()
				b.metrics.rungAttempt(sel.Name(), StageBind)
				b.metrics.bindFailures.Add(1)
				obs.LoggerFrom(ctx).Debug("bind failed",
					"rebind", replace, "rung", rung, "backend", sel.Name(), "stalled_hosts", grew, "error", err)
				atts = append(atts, att)
				if grew > 0 && ctx.Err() == nil {
					walk.reselect()
					continue // route the re-selection around the stalled clusters
				}
				if ctx.Err() == nil && walk.advance() {
					continue // the probe learned nothing: walk the Pareto front
				}
				return nil, atts, nil
			}
			if !fresh { // bind before swap
				_, span := obs.StartSpan(ctx, "swap")
				span.SetDetail("old=%s rung=%d hosts=%d", replace, rung, len(rc.Hosts))
				meta := leaseMeta(inv, req.Dag, sp, rc, rung, rank, sel.Name())
				lease, err = b.store.Swap(replace, rc.Hosts, b.cfg.Now(), meta)
				span.EndErr(err)
			}
		}
		if err != nil { // the commit failed, on whichever side of the bind it ran
			att.Stage, att.Err = StageLease, err.Error()
			b.metrics.rungAttempt(sel.Name(), StageLease)
			atts = append(atts, att)
			if errors.Is(err, ErrLeaseGone) {
				return nil, atts, err
			}
			commitMisses++
			if commitMisses >= b.cfg.LeaseAttempts {
				return nil, atts, nil
			}
			walk.reselect()
			continue // a concurrent session won the race: re-select
		}
		if !fresh {
			// The swap retired the old lease: close its segment in the flight
			// recorder at the instant the replacement took over. The
			// replacement's own observation comes when it ends in turn.
			b.emitObservation(observe(&own, obs.EndRebound, obs.TraceIDFrom(ctx), lease.BoundAt, 0))
			b.flushExpired()
		}
		att.Stage = StageBound
		att.BindWaitSeconds = binding.AvailableAt
		b.metrics.rungAttempt(sel.Name(), StageBound)
		return &Outcome{
			Lease:              lease,
			Rung:               rung,
			Backend:            sel.Name(),
			Spec:               sp,
			RC:                 rc,
			Clusters:           countClusters(rc),
			AvailableAtSeconds: binding.AvailableAt,
		}, append(atts, att), nil
	}
}

// bindWithRetry binds the collection with exponential backoff: manager
// state can change between attempts (operators repoint managers at
// runtime), so transient refusals get BindAttempts chances before the rung
// is abandoned.
func (b *Broker) bindWithRetry(ctx context.Context, grid *bind.Grid, rc *platform.ResourceCollection, maxWait float64) (*bind.Binding, error) {
	backoff := b.cfg.BindBackoff
	var lastErr error
	for attempt := 0; attempt < b.cfg.BindAttempts; attempt++ {
		if attempt > 0 {
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, fmt.Errorf("%w (after %v)", ctx.Err(), lastErr)
			}
			backoff *= 2
		}
		binding, err := grid.Bind(rc, maxWait)
		if err == nil {
			return binding, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("bind failed after %d attempts: %w", b.cfg.BindAttempts, lastErr)
}

// markStalled probes the failed collection's clusters and masks every host
// of the clusters that refuse the request or cannot grant it within the
// wait bound, so later attempts, rungs, and backends route around them (the
// vgdl Finder's cluster exclusion, generalized to host level for all
// backends). It returns the number of newly masked hosts; 0 means the probe
// learned nothing and retrying the same selection would loop.
func (b *Broker) markStalled(inv *inventory, rc *platform.ResourceCollection, maxWait float64, stalled map[platform.HostID]bool) int {
	grew := 0
	probe := inv.grid.Probe(rc)
	for cluster, at := range probe {
		if at <= maxWait {
			continue
		}
		c := inv.p.Clusters[cluster]
		for i := 0; i < c.NumHosts; i++ {
			h := c.FirstHost + platform.HostID(i)
			if !stalled[h] {
				stalled[h] = true
				grew++
			}
		}
	}
	return grew
}

// leaseMeta assembles the acquisition's annotations: which rung, backend,
// heuristic, and front rank won, the request DAG's fingerprint, the makespan
// the spec promises on the actually-bound collection, and the collection's
// summed catalog price and power draw. Everything here is what the flight
// recorder needs when the lease eventually ends.
func leaseMeta(inv *inventory, d *dag.DAG, sp *spec.Specification, rc *platform.ResourceCollection, rung, rank int, backend string) LeaseMeta {
	m := LeaseMeta{
		Rung:                rung,
		Backend:             backend,
		FrontRank:           rank,
		Fingerprint:         fmt.Sprintf("%016x", d.Fingerprint()),
		Heuristic:           sp.Heuristic,
		PredictedTurnAround: predictTurnAround(d, sp.Heuristic, inv.p, rc),
	}
	for _, h := range rc.Hosts {
		m.HourlyUSD += inv.p.HostHourlyUSD(h.ID)
		m.Watts += inv.p.HostWatts(h.ID)
	}
	return m
}

// predictTurnAround is sched.TurnAround — the function the moga objective
// scores with — for the DAG on the bound collection under the spec's
// heuristic: the promised turn-around (seconds) the flight recorder later
// scores against the observed one. 0 when the heuristic is unknown or the
// subset is unschedulable: the lease is then recorded but never scored.
func predictTurnAround(d *dag.DAG, heuristic string, p *platform.Platform, rc *platform.ResourceCollection) float64 {
	h, err := sched.ByName(heuristic)
	if err != nil {
		return 0
	}
	t, err := sched.TurnAround(h, d, platform.SubsetRC(p, rc.Hosts), 1)
	if err != nil {
		return 0
	}
	return t
}

func countClusters(rc *platform.ResourceCollection) int {
	seen := make(map[int]bool)
	for _, h := range rc.Hosts {
		seen[h.Cluster] = true
	}
	return len(seen)
}
