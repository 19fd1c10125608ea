// Package reconcile closes the loop over bound leases. The broker's Select
// hands out a lease and forgets why; the reconciler remembers the request,
// folds the platform event stream (host churn, load, clock drift) into a
// per-lease monitor, probes clusters that stop making expected progress,
// and when a lease's resources stall it transparently re-selects down the
// spec ladder — swapping the lease in place so the client's handle keeps
// working while the hosts underneath it change.
package reconcile

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"rsgen/internal/broker"
	"rsgen/internal/monitor"
	"rsgen/internal/obs"
	"rsgen/internal/platform"
)

// Status is a tracked session's lifecycle state.
type Status string

const (
	// StatusBound: the original lease is live and healthy.
	StatusBound Status = "bound"
	// StatusRebound: at least one transparent re-selection has replaced
	// the hosts; the client handle still resolves.
	StatusRebound Status = "rebound"
	// StatusStalled: resources are unhealthy and the last re-selection
	// attempt failed; the reconciler retries every cycle.
	StatusStalled Status = "stalled"
	// StatusExpired: the lease aged out (TTL) before it could be rebound.
	StatusExpired Status = "expired"
	// StatusLost: the platform was re-registered underneath the lease.
	StatusLost Status = "lost"
	// StatusReleased: the client released the lease.
	StatusReleased Status = "released"
)

func terminal(s Status) bool {
	return s == StatusExpired || s == StatusLost || s == StatusReleased
}

// Config parameterizes a Reconciler.
type Config struct {
	// Broker is the lease broker to reconcile (required). New registers
	// the reconciler as the broker's exclusion provider.
	Broker *broker.Broker
	// Interval is the background cycle period (default 5s).
	Interval time.Duration
	// ProbeWindow is the expected-progress window: a cluster whose probed
	// queue wait exceeds it is declared stalled (default 1h).
	ProbeWindow time.Duration
	// ExclusionTTL bounds how long a stalled cluster stays masked from
	// new selections before it may be tried again (default 10m).
	ExclusionTTL time.Duration
	// Now supplies time (default time.Now); tests inject fake clocks.
	Now func() time.Time
	// Logger receives cycle outcomes (default discard).
	Logger *slog.Logger
}

const (
	// maxPending bounds the ingest queue between cycles; events past it
	// are counted dropped.
	maxPending = 65536
	// maxRetired bounds how many terminal sessions stay queryable via
	// GET /v1/select/{id} (FIFO eviction).
	maxRetired = 512
)

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 5 * time.Second
	}
	if c.ProbeWindow <= 0 {
		c.ProbeWindow = time.Hour
	}
	if c.ExclusionTTL <= 0 {
		c.ExclusionTTL = 10 * time.Minute
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Logger == nil {
		c.Logger = obs.Nop
	}
	return c
}

// RebindRecord documents one transparent re-selection of a session.
type RebindRecord struct {
	From    string    `json:"from"`
	To      string    `json:"to"`
	Rung    int       `json:"rung"`
	Backend string    `json:"backend"`
	Reason  string    `json:"reason"`
	At      time.Time `json:"at"`
}

// SessionStatus is the externally visible state of one tracked session
// (GET /v1/select/{id}).
type SessionStatus struct {
	// LeaseID is the client's handle: the lease ID Select originally
	// returned. It keeps resolving across rebinds.
	LeaseID string `json:"lease_id"`
	// CurrentLeaseID is the lease actually holding hosts now; differs
	// from LeaseID once a rebind has happened.
	CurrentLeaseID   string            `json:"current_lease_id"`
	Status           Status            `json:"status"`
	Rung             int               `json:"rung"`
	Backend          string            `json:"backend"`
	Hosts            []platform.HostID `json:"hosts"`
	Clusters         int               `json:"clusters"`
	ExpiresInSeconds float64           `json:"expires_in_seconds"`
	// BoundAt is when the current lease was acquired (zero for leases
	// persisted before the field existed); AgeSeconds is its age now.
	BoundAt         time.Time      `json:"bound_at,omitzero"`
	AgeSeconds      float64        `json:"age_seconds,omitempty"`
	ViolationsTotal int            `json:"violations_total"`
	Rebinds         []RebindRecord `json:"rebinds,omitempty"`
	LastError       string         `json:"last_error,omitempty"`
}

// ReleaseResult reports a release routed through the reconciler.
type ReleaseResult struct {
	// Found is false when no session (by origin or current lease ID)
	// matches; the caller should fall back to the bare broker.
	Found bool
	// Released is false when the underlying lease was already gone.
	Released bool
	// LeaseID is the current (possibly rebound) lease that was freed.
	LeaseID string
	// Rebound reports whether the session was ever transparently rebound.
	Rebound bool
	// Rebinds counts the transparent re-selections over the session's life.
	Rebinds int
}

// session is the reconciler's view of one Select outcome: keyed by the
// origin lease ID (the client handle), pointing at whatever lease currently
// holds hosts.
type session struct {
	origin  string
	leaseID string
	req     broker.Request
	gen     uint64

	rung    int
	backend string
	rc      *platform.ResourceCollection
	hostIdx map[platform.HostID]int
	mon     *monitor.Monitor

	status     Status
	expires    time.Time
	boundAt    time.Time
	suspects   map[int]bool
	violations int
	rebinds    []RebindRecord
	lastErr    string
}

func (s *session) setCollection(rc *platform.ResourceCollection) {
	s.rc = rc
	s.hostIdx = make(map[platform.HostID]int, len(rc.Hosts))
	for i, h := range rc.Hosts {
		s.hostIdx[h.ID] = i
	}
	// A monitor failure (impossible for broker-produced collections) just
	// degrades the session to probe-and-downtime detection.
	s.mon, _ = monitor.New(rc)
}

// Reconciler is the background loop. One per broker; all methods are safe
// for concurrent use.
type Reconciler struct {
	cfg   Config
	met   *metrics
	start time.Time

	trMu   sync.RWMutex
	tracer *obs.Tracer

	mu       sync.Mutex
	sessions map[string]*session // origin lease ID → session
	byLease  map[string]string   // current lease ID → origin
	pending  []Event
	down     map[platform.HostID]bool
	load     map[platform.HostID]float64
	clock    map[platform.HostID]float64
	excluded map[int]time.Time // cluster → exclusion deadline
	retired  []string          // terminal session origins, oldest first

	runMu  sync.Mutex
	stopFn func()
}

// New builds a reconciler over the broker and registers itself as the
// broker's exclusion provider so fresh selections route around what the
// loop has already declared dead. Call Start to run cycles in the
// background, or Cycle directly for deterministic stepping.
func New(cfg Config) (*Reconciler, error) {
	if cfg.Broker == nil {
		return nil, errors.New("reconcile: Config.Broker is required")
	}
	cfg = cfg.withDefaults()
	r := &Reconciler{
		cfg:      cfg,
		start:    cfg.Now(),
		sessions: make(map[string]*session),
		byLease:  make(map[string]string),
		down:     make(map[platform.HostID]bool),
		load:     make(map[platform.HostID]float64),
		clock:    make(map[platform.HostID]float64),
		excluded: make(map[int]time.Time),
	}
	r.met = newMetrics(
		func() int64 { return int64(r.ActiveExclusions()) },
		func() int64 { return int64(r.SessionCount()) },
	)
	cfg.Broker.SetExclusionProvider(r.ExcludedHosts)
	return r, nil
}

// SetTracer wires cycle tracing into the service's tracer (ring buffer,
// span metrics, slow logging). Optional; nil disables tracing.
func (r *Reconciler) SetTracer(t *obs.Tracer) {
	r.trMu.Lock()
	r.tracer = t
	r.trMu.Unlock()
}

func (r *Reconciler) getTracer() *obs.Tracer {
	r.trMu.RLock()
	defer r.trMu.RUnlock()
	return r.tracer
}

// Track registers a successful Select outcome for reconciliation. The
// session inherits any deviations (downed hosts, load, drift) already known
// to the reconciler, so a lease bound onto a host that died a cycle ago is
// flagged on the very next cycle.
func (r *Reconciler) Track(out *broker.Outcome, req broker.Request) {
	if r == nil || out == nil || out.Lease == nil || out.RC == nil {
		return
	}
	s := &session{
		origin:   out.Lease.ID,
		leaseID:  out.Lease.ID,
		req:      req,
		gen:      r.cfg.Broker.Generation(),
		rung:     out.Rung,
		backend:  out.Backend,
		status:   StatusBound,
		expires:  out.Lease.Expires,
		boundAt:  out.Lease.BoundAt,
		suspects: make(map[int]bool),
	}
	s.setCollection(out.RC)
	now := r.cfg.Now()
	r.mu.Lock()
	r.applyDeviationsLocked(s, now)
	r.sessions[s.origin] = s
	r.byLease[s.leaseID] = s.origin
	r.mu.Unlock()
}

// Ingest queues platform events for the next cycle and returns how many
// were accepted; overflow beyond maxPending is dropped and counted.
func (r *Reconciler) Ingest(events []Event) int {
	if len(events) == 0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	room := maxPending - len(r.pending)
	if room < 0 {
		room = 0
	}
	accepted := events
	if len(accepted) > room {
		r.met.dropped.Add(uint64(len(accepted) - room))
		accepted = accepted[:room]
	}
	for _, e := range accepted {
		r.met.events.With(e.Type).Inc()
	}
	r.pending = append(r.pending, accepted...)
	return len(accepted)
}

// Status resolves a session by origin or current lease ID.
func (r *Reconciler) Status(id string) (SessionStatus, bool) {
	now := r.cfg.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookupLocked(id)
	if s == nil {
		return SessionStatus{}, false
	}
	st := SessionStatus{
		LeaseID:         s.origin,
		CurrentLeaseID:  s.leaseID,
		Status:          s.status,
		Rung:            s.rung,
		Backend:         s.backend,
		ViolationsTotal: s.violations,
		Rebinds:         append([]RebindRecord(nil), s.rebinds...),
		LastError:       s.lastErr,
	}
	if s.rc != nil {
		clusters := make(map[int]bool)
		for _, h := range s.rc.Hosts {
			st.Hosts = append(st.Hosts, h.ID)
			clusters[h.Cluster] = true
		}
		sort.Slice(st.Hosts, func(i, j int) bool { return st.Hosts[i] < st.Hosts[j] })
		st.Clusters = len(clusters)
	}
	if !terminal(s.status) {
		if d := s.expires.Sub(now).Seconds(); d > 0 {
			st.ExpiresInSeconds = d
		}
		st.BoundAt = s.boundAt
		if !s.boundAt.IsZero() && now.After(s.boundAt) {
			st.AgeSeconds = now.Sub(s.boundAt).Seconds()
		}
	}
	return st, true
}

// Release frees a tracked session's current lease. Found is false for IDs
// the reconciler never saw (callers fall back to the bare broker).
func (r *Reconciler) Release(id string) ReleaseResult {
	return r.ReleaseObserved(context.Background(), id, 0)
}

// ReleaseObserved is Release carrying the request context (its trace ID
// ends up on the lease's flight-recorder observation) and the
// client-reported makespan in seconds (<= 0 means unreported).
func (r *Reconciler) ReleaseObserved(ctx context.Context, id string, observedSeconds float64) ReleaseResult {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookupLocked(id)
	if s == nil {
		return ReleaseResult{}
	}
	res := ReleaseResult{
		Found:   true,
		LeaseID: s.leaseID,
		Rebound: len(s.rebinds) > 0,
		Rebinds: len(s.rebinds),
	}
	if terminal(s.status) {
		return res
	}
	res.Released = r.cfg.Broker.ReleaseObserved(ctx, s.leaseID, observedSeconds)
	r.endLocked(s, StatusReleased)
	return res
}

// ActiveExclusions counts clusters currently masked from selection.
func (r *Reconciler) ActiveExclusions() int {
	now := r.cfg.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, until := range r.excluded {
		if until.After(now) {
			n++
		}
	}
	return n
}

// SessionCount counts live (non-terminal) tracked sessions.
func (r *Reconciler) SessionCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, s := range r.sessions {
		if !terminal(s.status) {
			n++
		}
	}
	return n
}

// ExcludedHosts is the broker's exclusion provider: all downed hosts plus
// every host of each actively excluded cluster.
func (r *Reconciler) ExcludedHosts() map[platform.HostID]bool {
	p, _ := r.cfg.Broker.Inventory()
	now := r.cfg.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.excludedHostsLocked(p, now)
}

func (r *Reconciler) excludedHostsLocked(p *platform.Platform, now time.Time) map[platform.HostID]bool {
	out := make(map[platform.HostID]bool, len(r.down))
	for h := range r.down {
		out[h] = true
	}
	if p == nil {
		return out
	}
	for c, until := range r.excluded {
		if !until.After(now) || c < 0 || c >= len(p.Clusters) {
			continue
		}
		cl := p.Clusters[c]
		for i := 0; i < cl.NumHosts; i++ {
			out[cl.FirstHost+platform.HostID(i)] = true
		}
	}
	return out
}

func (r *Reconciler) lookupLocked(id string) *session {
	if s, ok := r.sessions[id]; ok {
		return s
	}
	if origin, ok := r.byLease[id]; ok {
		return r.sessions[origin]
	}
	return nil
}

// endLocked moves a session to a terminal status and queues it for FIFO
// eviction once maxRetired terminal sessions accumulate.
func (r *Reconciler) endLocked(s *session, st Status) {
	s.status = st
	// A terminal session is never rebound again, and the request is the
	// bulk of it: without this the maxRetired history pins that many DAGs.
	s.req = broker.Request{}
	r.met.ended.With(string(st)).Inc()
	r.retired = append(r.retired, s.origin)
	for len(r.retired) > maxRetired {
		o := r.retired[0]
		r.retired = r.retired[1:]
		if old, ok := r.sessions[o]; ok {
			delete(r.byLease, old.leaseID)
			delete(r.byLease, old.origin)
			delete(r.sessions, o)
		}
	}
}

// applyDeviationsLocked folds the reconciler's current global host state
// into a (new or rebuilt) session monitor.
func (r *Reconciler) applyDeviationsLocked(s *session, now time.Time) {
	t := now.Sub(r.start).Seconds()
	for h, idx := range s.hostIdx {
		if r.down[h] {
			r.applySessionEvent(s, monitor.Event{Time: t, HostIndex: idx, Down: true})
		}
		if l, ok := r.load[h]; ok {
			r.applySessionEvent(s, monitor.Event{Time: t, HostIndex: idx, SetLoad: l, LoadSet: true})
		}
		if c, ok := r.clock[h]; ok {
			r.applySessionEvent(s, monitor.Event{Time: t, HostIndex: idx, SetClockGHz: c})
		}
	}
}

// applySessionEvent runs one monitor event through a session, folding any
// violations into its suspect-cluster set.
func (r *Reconciler) applySessionEvent(s *session, ev monitor.Event) {
	if ev.HostIndex < 0 || ev.HostIndex >= len(s.rc.Hosts) {
		return
	}
	if s.mon == nil {
		if ev.Down {
			s.suspects[s.rc.Hosts[ev.HostIndex].Cluster] = true
			s.violations++
		}
		return
	}
	if vs := s.mon.Apply(ev); len(vs) > 0 {
		s.violations += len(vs)
		s.suspects[s.rc.Hosts[ev.HostIndex].Cluster] = true
	}
}

// foldLocked applies one platform event to global host state and every
// live session that includes the host.
func (r *Reconciler) foldLocked(p *platform.Platform, e Event, now time.Time) {
	t := now.Sub(r.start).Seconds()
	apply := func(h platform.HostID, mk func(idx int) monitor.Event) {
		for _, s := range r.sessions {
			if terminal(s.status) {
				continue
			}
			if idx, ok := s.hostIdx[h]; ok {
				r.applySessionEvent(s, mk(idx))
			}
		}
	}
	hostDown := func(h platform.HostID) {
		r.down[h] = true
		apply(h, func(idx int) monitor.Event {
			return monitor.Event{Time: t, HostIndex: idx, Down: true}
		})
	}
	hostUp := func(h platform.HostID) {
		delete(r.down, h)
		delete(r.load, h)
		delete(r.clock, h)
		apply(h, func(idx int) monitor.Event {
			var nominal float64
			if p != nil && int(h) < p.NumHosts() {
				nominal = p.Host(h).ClockGHz
			}
			return monitor.Event{Time: t, HostIndex: idx, Up: true, LoadSet: true, SetClockGHz: nominal}
		})
	}
	switch e.Type {
	case EventLeave:
		hostDown(e.Host)
	case EventJoin:
		hostUp(e.Host)
	case EventLoad:
		r.load[e.Host] = e.Load
		apply(e.Host, func(idx int) monitor.Event {
			return monitor.Event{Time: t, HostIndex: idx, SetLoad: e.Load, LoadSet: true}
		})
	case EventClock:
		r.clock[e.Host] = e.ClockGHz
		apply(e.Host, func(idx int) monitor.Event {
			return monitor.Event{Time: t, HostIndex: idx, SetClockGHz: e.ClockGHz}
		})
	case EventClusterLeave, EventClusterJoin:
		if p == nil || e.Cluster < 0 || e.Cluster >= len(p.Clusters) {
			return
		}
		cl := p.Clusters[e.Cluster]
		for i := 0; i < cl.NumHosts; i++ {
			if e.Type == EventClusterLeave {
				hostDown(cl.FirstHost + platform.HostID(i))
			} else {
				hostUp(cl.FirstHost + platform.HostID(i))
			}
		}
	}
}

// CycleStats summarizes one reconciliation cycle.
type CycleStats struct {
	Events         int
	Probes         int
	Stalled        int
	Rebinds        int
	RebindFailures int
	Expired        int
	Lost           int
}

type rebindJob struct {
	origin  string
	leaseID string
	req     broker.Request
	reason  string
}

// Cycle runs one reconciliation pass: ingest queued events, probe every
// live session's clusters for expected progress, and transparently rebind
// sessions whose clusters stalled. Start runs it periodically; tests call
// it directly for deterministic stepping.
func (r *Reconciler) Cycle(ctx context.Context) CycleStats {
	wall := time.Now()
	r.met.cycles.Inc()
	var st CycleStats
	status := 200
	t := r.getTracer()
	var tr *obs.Trace
	if t != nil {
		ctx, tr = t.Start(ctx, "reconcile", "")
	}

	brk := r.cfg.Broker
	p, grid := brk.Inventory()
	gen := brk.Generation()
	now := r.cfg.Now()
	windowSec := r.cfg.ProbeWindow.Seconds()

	// Phase 1: fold queued events into global state and session monitors.
	_, ingestSp := obs.StartSpan(ctx, "ingest")
	r.mu.Lock()
	events := r.pending
	r.pending = nil
	for _, e := range events {
		r.foldLocked(p, e, now)
	}
	st.Events = len(events)

	// Phase 2: probe live sessions — drop ones whose lease vanished or
	// whose universe was replaced, suspect clusters past the progress
	// window, and keep re-suspecting clusters with downed hosts so failed
	// rebinds retry every cycle.
	var jobs []rebindJob
	for _, s := range r.sessions {
		if terminal(s.status) {
			continue
		}
		if s.gen != gen {
			r.endLocked(s, StatusLost)
			st.Lost++
			continue
		}
		lease, held := brk.Lease(s.leaseID)
		if !held {
			r.endLocked(s, StatusExpired)
			st.Expired++
			continue
		}
		s.expires = lease.Expires
		if grid != nil && s.rc != nil {
			for c, wait := range grid.Probe(s.rc) {
				st.Probes++
				if wait > windowSec {
					s.suspects[c] = true
				}
			}
		}
		for h, idx := range s.hostIdx {
			if r.down[h] {
				s.suspects[s.rc.Hosts[idx].Cluster] = true
			}
		}
		if len(s.suspects) == 0 {
			continue
		}
		clusters := make([]int, 0, len(s.suspects))
		for c := range s.suspects {
			clusters = append(clusters, c)
		}
		sort.Ints(clusters)
		st.Stalled += len(clusters)
		r.met.stalled.Add(uint64(len(clusters)))
		for _, c := range clusters {
			if _, ok := r.excluded[c]; !ok {
				r.met.exclusions.Inc()
			}
			r.excluded[c] = now.Add(r.cfg.ExclusionTTL)
		}
		jobs = append(jobs, rebindJob{
			origin:  s.origin,
			leaseID: s.leaseID,
			req:     s.req,
			reason:  fmt.Sprintf("clusters %v unhealthy", clusters),
		})
	}
	for c, until := range r.excluded {
		if !until.After(now) {
			delete(r.excluded, c)
		}
	}
	mask := r.excludedHostsLocked(p, now)
	r.mu.Unlock()
	r.met.probes.Add(uint64(st.Probes))
	ingestSp.SetDetail(fmt.Sprintf("events=%d probes=%d stalled=%d", st.Events, st.Probes, st.Stalled))
	ingestSp.End()

	// Phase 3: rebind stalled sessions down the spec ladder. Runs outside
	// r.mu — Rebind re-enters the reconciler through the broker's
	// exclusion provider.
	for _, j := range jobs {
		if ctx.Err() != nil {
			break
		}
		jobMask := make(map[platform.HostID]bool, len(mask))
		for h := range mask {
			jobMask[h] = true
		}
		_, sp := obs.StartSpan(ctx, "rebind")
		sp.SetDetail(fmt.Sprintf("lease=%s reason=%q", j.leaseID, j.reason))
		out, err := brk.Rebind(ctx, j.leaseID, j.req, jobMask)
		sp.EndErr(err)
		r.finishRebind(j, out, err, &st)
		if err != nil && !errors.Is(err, broker.ErrLeaseGone) {
			status = 500
		}
	}

	if t != nil {
		t.Finish(tr, status)
	}
	r.met.cycleSeconds.Observe(time.Since(wall))
	if st.Events > 0 || st.Rebinds > 0 || st.RebindFailures > 0 || st.Expired > 0 || st.Lost > 0 {
		r.cfg.Logger.Info("reconcile cycle",
			"events", st.Events, "probes", st.Probes, "stalled", st.Stalled,
			"rebinds", st.Rebinds, "rebind_failures", st.RebindFailures,
			"expired", st.Expired, "lost", st.Lost)
	}
	return st
}

// finishRebind folds one Rebind result back into its session.
func (r *Reconciler) finishRebind(j rebindJob, out *broker.Outcome, err error, st *CycleStats) {
	now := r.cfg.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.sessions[j.origin]
	if s == nil {
		// Session evicted mid-rebind; don't leak the replacement lease.
		if err == nil && out.Lease != nil {
			r.cfg.Broker.Release(out.Lease.ID)
		}
		return
	}
	switch {
	case err == nil:
		delete(r.byLease, s.leaseID)
		s.rebinds = append(s.rebinds, RebindRecord{
			From: s.leaseID, To: out.Lease.ID,
			Rung: out.Rung, Backend: out.Backend,
			Reason: j.reason, At: now,
		})
		s.leaseID = out.Lease.ID
		s.rung, s.backend, s.expires = out.Rung, out.Backend, out.Lease.Expires
		s.boundAt = out.Lease.BoundAt
		s.setCollection(out.RC)
		s.suspects = make(map[int]bool)
		s.lastErr = ""
		r.applyDeviationsLocked(s, now)
		if s.status == StatusReleased {
			// The client released while the rebind was in flight; the old
			// lease was already swapped away, so free the replacement too.
			r.cfg.Broker.Release(s.leaseID)
		} else {
			s.status = StatusRebound
			r.byLease[s.leaseID] = s.origin
			r.met.rebinds.Inc()
			r.met.observeDepth(out.Rung)
			st.Rebinds++
			r.cfg.Logger.Info("lease rebound",
				"origin", s.origin, "from", j.leaseID, "to", s.leaseID,
				"rung", out.Rung, "backend", out.Backend, "reason", j.reason)
		}
	case errors.Is(err, broker.ErrLeaseGone):
		if !terminal(s.status) {
			r.endLocked(s, StatusExpired)
			st.Expired++
		}
	default:
		if !terminal(s.status) {
			s.status = StatusStalled
			s.lastErr = err.Error()
			// Suspects re-derive next cycle from down/probe state.
			s.suspects = make(map[int]bool)
			r.met.rebindFails.Inc()
			st.RebindFailures++
			r.cfg.Logger.Warn("rebind failed; will retry",
				"origin", s.origin, "lease", j.leaseID, "error", err)
		}
	}
}

// Start launches the background loop and returns an idempotent stop
// function that cancels any in-flight rebind and waits for the loop to
// exit. A second Start while running returns the same stop.
func (r *Reconciler) Start() (stop func()) {
	r.runMu.Lock()
	defer r.runMu.Unlock()
	if r.stopFn != nil {
		return r.stopFn
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(r.cfg.Interval)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				r.Cycle(ctx)
			}
		}
	}()
	var once sync.Once
	r.stopFn = func() {
		once.Do(func() {
			cancel()
			<-done
			r.runMu.Lock()
			r.stopFn = nil
			r.runMu.Unlock()
		})
	}
	return r.stopFn
}
