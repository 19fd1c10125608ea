// Package sched implements the DAG scheduling heuristics studied in the
// dissertation — MCP (Modified Critical Path, Fig. IV-2/V-12), the simple
// Greedy heuristic (Fig. IV-3), DLS (Dynamic Level Scheduling, Fig. V-13),
// FCA (Fig. V-14) and FCFS (Fig. V-15) — together with a deterministic
// scheduling-cost model.
//
// # Scheduling cost model
//
// Application turn-around time is scheduling time plus makespan (§III.2.3),
// so the cost of running the heuristic itself is a first-class output. The
// dissertation measured wall-clock heuristic time on a 2.80 GHz Xeon; for
// repeatability we instead count abstract operations during scheduling (one
// op per task/host/parent evaluation, per heap operation, per graph-metric
// visit) and convert ops to seconds with a per-op constant calibrated so
// that MCP over a 33k-host universe costs the same order of magnitude
// (minutes) reported in Chapter IV. The §V.7 scheduler-clock-rate ratio
// (SCR) scales this conversion. Wall-clock measurement remains available via
// MeasuredSchedulingTime for benchmarks.
//
// # Ops model vs. implementation
//
// Ops are charged by explicit formulas that model the 2007-era
// implementation's complexity (e.g. MCP pays m × (1 + parents) per task).
// The actual Go implementation is free to be faster: host selection uses
// indexed bucketed candidates, ready queues use heaps, and per-call scratch
// is pooled. None of that changes a schedule or an Ops count — the golden
// corpus test pins every output byte. See DESIGN.md, "Scheduler
// performance".
package sched

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"rsgen/internal/dag"
	"rsgen/internal/platform"
)

// OpSeconds is the modeled duration of one abstract scheduling operation on
// the dissertation's 2.80 GHz Xeon reference scheduler. The value is
// calibrated so MCP on the 4469-task Montage DAG over the 33,667-host
// universe takes O(10 minutes) — the "prohibitive scheduling cost" of
// Fig. IV-5 — while on a few-hundred-host RC it takes seconds.
const OpSeconds = 6.6e-7

// SchedulingTime converts an operation count into modeled seconds for a
// scheduler running at scr × the reference scheduler clock (SCR = 1 is the
// 2.80 GHz reference; §V.7 varies this ratio).
func SchedulingTime(ops, scr float64) float64 {
	if scr <= 0 {
		scr = 1
	}
	return ops * OpSeconds / scr
}

// MeasuredSchedulingTime runs the heuristic and returns the schedule along
// with the actual wall-clock seconds the computation took on this machine —
// the dissertation's original measurement methodology (§III.4.2). Use the
// modeled SchedulingTime for repeatable experiments; use this to sanity-
// check the model's asymptotics on real hardware.
func MeasuredSchedulingTime(h Heuristic, d *dag.DAG, rc *platform.ResourceCollection) (*Schedule, float64, error) {
	start := time.Now()
	s, err := h.Schedule(d, rc)
	elapsed := time.Since(start).Seconds()
	if err != nil {
		return nil, 0, err
	}
	return s, elapsed, nil
}

// Schedule is the output of a heuristic: a complete mapping of every task to
// a host in the RC with start and finish times under the dedicated-host,
// non-preemptive execution model of §III.2.3.
type Schedule struct {
	// Host[t] is the RC host index assigned to task t.
	Host []int
	// Start[t] and Finish[t] are the task's scheduled times in seconds.
	Start, Finish []float64
	// Makespan is max Finish − min Start (entry tasks start at 0).
	Makespan float64
	// Ops is the abstract operation count incurred computing the
	// schedule; convert with SchedulingTime.
	Ops float64
}

// TurnAround returns the application turn-around time: modeled scheduling
// time at the given SCR plus the makespan.
func (s *Schedule) TurnAround(scr float64) float64 {
	return SchedulingTime(s.Ops, scr) + s.Makespan
}

// Heuristic is a DAG scheduling algorithm.
type Heuristic interface {
	// Name returns the canonical short name (MCP, Greedy, DLS, FCA, FCFS).
	Name() string
	// Schedule maps every task of d onto rc. It panics only on programmer
	// error (nil inputs); an empty RC returns an error.
	Schedule(d *dag.DAG, rc *platform.ResourceCollection) (*Schedule, error)
}

// runner is the body of a heuristic in this package, in two halves (see
// plan.go): compile derives the placement order from the DAG alone, and run
// places every task of a prepared state by replaying it. DLS and MinMin pick
// each next task by the collection's free times, so their compile leaves o
// alone and their run ignores it.
type runner interface {
	compile(d *dag.DAG, o *order, sc *orderScratch)
	run(s *state, o *order)
}

// runOnce prepares a state and places every task, compiling r's order into
// the state's pooled scratch. Schedule and TurnAround differ only in what
// they read out of the state afterwards.
func runOnce(r runner, d *dag.DAG, rc *platform.ResourceCollection) (*state, error) {
	s, err := newState(d, rc)
	if err != nil {
		return nil, err
	}
	r.compile(d, &s.ord, &s.orderScratch)
	r.run(s, &s.ord)
	return s, nil
}

func schedule(r runner, d *dag.DAG, rc *platform.ResourceCollection) (*Schedule, error) {
	s, err := runOnce(r, d, rc)
	if err != nil {
		return nil, err
	}
	return s.finish(), nil
}

// TurnAround returns exactly h.Schedule(d, rc).TurnAround(scr) — the
// §III.2.3 objective — without materializing the Schedule: for this
// package's heuristics the Host/Start/Finish slices stay with the pooled
// state, so an MCP call allocates only the closure its ready order compiles
// with, and Greedy, Random and RoundRobin calls allocate nothing. It is the
// one turn-around predictor of the serving path: the broker's bind-time
// promise calls it, and the moga objective calls it through a Plan compiled
// once per search, so the accuracy series scores the estimate selection
// optimized.
func TurnAround(h Heuristic, d *dag.DAG, rc *platform.ResourceCollection, scr float64) (float64, error) {
	r, ok := h.(runner)
	if !ok {
		s, err := h.Schedule(d, rc)
		if err != nil {
			return 0, err
		}
		return s.TurnAround(scr), nil
	}
	s, err := runOnce(r, d, rc)
	if err != nil {
		return 0, err
	}
	return s.turnAround(scr), nil
}

// ByName returns the heuristic with the given (case-sensitive) name.
func ByName(name string) (Heuristic, error) {
	switch name {
	case "MCP":
		return MCP{}, nil
	case "Greedy":
		return Greedy{}, nil
	case "DLS":
		return DLS{}, nil
	case "FCA":
		return FCA{}, nil
	case "FCFS":
		return FCFS{}, nil
	case "Random":
		return Random{}, nil
	case "RoundRobin":
		return RoundRobin{}, nil
	case "MinMin":
		return MinMin{}, nil
	}
	return nil, fmt.Errorf("sched: unknown heuristic %q", name)
}

// All returns every implemented heuristic, cheapest-first.
func All() []Heuristic {
	return []Heuristic{FCFS{}, FCA{}, Greedy{}, MCP{}, DLS{}}
}

// state is the shared bookkeeping for all list-scheduling heuristics. States
// are pooled: everything except the returned Host/Start/Finish slices is
// scratch reused across Schedule calls, so the steady-state inner loop
// allocates nothing. TurnAround does not hand those three slices out, so
// they stay with the state.
type state struct {
	d     *dag.DAG
	rc    *platform.ResourceCollection
	free  []float64 // per-host earliest idle time (pooled)
	host  []int     // per-task host (-1 while unscheduled); finish gives
	start []float64 // these three to the Schedule, turnAround keeps them
	fin   []float64
	ops   float64

	// speedup[h] is rc.Hosts[h].Speedup(), computed once per call so an
	// execution time is one division (see execTime).
	speedup []float64

	uniform       bool // rc.Net is a UniformNetwork: locality-only transfer costs
	uniformFactor float64

	// Cluster-network fast path (rc.Net is a platform.ClusterNetwork, e.g.
	// the universe RC): transfer time between distinct hosts depends only
	// on the cluster pair, so per-task data-ready times collapse to one
	// value per cluster. grpState tracks the lazily built group index:
	// 0 = not attempted this call, 1 = usable, 2 = unusable.
	cnet     platform.ClusterNetwork
	grpState int8
	hostCl   []int32 // per RC host: platform cluster
	grpCl    []int32 // per group (grpIdx order): platform cluster
	rdBuf    []float64
	grpIdx   hostIndex

	// Small-RC dense path (rc.Net is a platform.PairBandwidthNetwork and
	// the RC is below indexMinHosts, where the heuristics scan every host
	// per task): the m×m pair link classes are tabulated once per call and
	// each edge's transfer time to every class once per plan (or per
	// one-shot call), so the scan's per-(parent, host) transfer time is two
	// table reads instead of an interface call chain and a division (see
	// readyAll). pairState follows grpState: 0 = not attempted this call,
	// 1 = pairCls and quot are filled, 2 = unusable.
	pnet      platform.PairBandwidthNetwork
	pairState int8
	pairCls   []uint8   // row-major m×m link classes (pooled)
	quot      []float64 // edge × class transfer times, nCls per edge (see quotients)
	nCls      int
	quotBuf   []float64 // the one-shot calls' quot (pooled)
	hostRd    []float64 // readyAll's result (pooled)

	// plan is the Plan running on this state (nil for a one-shot call): its
	// quotient table outlives the call, the state's does not.
	plan *Plan

	// Shared per-host scratch for the uniform-network fast path: the
	// per-host max parent finish of the task currently being evaluated,
	// valid where scratchStamp matches stamp. Stamping avoids clearing
	// the arrays between tasks; the stamp survives pooling, so stale
	// entries from a previous schedule can never match. Only one readyFn
	// may use the scratch at a time.
	scratchFin   []float64
	scratchStamp []int64
	stamp        int64

	// sp holds the distinct parent-holding hosts of the task currently in
	// the readyFn: the only hosts whose data-ready time can differ from
	// best1 under a uniform network, or from their group's under a cluster
	// network. Only the indexed host searches read it, so on a cluster
	// network it is filled only at or above indexMinHosts.
	sp []int32

	// Lazily built host-selection indexes (see hostindex.go).
	idIdx    hostIndex
	classIdx hostIndex

	// The one-shot paths (Schedule, TurnAround) compile the heuristic's
	// order into ord with the embedded compiler scratch, which DLS's ready
	// loop also uses; a Plan brings its own order.
	ord order
	orderScratch
}

// stateGets counts state acquisitions (one per Schedule call) and stateNews
// the subset that had to allocate because the pool was empty; the difference
// is how often the allocation-free steady state actually reused scratch.
// The serving layer exposes both (rsgend_sched_state_{gets,allocs}_total) so
// batch amortization — many schedules back to back reusing one warm state —
// is observable in production, not just in benchmarks.
var (
	stateGets atomic.Uint64
	stateNews atomic.Uint64
)

// StatePoolStats reports cumulative scheduler-state pool traffic: gets is
// the number of Schedule calls that acquired a state, allocs the number that
// allocated a fresh one (pool miss). gets − allocs states were reused.
func StatePoolStats() (gets, allocs uint64) {
	return stateGets.Load(), stateNews.Load()
}

var statePool = sync.Pool{New: func() interface{} {
	stateNews.Add(1)
	return new(state)
}}

func newState(d *dag.DAG, rc *platform.ResourceCollection) (*state, error) {
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	n := d.Size()
	m := rc.Size()
	stateGets.Add(1)
	s := statePool.Get().(*state)
	s.d = d
	s.rc = rc
	s.ops = 0
	// finish hands Host/Start/Finish to the returned Schedule and leaves
	// nil here (fresh slices next call); turnAround leaves them in place.
	// start and fin are written by place before any read.
	s.host = growInt(s.host, n)
	s.start = growF64(s.start, n)
	s.fin = growF64(s.fin, n)
	for i := range s.host {
		s.host[i] = -1
	}
	s.free = growF64(s.free, m)
	s.speedup = growF64(s.speedup, m)
	for i, h := range rc.Hosts {
		s.free[i] = 0
		s.speedup[i] = h.Speedup()
	}
	s.idIdx.built = false
	s.classIdx.built = false
	s.grpIdx.built = false
	s.grpState = 0
	s.pairState = 0
	s.uniform = false
	s.cnet = nil
	s.pnet = nil
	if un, ok := rc.Net.(platform.UniformNetwork); ok {
		s.uniform = true
		s.uniformFactor = platform.ReferenceBandwidthMbps / un.Mbps
	} else {
		s.cnet, _ = rc.Net.(platform.ClusterNetwork)
		s.pnet, _ = rc.Net.(platform.PairBandwidthNetwork)
	}
	if s.uniform || s.cnet != nil {
		s.scratchFin = growF64(s.scratchFin, m)
		// scratchStamp entries are guarded by the monotonically increasing
		// stamp, which persists across pooling; only grown space needs
		// zeroing (growI64 zeroes everything, which is just as safe).
		s.scratchStamp = growI64(s.scratchStamp, m)
	}
	return s, nil
}

// groupsOK lazily builds the cluster-group index on first use, returning
// whether the grouped fast path applies: every cluster must be internally
// clock-uniform (true for generated platforms), so that minimizing start
// time within a group also minimizes finish time.
func (s *state) groupsOK() bool {
	if s.grpState != 0 {
		return s.grpState == 1
	}
	m := len(s.rc.Hosts)
	s.hostCl = growI32(s.hostCl, m)
	for i := 0; i < m; i++ {
		s.hostCl[i] = int32(s.cnet.HostCluster(i))
	}
	s.grpIdx.buildGroups(s.hostCl, s.free)
	s.grpCl = s.grpCl[:0]
	hosts := s.rc.Hosts
	lo := 0
	for _, end := range s.grpIdx.classEnd {
		hi := int(end)
		h0 := int(s.grpIdx.perm[lo])
		clk := hosts[h0].ClockGHz
		for p := lo + 1; p < hi; p++ {
			if hosts[s.grpIdx.perm[p]].ClockGHz != clk {
				s.grpState = 2
				s.grpIdx.built = false
				return false
			}
		}
		s.grpCl = append(s.grpCl, s.hostCl[h0])
		lo = hi
	}
	s.rdBuf = growF64(s.rdBuf, len(s.grpCl))
	s.grpState = 1
	return true
}

// groupReadyTimes fills rdBuf with, per cluster group, the data-ready time
// shared by every host of the group that holds none of v's parents (a host
// holding a parent gets that edge for free and is evaluated exactly by the
// caller instead).
func (s *state) groupReadyTimes(v dag.TaskID) []float64 {
	rd := s.rdBuf[:len(s.grpCl)]
	for g := range rd {
		rd[g] = 0
	}
	host := s.host
	fin := s.fin
	for _, p := range s.d.Pred(v) {
		pf := fin[p.Task]
		if p.Cost == 0 {
			for g := range rd {
				if pf > rd[g] {
					rd[g] = pf
				}
			}
			continue
		}
		pcl := int(s.hostCl[host[p.Task]])
		for g := range rd {
			t := pf + s.cnet.ClusterTransferTime(p.Cost, pcl, int(s.grpCl[g]))
			if t > rd[g] {
				rd[g] = t
			}
		}
	}
	return rd
}

// finish assembles the Schedule from the state and returns the state to the
// pool. The state must not be used afterwards.
func (s *state) finish() *Schedule {
	sch := &Schedule{
		Host:     s.host,
		Start:    s.start,
		Finish:   s.fin,
		Makespan: s.makespan(),
		Ops:      s.ops,
	}
	s.host = nil
	s.start = nil
	s.fin = nil
	s.release()
	return sch
}

// turnAround is finish for callers that want only the scalar: the same
// Makespan and Ops a Schedule would carry, with the per-task slices kept as
// scratch for the next call.
func (s *state) turnAround(scr float64) float64 {
	t := SchedulingTime(s.ops, scr) + s.makespan()
	s.release()
	return t
}

func (s *state) makespan() float64 {
	mk := 0.0
	for _, f := range s.fin {
		if f > mk {
			mk = f
		}
	}
	return mk
}

// release drops the state's references to the caller's inputs, the plan and
// the plan's quotient table among them, and returns it to the pool.
func (s *state) release() {
	s.d = nil
	s.rc = nil
	s.cnet = nil
	s.pnet = nil
	s.plan = nil
	s.quot = nil
	statePool.Put(s)
}

func growInt(b []int, n int) []int {
	if cap(b) < n {
		return make([]int, n)
	}
	return b[:n]
}

func growF64(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}

func growI64(b []int64, n int) []int64 {
	if cap(b) < n {
		return make([]int64, n)
	}
	return b[:n]
}

func growI32(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n)
	}
	return b[:n]
}

func growU8(b []uint8, n int) []uint8 {
	if cap(b) < n {
		return make([]uint8, n)
	}
	return b[:n]
}

// execTime returns the execution time of a task of the given reference cost
// on RC host h: the uniform-processor scaling of §III.1.2.
func (s *state) execTime(cost float64, h int) float64 {
	return cost / s.speedup[h]
}

// identityIndex returns the host-order free-time index, building it from
// the current free times on first use (place keeps it in sync afterwards).
func (s *state) identityIndex() *hostIndex {
	if !s.idIdx.built {
		s.idIdx.buildIdentity(s.free)
	}
	return &s.idIdx
}

// classIndex returns the speed-class free-time index (fastest class first).
func (s *state) classIndex() *hostIndex {
	if !s.classIdx.built {
		s.classIdx.buildClasses(s.rc.Hosts, s.free)
	}
	return &s.classIdx
}

// readyFn captures, for one task whose parents are all scheduled, the
// host-dependent data-ready time. For uniform networks evaluation is O(1)
// per host after O(parents) setup; otherwise O(parents) per host.
type readyFn struct {
	s *state
	v dag.TaskID

	// Fast path (uniform network): off-host max of finish+transfer over
	// up to two distinct hosts, plus per-host max parent finish in the
	// state's stamped scratch arrays.
	best1, best2         float64 // top-2 finish+transfer over distinct hosts
	bestHost1, bestHost2 int
	stamp                int64 // scratch validity tag
	fast                 bool
}

// readyTimes builds task v's readyFn. The result is invalidated by the next
// readyTimes call on the same state. As a side effect it leaves the distinct
// parent-holding hosts in s.sp for the indexed host-selection paths: always
// under a uniform network, and under a cluster network only at or above
// indexMinHosts, the only sizes where those paths run.
func (s *state) readyTimes(v dag.TaskID) readyFn {
	r := readyFn{s: s, v: v, bestHost1: -1, bestHost2: -1, fast: s.uniform}
	if !r.fast && (s.cnet == nil || len(s.rc.Hosts) < indexMinHosts) {
		return r
	}
	// On a cluster network at() stays the exact per-parent path, but the
	// grouped host selection needs the parent-holding hosts stamped (they
	// are the only hosts whose data-ready time differs from their group's).
	// Below the gate the hosts are scanned instead.
	s.stamp++
	r.stamp = s.stamp
	s.sp = s.sp[:0]
	host, fin := s.host, s.fin
	for _, p := range s.d.Pred(v) {
		ph := host[p.Task]
		f := fin[p.Task]
		if s.scratchStamp[ph] == r.stamp {
			if f > s.scratchFin[ph] {
				s.scratchFin[ph] = f
			}
		} else {
			s.scratchFin[ph] = f
			s.scratchStamp[ph] = r.stamp
			s.sp = append(s.sp, int32(ph))
		}
		if !r.fast {
			continue
		}
		// Transfer cost to any *other* host is locality-independent
		// under a uniform network.
		t := f + p.Cost*s.uniformFactor
		if ph == r.bestHost1 {
			if t > r.best1 {
				r.best1 = t
			}
		} else if t > r.best1 {
			if r.bestHost1 != -1 {
				r.best2, r.bestHost2 = r.best1, r.bestHost1
			}
			r.best1, r.bestHost1 = t, ph
		} else if ph != r.bestHost1 && t > r.best2 {
			r.best2, r.bestHost2 = t, ph
		}
	}
	return r
}

// at returns the data-ready time of task v on host h.
func (r *readyFn) at(h int) float64 {
	s := r.s
	if r.fast {
		var ready float64
		if s.scratchStamp[h] == r.stamp {
			ready = s.scratchFin[h]
		}
		if r.bestHost1 != h {
			if r.best1 > ready {
				ready = r.best1
			}
		} else if r.best2 > ready {
			ready = r.best2
		}
		return ready
	}
	ready := 0.0
	net := s.rc.Net
	host := s.host
	fin := s.fin
	for _, p := range s.d.Pred(r.v) {
		t := fin[p.Task] + net.TransferTime(p.Cost, host[p.Task], h)
		if t > ready {
			ready = t
		}
	}
	return ready
}

// readyAll returns the data-ready time of task v on every host, valid until
// the next readyAll call on the same state: what the heuristics' linear
// scans — the paths that evaluate every host for every task — read instead
// of building a readyFn and calling at per host. On a small RC whose network
// tabulates link classes the values come from the dense tables, one parent
// (one contiguous class row) at a time: the parent's finish plus the edge's
// transfer time to the class of each (parent host, host) pair. Every
// quotient is Platform.TransferTime's own division over the same operands,
// done once per class instead of once per host, and a maximum does not
// depend on the order its terms are visited in, so every value is
// bit-identical to at(h). Without the tables (see pairTable; a platform
// with more than platform.MaxLinkSpeeds speeds declines them) every value
// is at(h).
func (s *state) readyAll(v dag.TaskID) []float64 {
	m := len(s.rc.Hosts)
	s.hostRd = growF64(s.hostRd, m)
	rd := s.hostRd
	if !s.pairTable() {
		r := s.readyTimes(v)
		for h := range rd {
			rd[h] = r.at(h)
		}
		return rd
	}
	clear(rd)
	k := s.nCls
	host, fin := s.host, s.fin
	e := s.d.PredBase(v)
	for _, p := range s.d.Pred(v) {
		f := fin[p.Task]
		q := s.quot[e*k : (e+1)*k]
		e++
		ph := host[p.Task]
		row := s.pairCls[ph*m : (ph+1)*m]
		rd := rd[:len(row)]
		for h, c := range row {
			if t := f + q[c]; t > rd[h] {
				rd[h] = t
			}
		}
	}
	return rd
}

// pairTable reports whether this call schedules from the dense tables,
// filling them on first use. The class table has m² entries and a scan
// reads one per (edge, host), so it is filled only when the DAG has at
// least m edges: never more writes than the reads they replace.
func (s *state) pairTable() bool {
	if s.pairState == 0 {
		s.pairState = 2
		m := len(s.rc.Hosts)
		if s.pnet != nil && m < indexMinHosts && s.d.NumEdges() >= m {
			s.pairCls = growU8(s.pairCls, m*m)
			if ls := s.pnet.PairBandwidths(s.pairCls); ls != nil {
				s.quot = s.quotients(ls)
				s.nCls = len(ls.Mbps)
				s.pairState = 1
			}
		}
	}
	return s.pairState == 1
}

// quotients returns the transfer times of s's DAG under ls: the plan's
// table, built on the plan's first call on ls's platform, or for a one-shot
// call the state's pooled scratch filled afresh.
func (s *state) quotients(ls *platform.LinkSpeeds) []float64 {
	p := s.plan
	if p == nil {
		s.quotBuf = fillQuotients(s.quotBuf, s.d, ls.Mbps)
		return s.quotBuf
	}
	if t := p.quot.Load(); t != nil && t.speeds == ls {
		return t.q
	}
	t := &quotTable{speeds: ls, q: fillQuotients(nil, s.d, ls.Mbps)}
	p.quot.Store(t) // racing builders compute identical tables
	return t.q
}

// quotTable is a Plan's quotient table and the speed table it was built for.
type quotTable struct {
	speeds *platform.LinkSpeeds
	q      []float64
}

// fillQuotients writes, for every edge of d in PredBase order, its transfer
// time over each link class: len(mbps) entries per edge, q[e*len(mbps)+k].
// Class 0, the free pair, is 0. Every other entry is Platform.TransferTime's
// edgeCost * ReferenceBandwidthMbps / bandwidth, so a cost whose product
// overflows gets +Inf there, as TransferTime does; a zero cost gets 0
// everywhere, as TransferTime returns without dividing.
func fillQuotients(q []float64, d *dag.DAG, mbps []float64) []float64 {
	k := len(mbps)
	q = growF64(q, d.NumEdges()*k)
	e := 0
	for v := range d.Size() {
		for _, p := range d.Pred(dag.TaskID(v)) {
			row := q[e*k : (e+1)*k]
			e++
			clear(row)
			if p.Cost == 0 {
				continue
			}
			c := p.Cost * platform.ReferenceBandwidthMbps
			for j := 1; j < k; j++ {
				row[j] = c / mbps[j]
			}
		}
	}
	return q
}

// place commits task v to host h with the given start time, keeping any
// built host index in sync with the new free time.
func (s *state) place(v dag.TaskID, h int, start float64) {
	exec := s.execTime(s.d.Task(v).Cost, h)
	s.host[v] = h
	s.start[v] = start
	f := start + exec
	s.fin[v] = f
	if f > s.free[h] {
		s.free[h] = f
		if s.idIdx.built {
			s.idIdx.update(h, f)
		}
		if s.classIdx.built {
			s.classIdx.update(h, f)
		}
		if s.grpIdx.built {
			s.grpIdx.update(h, f)
		}
	}
}

// minFinishHost evaluates the hosts for task v and returns the one with the
// earliest finish time (insertion-free end-of-queue policy), charging
// m × (1 + parents) ops: the per-(task, host) pair cost of the classic MCP
// implementation, which recomputes the data-ready time from the parents for
// every candidate host. The ops are deliberately the 2007-era
// implementation's complexity — the dissertation's own Table V-2 shows the
// knee saturating and dipping at α = 0.9, the signature of a scheduling
// cost that grows with edge count × hosts — while the actual search runs on
// the bucketed index for uniform networks: only the parent-holding hosts
// and one provably optimal candidate per speed class can win, with the
// linear scan's (finish, start, index) tie-breaking reproduced exactly.
func (s *state) minFinishHost(v dag.TaskID) (int, float64) {
	cost := s.d.Task(v).Cost
	m := len(s.rc.Hosts)
	var bestH int
	var bestStart float64
	if s.uniform && m >= indexMinHosts {
		ready := s.readyTimes(v)
		bestH, bestStart = s.minFinishFast(&ready, cost)
	} else if s.cnet != nil && m >= indexMinHosts && s.groupsOK() {
		ready := s.readyTimes(v)
		bestH, bestStart = s.minFinishGrouped(&ready, v, cost)
	} else {
		bestFin := math.Inf(1)
		bestH, bestStart = 0, math.Inf(1)
		for h, r := range s.readyAll(v) {
			st := s.free[h]
			if r > st {
				st = r
			}
			fin := st + s.execTime(cost, h)
			if fin < bestFin || (fin == bestFin && st < bestStart) {
				bestH, bestStart, bestFin = h, st, fin
			}
		}
	}
	s.ops += float64(m) * float64(1+s.d.NumPred(v))
	return bestH, bestStart
}

// indexMinHosts gates the segment-tree host selection: below this host
// count the plain O(m) scan is faster than the index's O(parents · log m)
// bookkeeping. Both paths compute the identical lexicographic argmin (see
// TestIndexedHostSelectionMatchesScan); the variable exists so tests can
// force either path.
var indexMinHosts = 128

// minFinishFast is the uniform-network bucketed host search. Every host
// holding no parent data has data-ready time best1, so within one speed
// class the scan's lexicographic (finish, start, index) minimum is the
// class's earliestStart candidate. Parent-holding hosts are evaluated
// exactly. The search starts from the scan's initial (0, +Inf), so a task
// that can start nowhere before +Inf gets the scan's answer too.
func (s *state) minFinishFast(ready *readyFn, cost float64) (int, float64) {
	ci := s.classIndex()
	bestH, bestStart, bestFin := 0, math.Inf(1), math.Inf(1)
	consider := func(h int, st float64) {
		fin := st + s.execTime(cost, h)
		if fin < bestFin ||
			(fin == bestFin && (st < bestStart || (st == bestStart && h < bestH))) {
			bestH, bestStart, bestFin = h, st, fin
		}
	}
	s.considerParentHosts(ready, consider)
	lo := 0
	for _, end := range ci.classEnd {
		if h, st, ok := s.earliestStart(ci, lo, int(end), ready.best1, ready.stamp); ok {
			consider(h, st)
		}
		lo = int(end)
	}
	ci.unmaskAll()
	return bestH, bestStart
}

// minFinishGrouped is the cluster-network bucketed host search: every host
// of a cluster group that holds no parent shares the group data-ready time
// rd[g], and groups are clock-uniform, so each group contributes one
// provably optimal candidate exactly as in minFinishFast.
func (s *state) minFinishGrouped(ready *readyFn, v dag.TaskID, cost float64) (int, float64) {
	gi := &s.grpIdx
	bestH, bestStart, bestFin := 0, math.Inf(1), math.Inf(1)
	consider := func(h int, st float64) {
		fin := st + s.execTime(cost, h)
		if fin < bestFin ||
			(fin == bestFin && (st < bestStart || (st == bestStart && h < bestH))) {
			bestH, bestStart, bestFin = h, st, fin
		}
	}
	s.considerParentHosts(ready, consider)
	rd := s.groupReadyTimes(v)
	lo := 0
	for g, end := range gi.classEnd {
		if h, st, ok := s.earliestStart(gi, lo, int(end), rd[g], ready.stamp); ok {
			consider(h, st)
		}
		lo = int(end)
	}
	gi.unmaskAll()
	return bestH, bestStart
}

// minStartGrouped is minFinishGrouped for the Greedy (minimum start) rule.
func (s *state) minStartGrouped(ready *readyFn, v dag.TaskID) (int, float64) {
	gi := &s.grpIdx
	bestH, bestStart := 0, math.Inf(1)
	consider := func(h int, st float64) {
		if st < bestStart || (st == bestStart && h < bestH) {
			bestH, bestStart = h, st
		}
	}
	s.considerParentHosts(ready, consider)
	rd := s.groupReadyTimes(v)
	lo := 0
	for g, end := range gi.classEnd {
		if h, st, ok := s.earliestStart(gi, lo, int(end), rd[g], ready.stamp); ok {
			consider(h, st)
		}
		lo = int(end)
	}
	gi.unmaskAll()
	return bestH, bestStart
}

// considerParentHosts hands every parent-holding host of ready's task, with
// its exact start time, to consider.
func (s *state) considerParentHosts(ready *readyFn, consider func(h int, st float64)) {
	for _, ph := range s.sp {
		h := int(ph)
		st := s.free[h]
		if r := ready.at(h); r > st {
			st = r
		}
		consider(h, st)
	}
}

// earliestStart returns the host among leaves [lo, hi) of x on which a task
// whose data reaches every host without a parent at thr starts earliest,
// under the scan's tie-break: the lowest-index host already free at thr,
// failing that the earliest-free host — one segment-tree query each.
// Parent-holding hosts (stamped with stamp) are evaluated exactly by the
// caller, so they are skipped. Instead of eagerly masking every parent host
// (O(parents·log m) tree updates), it queries first and masks only on
// conflict: the leftmost winner is rarely a parent host when m is large.
// The caller unmasks. ok is false when every host in range is masked, and
// when thr is +Inf: a host starting then cannot beat the scan's initial
// (0, +Inf), and a masked leaf's +Inf would satisfy the query forever.
func (s *state) earliestStart(x *hostIndex, lo, hi int, thr float64, stamp int64) (h int, start float64, ok bool) {
	if math.IsInf(thr, 1) {
		return 0, 0, false
	}
	for {
		if p := x.tree.leftmostLE(lo, hi, thr); p >= 0 {
			// Free no later than thr: the minimum start is exactly thr,
			// achieved first by the lowest host index (leaves ascend by
			// index within a class).
			h := x.hostAt(p)
			if s.scratchStamp[h] == stamp {
				x.mask(h)
				continue
			}
			return h, thr, true
		}
		// Every host in range waits for its own free time.
		val, p := x.tree.argmin(lo, hi)
		if p < 0 || math.IsInf(val, 1) {
			return 0, 0, false
		}
		h := x.hostAt(p)
		if s.scratchStamp[h] == stamp {
			x.mask(h)
			continue
		}
		return h, val, true
	}
}

// minStartHost is minFinishHost but minimizes start time, ignoring host
// speed: the Greedy policy of Fig. IV-3. Charges m ops (Greedy evaluates
// only availability, not per-parent costs).
func (s *state) minStartHost(v dag.TaskID) (int, float64) {
	m := len(s.rc.Hosts)
	var bestH int
	var bestStart float64
	if s.uniform && m >= indexMinHosts {
		ready := s.readyTimes(v)
		ii := s.identityIndex()
		bestH, bestStart = 0, math.Inf(1)
		consider := func(h int, st float64) {
			if st < bestStart || (st == bestStart && h < bestH) {
				bestH, bestStart = h, st
			}
		}
		s.considerParentHosts(&ready, consider)
		if h, st, ok := s.earliestStart(ii, 0, m, ready.best1, ready.stamp); ok {
			consider(h, st)
		}
		ii.unmaskAll()
	} else if s.cnet != nil && m >= indexMinHosts && s.groupsOK() {
		ready := s.readyTimes(v)
		bestH, bestStart = s.minStartGrouped(&ready, v)
	} else {
		bestH, bestStart = 0, math.Inf(1)
		for h, r := range s.readyAll(v) {
			st := s.free[h]
			if r > st {
				st = r
			}
			if st < bestStart {
				bestH, bestStart = h, st
			}
		}
	}
	s.ops += float64(m)
	return bestH, bestStart
}
