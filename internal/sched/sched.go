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
	"slices"
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

// Heuristic is a DAG scheduling algorithm. The interface is sealed: every
// heuristic is this package's, written in two halves (see plan.go). compile
// derives the placement order from the DAG alone, and run places every task
// of a prepared state by replaying it; DLS and MinMin pick each next task by
// the collection's free times, so their compile leaves o alone and their run
// ignores it. Heuristic values are comparable.
type Heuristic interface {
	// Name returns the canonical short name (MCP, Greedy, DLS, FCA, FCFS).
	Name() string
	// Schedule maps every task of d onto rc. It panics only on programmer
	// error (nil inputs); an empty RC returns an error.
	Schedule(d *dag.DAG, rc *platform.ResourceCollection) (*Schedule, error)

	compile(d *dag.DAG, o *order, sc *orderScratch)
	run(s *state, o *order)
}

// TurnAround returns exactly h.Schedule(d, rc).TurnAround(scr) — the
// §III.2.3 objective — from a single-use Plan, without materializing the
// Schedule. It is the one turn-around predictor of the serving path: the
// broker's bind-time promise calls it, and the moga objective calls the same
// Plan.TurnAround on a plan compiled once per search, so the accuracy series
// scores the estimate selection optimized.
func TurnAround(h Heuristic, d *dag.DAG, rc *platform.ResourceCollection, scr float64) (float64, error) {
	return Compile(h, d).TurnAround(rc, scr)
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

// state is the shared bookkeeping for all list-scheduling heuristics: one
// Plan placing its DAG on one collection. States are pooled: everything
// except the returned Host/Start/Finish slices is scratch reused across
// calls, so the steady-state inner loop allocates nothing. Plan.TurnAround
// does not hand those three slices out, so they stay with the state.
type state struct {
	plan  *Plan
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

	// Speed classes (rc.Net is a platform.SpeedClassNetwork whose platform
	// lists every RC host's clock): hostSpd[h] is host h's class and exec
	// the plan's task × class execution times, nSpd per task (see
	// speedTable), so minFinishHost's scan reads an execution time instead
	// of dividing. spdState follows pairState: 0 = not attempted this
	// call, 1 = hostSpd and exec are filled, 2 = unusable.
	spdState int8
	hostSpd  []uint8
	exec     []float64
	nSpd     int

	uniform       bool // rc.Net is a UniformNetwork: locality-only transfer costs
	uniformFactor float64

	// Cluster-network fast path (rc.Net is a platform.ClusterNetwork, e.g.
	// the universe RC): transfer time between distinct hosts depends only
	// on the cluster pair, so per-task data-ready times collapse to one
	// value per cluster. grpState tracks the lazily built group tables:
	// 0 = not attempted this call, 1 = usable, 2 = unusable.
	cnet     platform.ClusterNetwork
	grpState int8
	hostCl   []int32   // per RC host: platform cluster
	hostGrp  []int32   // per RC host: group
	grpCl    []int32   // per group (grpIdx order): platform cluster
	grpBW    []float64 // row-major k×k bandwidths between the k groups
	rdBuf    []float64
	grpIdx   hostIndex

	// Small-RC dense path (rc.Net is a platform.PairBandwidthNetwork and
	// the RC is below indexMinHosts, where the heuristics scan every host
	// per task): the m×m pair link classes are tabulated once per call and
	// each edge's transfer time to every class once per plan, so the scan's
	// per-(parent, host) transfer time is two table reads instead of an
	// interface call chain and a division (see readyAll). pairState follows
	// grpState: 0 = not attempted this call, 1 = pairCls and quot are
	// filled, 2 = unusable.
	pnet      platform.PairBandwidthNetwork
	pairState int8
	pairCls   []uint8   // row-major m×m link classes (pooled)
	quot      []float64 // the plan's edge × class transfer times, nCls per edge (see pairTable)
	nCls      int
	hostRd    []float64 // readyAll's result (pooled)

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
	// network. Only indexedHost reads it, so on a cluster network it is
	// filled only at or above indexMinHosts.
	sp []int32

	// Lazily built host-selection indexes (see hostindex.go).
	idIdx    hostIndex
	classIdx hostIndex

	// DLS's ready loop runs on an order compiler's scratch.
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

// newState prepares a pooled state for placing p's DAG on rc.
func newState(p *Plan, rc *platform.ResourceCollection) (*state, error) {
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	d := p.d
	n := d.Size()
	m := rc.Size()
	stateGets.Add(1)
	s := statePool.Get().(*state)
	s.plan = p
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
	s.spdState = 0
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

// groupsOK lazily builds the cluster-group index and the groups' bandwidth
// table on first use, returning whether the grouped fast path applies:
// every cluster must be internally clock-uniform (true for generated
// platforms), so that minimizing start time within a group also minimizes
// finish time.
func (s *state) groupsOK() bool {
	if s.grpState != 0 {
		return s.grpState == 1
	}
	hosts := s.rc.Hosts
	m := len(hosts)
	// A host listed twice gets its twin's parent data for free, which no
	// group's data-ready time describes: such a collection is scanned.
	// hostGrp holds the sorted host IDs until it is filled below.
	s.hostGrp = growI32(s.hostGrp, m)
	for i, h := range hosts {
		s.hostGrp[i] = int32(h.ID)
	}
	slices.Sort(s.hostGrp)
	if len(slices.Compact(s.hostGrp)) < m {
		s.grpState = 2
		return false
	}
	s.hostCl = growI32(s.hostCl, m)
	for i := 0; i < m; i++ {
		s.hostCl[i] = int32(s.cnet.HostCluster(i))
	}
	s.grpIdx.buildGroups(s.hostCl, s.free)
	s.grpCl = s.grpCl[:0]
	lo := 0
	for g, end := range s.grpIdx.classEnd {
		hi := int(end)
		h0 := int(s.grpIdx.perm[lo])
		clk := hosts[h0].ClockGHz
		for p := lo; p < hi; p++ {
			h := s.grpIdx.perm[p]
			if hosts[h].ClockGHz != clk {
				s.grpState = 2
				s.grpIdx.built = false
				return false
			}
			s.hostGrp[h] = int32(g)
		}
		s.grpCl = append(s.grpCl, s.hostCl[h0])
		lo = hi
	}
	k := len(s.grpCl)
	s.rdBuf = growF64(s.rdBuf, k)
	s.grpBW = growF64(s.grpBW, k*k)
	for a, ca := range s.grpCl {
		for b := a; b < k; b++ {
			s.grpBW[a*k+b] = s.cnet.ClusterBandwidth(int(ca), int(s.grpCl[b]))
			s.grpBW[b*k+a] = s.grpBW[a*k+b]
		}
	}
	s.grpState = 1
	return true
}

// groupReadyTimes fills rdBuf with, per cluster group, the data-ready time
// shared by every host of the group that holds none of v's parents (a host
// holding a parent gets that edge for free and is evaluated exactly by the
// caller instead), each transfer by TransferTime's own division.
func (s *state) groupReadyTimes(v dag.TaskID) []float64 {
	k := len(s.grpCl)
	rd := s.rdBuf[:k]
	clear(rd)
	host := s.host
	fin := s.fin
	for _, p := range s.d.Pred(v) {
		pf := fin[p.Task]
		if p.Cost == 0 {
			for g := range rd {
				rd[g] = max(rd[g], pf)
			}
			continue
		}
		c := p.Cost * platform.ReferenceBandwidthMbps
		pg := int(s.hostGrp[host[p.Task]])
		for g, bw := range s.grpBW[pg*k : (pg+1)*k] {
			rd[g] = max(rd[g], pf+c/bw)
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
// the plan's tables among them, and returns it to the pool.
func (s *state) release() {
	s.d = nil
	s.rc = nil
	s.cnet = nil
	s.pnet = nil
	s.plan = nil
	s.quot = nil
	s.exec = nil
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
// parent-holding hosts in s.sp for indexedHost: always under a uniform
// network, and under a cluster network only at or above indexMinHosts, the
// only sizes where that search runs.
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
			rd[h] = max(rd[h], f+q[c])
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
				s.quot = planned(&s.plan.quot, ls, func() []float64 { return fillQuotients(s.d, ls.Mbps) })
				s.nCls = len(ls.Mbps)
				s.pairState = 1
			}
		}
	}
	return s.pairState == 1
}

// planTable is a table a Plan keeps and the platform table it was built
// from: the DAG's transfer times under one platform's link classes, or its
// execution times under one platform's speed classes. A plan scored on
// another platform's collection rebuilds it.
type planTable[K any] struct {
	key  *K
	vals []float64
}

// planned returns the table in slot when it was built from key, and
// otherwise fills, publishes and returns a fresh one.
func planned[K any](slot *atomic.Pointer[planTable[K]], key *K, fill func() []float64) []float64 {
	if t := slot.Load(); t != nil && t.key == key {
		return t.vals
	}
	t := &planTable[K]{key: key, vals: fill()}
	slot.Store(t) // racing builders compute identical tables
	return t.vals
}

// fillQuotients writes, for every edge of d in PredBase order, its transfer
// time over each link class: len(mbps) entries per edge, q[e*len(mbps)+k].
// Class 0, the free pair, is 0. Every other entry is Platform.TransferTime's
// edgeCost * ReferenceBandwidthMbps / bandwidth, so a cost whose product
// overflows gets +Inf there, as TransferTime does; a zero cost gets 0
// everywhere, as TransferTime returns without dividing.
func fillQuotients(d *dag.DAG, mbps []float64) []float64 {
	k := len(mbps)
	q := make([]float64, d.NumEdges()*k)
	e := 0
	for v := range d.Size() {
		for _, p := range d.Pred(dag.TaskID(v)) {
			row := q[e*k : (e+1)*k]
			e++
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

// speedTable reports whether this call's minFinishHost scan reads execution
// times from the speed-class tables, filling them on first use: every RC
// host's class, found by its clock in the platform's table, and the DAG's
// task × class execution times (see fillExecTimes), which the plan keeps
// for its later calls on the same platform.
func (s *state) speedTable() bool {
	if s.spdState == 0 {
		s.spdState = 2
		sn, ok := s.rc.Net.(platform.SpeedClassNetwork)
		if !ok {
			return false
		}
		sc := sn.SpeedClasses()
		m := len(s.rc.Hosts)
		if sc == nil {
			return false
		}
		s.hostSpd = growU8(s.hostSpd, m)
		for h, host := range s.rc.Hosts {
			k, ok := sc.Class(host.ClockGHz)
			if !ok {
				return false
			}
			s.hostSpd[h] = k
		}
		s.exec = planned(&s.plan.exec, sc, func() []float64 { return fillExecTimes(s.d, sc.Speedup) })
		s.nSpd = len(sc.Speedup)
		s.spdState = 1
	}
	return s.spdState == 1
}

// fillExecTimes writes, for every task of d, its execution time on each
// speed class: len(speedup) entries per task, x[v*len(speedup)+k]. Each is
// execTime's division over the same operands, since a host's class speedup
// is its own Speedup() bit for bit.
func fillExecTimes(d *dag.DAG, speedup []float64) []float64 {
	k := len(speedup)
	x := make([]float64, d.Size()*k)
	for v := range d.Size() {
		cost := d.Task(dag.TaskID(v)).Cost
		for j, sp := range speedup {
			x[v*k+j] = cost / sp
		}
	}
	return x
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
// the bucketed index where it beats the scan (see indexedHost), with the
// linear scan's (finish, start, index) tie-breaking reproduced exactly.
func (s *state) minFinishHost(v dag.TaskID) (int, float64) {
	m := len(s.rc.Hosts)
	s.ops += float64(m) * float64(1+s.d.NumPred(v))
	if m >= indexMinHosts {
		if h, st, ok := s.indexedHost(v, true); ok {
			return h, st
		}
	}
	return s.minFinishScan(v, s.d.Task(v).Cost)
}

// minFinishScan is minFinishHost's linear scan: a host's start is the later
// of its free time and the task's data-ready time there, and the earliest
// finish wins, then the earlier start, then the lower index. Every start and
// finish is non-negative and not NaN (costs are, and Validate rejects clocks
// and bandwidths that are not positive and finite), so their bit patterns
// order as their values do. Comparing those integers lets the compiler keep
// the running minimum with conditional moves, not with branches that follow
// the data; only the rare exact tie on finish keeps a branch. Execution
// times come from the speed-class table when there is one: the same
// quotients, read instead of divided.
func (s *state) minFinishScan(v dag.TaskID, cost float64) (int, float64) {
	rd := s.readyAll(v)
	free := s.free[:len(rd)]
	bestH := 0
	bestStart, bestFin := infBits, infBits
	if s.speedTable() {
		x := s.exec[int(v)*s.nSpd : (int(v)+1)*s.nSpd]
		cls := s.hostSpd[:len(rd)]
		for h, r := range rd {
			st := max(free[h], r)
			fin, start := math.Float64bits(st+x[cls[h]]), math.Float64bits(st)
			if fin == bestFin {
				if start < bestStart {
					bestH, bestStart = h, start
				}
				continue
			}
			if fin < bestFin {
				bestH, bestStart, bestFin = h, start, fin
			}
		}
	} else {
		speedup := s.speedup[:len(rd)]
		for h, r := range rd {
			st := max(free[h], r)
			fin, start := math.Float64bits(st+cost/speedup[h]), math.Float64bits(st)
			if fin == bestFin {
				if start < bestStart {
					bestH, bestStart = h, start
				}
				continue
			}
			if fin < bestFin {
				bestH, bestStart, bestFin = h, start, fin
			}
		}
	}
	return bestH, math.Float64frombits(bestStart)
}

// infBits is math.Float64bits(math.Inf(1)), above every other non-NaN,
// non-negative float's bit pattern.
const infBits uint64 = 0x7ff0_0000_0000_0000

// indexMinHosts gates the segment-tree host selection: below this host
// count the plain O(m) scan is faster than the index's O(parents · log m)
// bookkeeping. Both paths compute the identical lexicographic argmin (see
// TestIndexedHostSelectionMatchesScan); the variable exists so tests can
// force either path.
var indexMinHosts = 128

// minHostsPerBucket is the second half of the gate: the index is searched
// only while it has at least this many hosts per bucket, since each bucket
// costs a segment-tree query or two where the scan reads one host. The
// break-even was measured with a 400-task DAG (CCR 0.2, MCP, 2 vCPU) on
// 256- and 512-host uniform networks with m/9 speed classes (index 7–9 %
// slower than the scan) and m/10 (4–5 % faster), and on cluster networks
// with 7 hosts per cluster (index 16 % slower) and 9 (25 % faster); one
// constant serves both. HeterogeneousRC draws a clock per host, so its
// class index has a bucket per host and is scanned. A variable so tests can
// force the index on any collection.
var minHostsPerBucket = 10

// indexedHost is the bucketed host search behind minFinishHost (byFinish)
// and minStartHost, on the index bucketIndex picks; ok is false when there
// is none and the caller scans. Parent-holding hosts are evaluated exactly.
// Every other host of a bucket shares one data-ready time — best1 under a
// uniform network, its group's under a cluster network — and one clock, so
// the bucket's earliestStart host is its only candidate under the scan's
// (finish, start, index) or (start, index) order. The search starts from
// the scan's initial (0, +Inf), so a task that can start nowhere before
// +Inf gets the scan's answer too.
func (s *state) indexedHost(v dag.TaskID, byFinish bool) (int, float64, bool) {
	x := s.bucketIndex(byFinish)
	if x == nil {
		return 0, 0, false
	}
	// Greedy ranks by (start, index): the finish rule with a zero cost,
	// whose execution time 0/speedup adds nothing to a start.
	var cost float64
	if byFinish {
		cost = s.d.Task(v).Cost
	}
	ready := s.readyTimes(v)
	bestH, bestStart, bestFin := 0, math.Inf(1), math.Inf(1)
	consider := func(h int, st float64) {
		fin := st + s.execTime(cost, h)
		if fin < bestFin ||
			(fin == bestFin && (st < bestStart || (st == bestStart && h < bestH))) {
			bestH, bestStart, bestFin = h, st, fin
		}
	}
	for _, ph := range s.sp {
		h := int(ph)
		st := s.free[h]
		if r := ready.at(h); r > st {
			st = r
		}
		consider(h, st)
	}
	var rd []float64
	if !s.uniform {
		rd = s.groupReadyTimes(v)
	}
	thr, lo := ready.best1, 0
	for g, end := range x.classEnd {
		if rd != nil {
			thr = rd[g]
		}
		if h, st, ok := s.earliestStart(x, lo, int(end), thr, ready.stamp); ok {
			consider(h, st)
		}
		lo = int(end)
	}
	x.unmaskAll()
	return bestH, bestStart, true
}

// bucketIndex returns the index indexedHost searches, or nil where the
// scan is used instead: under a uniform network the speed-class index for
// the finish rule and the one-bucket identity index for the start rule;
// under a cluster network the group index (see groupsOK). An index with
// fewer than minHostsPerBucket hosts per bucket is declined.
func (s *state) bucketIndex(byFinish bool) *hostIndex {
	var x *hostIndex
	switch {
	case !s.uniform:
		if s.cnet == nil || !s.groupsOK() {
			return nil
		}
		x = &s.grpIdx
	case byFinish:
		x = s.classIndex()
	default:
		x = s.identityIndex()
	}
	if len(x.classEnd)*minHostsPerBucket > x.m {
		return nil
	}
	return x
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
	s.ops += float64(m)
	if m >= indexMinHosts {
		if h, st, ok := s.indexedHost(v, false); ok {
			return h, st
		}
	}
	bestH, bestStart := 0, math.Inf(1)
	for h, r := range s.readyAll(v) {
		st := s.free[h]
		if r > st {
			st = r
		}
		if st < bestStart {
			bestH, bestStart = h, st
		}
	}
	return bestH, bestStart
}
