package sched

import (
	"sync"
	"sync/atomic"

	"rsgen/internal/dag"
	"rsgen/internal/platform"
)

// Order once, place many. Six of the eight heuristics (MCP, FCA, Greedy,
// FCFS, Random, RoundRobin) place tasks in an order that depends on the DAG
// alone: a ready list keyed by DAG-only priorities, fed by DAG-only in-degree
// counts. Only the host each task lands on depends on the collection. So the
// ready loop runs once, with no collection in sight, and records the order
// together with every op it charges along the way; scheduling on a
// collection then replays that order through the heuristic's host choice.
// The ops are added in the interleaved loop's exact sequence — the ones
// charged before the first placement, then per task the pick's charge
// followed by the host choice's — so Ops, a floating-point sum whose value
// depends on the order of its terms, keeps every bit. DLS and MinMin choose
// the next task by the collection's free times and keep their own loops.

// order is a heuristic's placement order compiled from the DAG alone:
// tasks in the order they are placed, pre the ops charged before the first
// placement, and pick[i] (when present) the ops charged for picking tasks[i]
// just before it is placed.
type order struct {
	tasks []dag.TaskID
	pick  []float64
	pre   float64
}

// orderScratch is an order compiler's working storage.
type orderScratch struct {
	unmet []int32
	ready []dag.TaskID
	heap  taskHeap

	// MCP key scratch (flat lexicographic keys).
	keyBuf []float64
	lenBuf []int32
}

// Plan is a heuristic compiled for one DAG: the placement order and its
// DAG-only ops, computed once, so that scoring many collections pays only
// for the host choices. Every schedule runs from a Plan; Heuristic.Schedule
// and TurnAround compile a single-use one. The first small collection scored
// also leaves the DAG's edge × link-class transfer times (see pairTable) and
// task × speed-class execution times (see speedTable) with the plan, so
// later ones on the same platform divide nothing; the tables live exactly as
// long as the plan. A Plan is safe for concurrent use: the tables are
// published atomically, and everything else is read-only after Compile.
type Plan struct {
	h    Heuristic
	d    *dag.DAG
	o    order
	quot atomic.Pointer[planTable[platform.LinkSpeeds]]
	exec atomic.Pointer[planTable[platform.SpeedClasses]]
}

// orderScratchPool lends Compile its working storage, so a single-use plan
// allocates only the order it keeps.
var orderScratchPool = sync.Pool{New: func() any { return new(orderScratch) }}

// Compile prepares h for repeated scheduling of d.
func Compile(h Heuristic, d *dag.DAG) *Plan {
	p := &Plan{h: h, d: d}
	sc := orderScratchPool.Get().(*orderScratch)
	h.compile(d, &p.o, sc)
	orderScratchPool.Put(sc)
	return p
}

// Schedule places every task of the plan's DAG on rc: exactly what
// h.Schedule(d, rc) returns, for a plan reused across collections as for a
// fresh one.
func (p *Plan) Schedule(rc *platform.ResourceCollection) (*Schedule, error) {
	s, err := newState(p, rc)
	if err != nil {
		return nil, err
	}
	p.h.run(s, &p.o)
	return s.finish(), nil
}

// TurnAround returns exactly Schedule(rc).TurnAround(scr) without
// materializing the Schedule. For MCP, Greedy, Random and RoundRobin it
// allocates nothing in steady state (FCA's class index, FCFS's host queue
// and DLS's and MinMin's ready sets are built per call).
func (p *Plan) TurnAround(rc *platform.ResourceCollection, scr float64) (float64, error) {
	s, err := newState(p, rc)
	if err != nil {
		return 0, err
	}
	p.h.run(s, &p.o)
	return s.turnAround(scr), nil
}

// replay places o's tasks in order, each on the host assign picks, adding
// o's ops where the ready loop charged them.
func (s *state) replay(o *order, assign func(v dag.TaskID) (host int, start float64)) {
	s.ops += o.pre
	for i, v := range o.tasks {
		if i < len(o.pick) {
			s.ops += o.pick[i]
		}
		h, start := assign(v)
		s.place(v, h, start)
	}
}

// initReady fills unmet with in-degrees and ready with the entry tasks in ID
// order.
func (sc *orderScratch) initReady(d *dag.DAG) {
	n := d.Size()
	sc.unmet = growI32(sc.unmet, n)
	sc.ready = sc.ready[:0]
	for v := 0; v < n; v++ {
		u := int32(d.NumPred(dag.TaskID(v)))
		sc.unmet[v] = u
		if u == 0 {
			sc.ready = append(sc.ready, dag.TaskID(v))
		}
	}
}

// resetOrder empties o, keeping room for n tasks, and sets its pre ops.
func resetOrder(o *order, n int, pre float64) {
	if cap(o.tasks) < n {
		o.tasks = make([]dag.TaskID, 0, n)
	}
	o.tasks = o.tasks[:0]
	o.pick = o.pick[:0]
	o.pre = pre
}

// arrival compiles the ready-list loop in the historical "arrival" order:
// take slot 0, move the last ready task into it. Used by every heuristic
// without an explicit ready-task priority (Greedy, FCFS, Random,
// RoundRobin); the exact order is pinned by the golden corpus. Each of them
// charges n + e ops of ready-list bookkeeping up front, and nothing per pick.
func (sc *orderScratch) arrival(d *dag.DAG, o *order) {
	resetOrder(o, d.Size(), float64(d.Size()+d.NumEdges()))
	sc.initReady(d)
	ready := sc.ready
	for len(ready) > 0 {
		v := ready[0]
		ready[0] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		o.tasks = append(o.tasks, v)
		for _, a := range d.Succ(v) {
			sc.unmet[a.Task]--
			if sc.unmet[a.Task] == 0 {
				ready = append(ready, a.Task)
			}
		}
	}
	sc.ready = ready[:0]
}

// ordered compiles the ready-list loop popping tasks in the strict total
// order given by less, via a binary heap: O(log width) per pick instead of
// the O(width) scan, selecting exactly the same task every step. Each pick
// charges len(ready) ops — the modeled cost of the classic linear scan — on
// top of the pre ops the heuristic charged before its first pick.
func (sc *orderScratch) ordered(d *dag.DAG, o *order, pre float64, less func(a, b dag.TaskID) bool) {
	n := d.Size()
	resetOrder(o, n, pre)
	if cap(o.pick) < n {
		o.pick = make([]float64, 0, n)
	}
	sc.initReady(d)
	h := &sc.heap
	h.reset(less)
	for _, v := range sc.ready {
		h.push(v)
	}
	for h.len() > 0 {
		o.pick = append(o.pick, float64(h.len()))
		v := h.pop()
		o.tasks = append(o.tasks, v)
		for _, a := range d.Succ(v) {
			sc.unmet[a.Task]--
			if sc.unmet[a.Task] == 0 {
				h.push(a.Task)
			}
		}
	}
	h.less = nil // drop the caller's keys
}

// taskHeap is a binary min-heap of task IDs under a strict total order,
// implemented directly (no interface boxing, no per-push allocation).
type taskHeap struct {
	items []dag.TaskID
	less  func(a, b dag.TaskID) bool
}

func (h *taskHeap) reset(less func(a, b dag.TaskID) bool) {
	h.items = h.items[:0]
	h.less = less
}

func (h *taskHeap) len() int { return len(h.items) }

func (h *taskHeap) push(v dag.TaskID) {
	h.items = append(h.items, v)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *taskHeap) pop() dag.TaskID {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= last {
			break
		}
		c := l
		if r < last && h.less(h.items[r], h.items[l]) {
			c = r
		}
		if !h.less(h.items[c], h.items[i]) {
			break
		}
		h.items[i], h.items[c] = h.items[c], h.items[i]
		i = c
	}
	return top
}
