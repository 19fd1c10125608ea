package sched

import (
	"math"

	"rsgen/internal/dag"
	"rsgen/internal/platform"
)

// MCP is the Modified Critical Path heuristic of Wu & Gajski (Fig. IV-2):
// nodes are prioritized by the lexicographic order of the ALAP values of the
// node and its descendants, then each node is scheduled on the host that
// completes it earliest.
//
// Materializing the full descendant-ALAP list is Θ(n²) memory, intractable
// for the 10⁴-task DAGs the dissertation studies; we keep a bounded prefix
// (the node's ALAP plus its mcpPrefix smallest descendant ALAPs), which
// preserves the ordering in practice. Ties after the prefix break by task
// ID, keeping the sort total and deterministic.
type MCP struct {
	// Prefix overrides the package-level MCPPrefix default for this
	// instance: 0 means "use MCPPrefix", a negative value means a
	// zero-length prefix (pure ALAP order). Per-instance configuration
	// keeps concurrent ablations race-free — never mutate MCPPrefix from
	// a running program.
	Prefix int
}

// MCPPrefix is the default number of descendant ALAP values kept for
// lexicographic comparison (beyond the node's own ALAP). The default of 4
// keeps memory linear; the ablation benchmarks vary it (via the MCP.Prefix
// field) to show the schedule quality is insensitive to the bound (see
// DESIGN.md's documented reconstruction).
var MCPPrefix = 4

// Name implements Heuristic.
func (MCP) Name() string { return "MCP" }

// prefixLen resolves the effective descendant-prefix length.
func (mc MCP) prefixLen() int {
	p := mc.Prefix
	if p == 0 {
		p = MCPPrefix
	}
	if p < 0 {
		p = 0
	}
	return p
}

// Schedule implements Heuristic.
func (mc MCP) Schedule(d *dag.DAG, rc *platform.ResourceCollection) (*Schedule, error) {
	return Compile(mc, d).Schedule(rc)
}

func (mc MCP) compile(d *dag.DAG, o *order, sc *orderScratch) {
	n := d.Size()
	alap := d.ALAPs()
	// Graph-metric cost: b-levels + ALAP are O(n + e).
	ops := float64(n + d.NumEdges())

	// keys[v] = [alap(v), k smallest descendant ALAPs...], ascending,
	// stored flat (stride floats per task, lenBuf[v] live entries).
	// Children's keys are already sorted, so the k smallest of their
	// union come from a bounded insertion pass — no per-node sort.
	prefix := mc.prefixLen()
	stride := 1 + prefix
	sc.keyBuf = growF64(sc.keyBuf, n*stride)
	sc.lenBuf = growI32(sc.lenBuf, n)
	keys := sc.keyBuf
	klen := sc.lenBuf
	order := d.TopoOrder()
	var bufArr [16]float64
	buf := bufArr[:]
	if prefix > len(buf) {
		buf = make([]float64, prefix)
	}
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		cnt := 0
		for _, a := range d.Succ(v) {
			cb := int(a.Task) * stride
			ck := keys[cb : cb+int(klen[a.Task])]
			ops += float64(len(ck))
			for _, x := range ck {
				if prefix == 0 {
					break
				}
				if cnt == prefix && x >= buf[prefix-1] {
					// Children's keys ascend: nothing later in ck
					// can enter the buffer either.
					break
				}
				// Insert x into the sorted buffer.
				j := cnt
				if j == prefix {
					j--
				}
				for ; j > 0 && buf[j-1] > x; j-- {
					buf[j] = buf[j-1]
				}
				buf[j] = x
				if cnt < prefix {
					cnt++
				}
			}
		}
		base := int(v) * stride
		keys[base] = alap[v]
		copy(keys[base+1:base+1+cnt], buf[:cnt])
		klen[v] = int32(1 + cnt)
	}
	// Lexicographic sort cost.
	ops += float64(n) * math.Log2(float64(n)+1)

	less := func(a, b dag.TaskID) bool {
		ka := keys[int(a)*stride : int(a)*stride+int(klen[a])]
		kb := keys[int(b)*stride : int(b)*stride+int(klen[b])]
		for i := 0; i < len(ka) && i < len(kb); i++ {
			if ka[i] != kb[i] {
				return ka[i] < kb[i]
			}
		}
		if len(ka) != len(kb) {
			return len(ka) < len(kb)
		}
		return a < b
	}

	// Process in MCP priority order restricted to ready tasks: ALAP order
	// is topological for positive task costs, so this visits tasks in the
	// exact MCP order while remaining robust to zero-cost corner cases.
	sc.ordered(d, o, ops, less)
}

func (MCP) run(s *state, o *order) { s.replay(o, s.minFinishHost) }

// Greedy is the simple heuristic of Fig. IV-3: as soon as a task's
// dependencies have cleared, schedule it on the host that would start its
// execution soonest. It is clock-oblivious and does not weigh communication
// against computation (though data-ready times do include transfer delays).
type Greedy struct{}

// Name implements Heuristic.
func (Greedy) Name() string { return "Greedy" }

// Schedule implements Heuristic.
func (Greedy) Schedule(d *dag.DAG, rc *platform.ResourceCollection) (*Schedule, error) {
	return Compile(Greedy{}, d).Schedule(rc)
}

func (Greedy) compile(d *dag.DAG, o *order, sc *orderScratch) { sc.arrival(d, o) }

func (Greedy) run(s *state, o *order) { s.replay(o, s.minStartHost) }

// FCFS is the cheapest heuristic (Fig. V-15): ready tasks in first-come
// first-served order, each assigned to the earliest-available host,
// oblivious to both clock rates and communication.
type FCFS struct{}

// Name implements Heuristic.
func (FCFS) Name() string { return "FCFS" }

// Schedule implements Heuristic.
func (FCFS) Schedule(d *dag.DAG, rc *platform.ResourceCollection) (*Schedule, error) {
	return Compile(FCFS{}, d).Schedule(rc)
}

func (FCFS) compile(d *dag.DAG, o *order, sc *orderScratch) { sc.arrival(d, o) }

func (FCFS) run(s *state, o *order) {
	m := len(s.rc.Hosts)
	h := &hostHeap{}
	for i := 0; i < m; i++ {
		h.push(hostSlot{host: i, free: 0})
	}
	logM := math.Log2(float64(m) + 1)
	s.replay(o, func(v dag.TaskID) (int, float64) {
		slot := h.pop()
		ready := s.readyTimes(v)
		start := slot.free
		if r := ready.at(slot.host); r > start {
			start = r
		}
		exec := s.execTime(s.d.Task(v).Cost, slot.host)
		h.push(hostSlot{host: slot.host, free: start + exec})
		s.ops += logM
		return slot.host, start
	})
}

// FCA — Fastest Clock Available (Fig. V-14) — is the cheap but clock-aware
// heuristic: ready tasks in descending b-level order, each assigned to the
// fastest host that is already idle at the task's data-ready time, falling
// back to the earliest-available host when none is idle. It ignores
// communication when ranking hosts, which keeps its per-task cost at O(m)
// (no per-parent × per-host evaluation), the property that lets it win on
// very large DAGs (Ch. VI).
type FCA struct{}

// Name implements Heuristic.
func (FCA) Name() string { return "FCA" }

// Schedule implements Heuristic.
func (FCA) Schedule(d *dag.DAG, rc *platform.ResourceCollection) (*Schedule, error) {
	return Compile(FCA{}, d).Schedule(rc)
}

func (FCA) compile(d *dag.DAG, o *order, sc *orderScratch) {
	bl := d.BLevels()
	pre := float64(d.Size()+d.NumEdges()) + float64(d.Size())*math.Log2(float64(d.Size())+1)
	sc.ordered(d, o, pre, func(a, b dag.TaskID) bool {
		if bl[a] != bl[b] {
			return bl[a] > bl[b]
		}
		return a < b
	})
}

func (FCA) run(s *state, o *order) {
	m := len(s.rc.Hosts)
	s.replay(o, func(v dag.TaskID) (int, float64) {
		// Earliest the task could possibly be data-ready anywhere, the
		// maximum parent finish: the idle test below is deliberately
		// communication-blind, so it needs only free times and clocks —
		// the class index answers it for any network model. Leaves are
		// ordered fastest class first, lowest host index within a class,
		// so the leftmost idle leaf is exactly the scan's pick.
		r := 0.0
		for _, p := range s.d.Pred(v) {
			if f := s.fin[p.Task]; f > r {
				r = f
			}
		}
		ci := s.classIndex()
		var h int
		if p := ci.tree.leftmostLE(0, m, r); p >= 0 {
			h = ci.hostAt(p)
		} else {
			// No host is idle at r: fall back to the earliest-free host,
			// ties by lowest host index (identity order).
			_, p := s.identityIndex().tree.argmin(0, m)
			h = p
		}
		s.ops += float64(m)
		start := s.free[h]
		ready := s.readyTimes(v)
		if rr := ready.at(h); rr > start {
			start = rr
		}
		return h, start
	})
}

// DLS is Dynamic Level Scheduling (Sih & Lee; Fig. V-13): at each step,
// among all (ready task, host) pairs, pick the pair maximizing the dynamic
// level DL(t, h) = SL(t) − max(dataReady(t, h), free(h)) + Δ(t, h), where SL
// is the static b-level at reference speed and Δ(t, h) = w(t) − w(t, h)
// rewards faster hosts. It is the most expensive heuristic studied, and its
// modeled cost still charges every (ready task, host) pair each step; the
// implementation, however, caches each ready task's best (host, level) pair
// and re-evaluates a task only when the host it was counting on got busier
// — placements only ever increase free times, so every other cached
// winner provably stays optimal.
type DLS struct{}

// Name implements Heuristic.
func (DLS) Name() string { return "DLS" }

// dlsCand is a ready task's cached best host under the DL order.
type dlsCand struct {
	h     int32
	valid bool
	dl    float64
	start float64
}

// Schedule implements Heuristic.
func (DLS) Schedule(d *dag.DAG, rc *platform.ResourceCollection) (*Schedule, error) {
	return Compile(DLS{}, d).Schedule(rc)
}

func (DLS) compile(*dag.DAG, *order, *orderScratch) {}

func (DLS) run(s *state, _ *order) {
	d, rc := s.d, s.rc
	sl := d.BLevels()
	s.ops += float64(d.Size() + d.NumEdges())

	n := d.Size()
	m := len(rc.Hosts)
	s.initReady(d)
	ready := s.ready
	// Each ready task's best (host, DL) is recomputed only after
	// invalidation.
	cands := make([]dlsCand, n)
	for len(ready) > 0 {
		bestI, bestH := -1, -1
		bestDL := math.Inf(-1)
		bestStart := 0.0
		for i, v := range ready {
			c := &cands[v]
			if !c.valid {
				w := d.Task(v).Cost
				cd, ch, cst := math.Inf(-1), -1, 0.0
				for h, r := range s.readyAll(v) {
					st := s.free[h]
					if r > st {
						st = r
					}
					delta := w - s.execTime(w, h)
					dl := sl[v] - st + delta
					if dl > cd {
						cd, ch, cst = dl, h, st
					}
				}
				c.h, c.dl, c.start, c.valid = int32(ch), cd, cst, true
			}
			if c.dl > bestDL || (c.dl == bestDL && (bestI == -1 || v < ready[bestI])) {
				bestI, bestH, bestDL, bestStart = i, int(c.h), c.dl, c.start
			}
		}
		// Modeled cost: the classic implementation re-evaluates every
		// (ready, host) pair each step.
		s.ops += float64(len(ready) * m)
		v := ready[bestI]
		ready[bestI] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		s.place(v, bestH, bestStart)
		// Only free[bestH] changed, and it only increased: a cached best
		// on any other host is still the lexicographic (DL, lowest-host)
		// maximum. Tasks that were counting on bestH must re-evaluate.
		for _, u := range ready {
			if cands[u].valid && int(cands[u].h) == bestH {
				cands[u].valid = false
			}
		}
		for _, a := range d.Succ(v) {
			s.unmet[a.Task]--
			if s.unmet[a.Task] == 0 {
				ready = append(ready, a.Task)
			}
		}
	}
	s.ready = ready[:0]
}

// hostSlot / hostHeap implement the earliest-free-host queue for FCFS as a
// direct binary heap (no container/heap interface boxing).
type hostSlot struct {
	host int
	free float64
}

type hostHeap struct {
	slots []hostSlot
}

func (h *hostHeap) slotLess(a, b hostSlot) bool {
	if a.free != b.free {
		return a.free < b.free
	}
	return a.host < b.host
}

func (h *hostHeap) push(x hostSlot) {
	h.slots = append(h.slots, x)
	i := len(h.slots) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.slotLess(h.slots[i], h.slots[parent]) {
			break
		}
		h.slots[i], h.slots[parent] = h.slots[parent], h.slots[i]
		i = parent
	}
}

func (h *hostHeap) pop() hostSlot {
	top := h.slots[0]
	last := len(h.slots) - 1
	h.slots[0] = h.slots[last]
	h.slots = h.slots[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= last {
			break
		}
		c := l
		if r < last && h.slotLess(h.slots[r], h.slots[l]) {
			c = r
		}
		if !h.slotLess(h.slots[c], h.slots[i]) {
			break
		}
		h.slots[i], h.slots[c] = h.slots[c], h.slots[i]
		i = c
	}
	return top
}
