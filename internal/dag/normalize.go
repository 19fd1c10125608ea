package dag

import (
	"cmp"
	"math"
	"slices"
)

// Normalize returns the canonical form of the DAG: task names are stripped,
// tasks are renumbered into an order derived only from the graph's shape
// (levels, costs, and edge structure), and edges are sorted by their new
// endpoints. The result is a plain relabeling — same tasks, same costs, same
// dependency structure — so every quantity that is invariant under graph
// isomorphism (the §III.1.1 characteristics, Width, level sizes) is
// untouched.
//
// Two DAGs that differ only in task naming, task numbering, or edge order
// normalize to structurally identical DAGs whenever the refinement hashing
// below distinguishes structurally distinct tasks. When it cannot (equal
// hashes on genuinely different tasks — possible only in adversarially
// regular graphs), ties fall back to input order, so the two inputs may keep
// distinct normal forms: shape-based coalescing then merely misses a merge,
// it never wrongly merges. Equal normal forms always imply isomorphic
// inputs, because each normal form is itself a relabeling of its input.
//
// The normal form is assembled, not rebuilt: a relabelling of a valid DAG is
// valid, its CSR comes straight from the runs below, its levels, height and
// level sizes are the input's, and only its topological order — Kahn's pop
// order, which follows the numbering — is walked afresh.
//
// The result is cached; a DAG is immutable after New.
func (d *DAG) Normalize() *DAG {
	d.normOnce.Do(func() {
		n, m := len(d.tasks), len(d.edges)
		order := d.canonicalOrder()
		nd := &DAG{
			tasks:   make([]Task, n),
			succOff: make([]int32, n+1),
			predOff: make([]int32, n+1),
			succAdj: make([]Adj, m),
			predAdj: make([]Adj, m),
			level:   make([]int, n),
			height:  d.height,
			lsize:   d.lsize,
		}
		perm := make([]TaskID, n) // old ID → new ID
		for newID, oldID := range order {
			perm[oldID] = TaskID(newID)
			nd.tasks[newID] = Task{ID: TaskID(newID), Cost: d.tasks[oldID].Cost}
			nd.level[newID] = d.level[oldID]
			nd.succOff[newID+1] = nd.succOff[newID] + int32(d.NumSucc(oldID))
			nd.predOff[newID+1] = nd.predOff[newID] + int32(d.NumPred(oldID))
		}
		// Walking targets in new-To order and dropping each incoming edge
		// into its source's run leaves every run ordered by To: the edges
		// come out sorted by (From, To) with no comparison made, and each
		// run is its source's successor row. Endpoint pairs are unique, so
		// that order is the only one. Walking sources in new-From order
		// fills the predecessor rows the same way.
		edges := make([]Edge, m)
		next := append([]int32(nil), nd.succOff[:n]...)
		for newTo, oldTo := range order {
			for _, a := range d.Pred(oldTo) {
				from := perm[a.Task]
				edges[next[from]] = Edge{From: from, To: TaskID(newTo), Cost: a.Cost}
				nd.succAdj[next[from]] = Adj{Task: TaskID(newTo), Cost: a.Cost}
				next[from]++
			}
		}
		copy(next, nd.predOff[:n])
		for newFrom, oldFrom := range order {
			for _, a := range d.Succ(oldFrom) {
				to := perm[a.Task]
				nd.predAdj[next[to]] = Adj{Task: TaskID(newFrom), Cost: a.Cost}
				next[to]++
			}
		}
		if m > 0 {
			nd.edges = edges // nil otherwise, as build leaves it
		}
		nd.topo = nd.kahn(nil)
		d.normCache = nd
	})
	return d.normCache
}

// NormalFingerprint returns Normalize().Fingerprint(): a 64-bit hash that is
// equal for DAGs which are the same shape — identical structure and costs
// under some task renumbering, ignoring names — whenever canonicalization
// succeeds in aligning them (see Normalize). It keys the serving layer's
// shape-coalescing cache.
func (d *DAG) NormalFingerprint() uint64 { return d.Normalize().Fingerprint() }

// canonicalOrder computes the canonical task ordering by iterative hash
// refinement (1-dimensional Weisfeiler–Leman adapted to weighted DAGs):
// every task starts with a hash of its intrinsic shape data (level, cost,
// in/out degree) and repeatedly absorbs its neighbors' hashes through
// commutative folds, so the final hash is independent of task numbering and
// edge order. Tasks are then sorted by (level, hash), input order breaking
// exact ties.
func (d *DAG) canonicalOrder() []TaskID {
	n := len(d.tasks)
	h := make([]uint64, n)
	g := make([]uint64, n) // the first step of every fold of h[v], taken once per round
	for v := 0; v < n; v++ {
		x := uint64(fnvOffset)
		x = fnvUint64(x, uint64(d.level[v]))
		x = fnvUint64(x, math.Float64bits(d.tasks[v].Cost))
		x = fnvUint64(x, uint64(d.NumPred(TaskID(v))))
		x = fnvUint64(x, uint64(d.NumSucc(TaskID(v))))
		h[v] = x
	}
	sorted := make([]uint64, n)
	distinct := func(hs []uint64) int {
		copy(sorted, hs)
		slices.Sort(sorted)
		return len(slices.Compact(sorted))
	}
	prev := distinct(h)
	// Each round propagates shape information one hop in both directions;
	// levels already separate path positions, so the partition stabilizes
	// quickly. Stop when a round stops splitting classes.
	const maxRounds = 64
	for round := 0; round < maxRounds; round++ {
		for v := range h {
			g[v] = fnvUint64(fnvOffset, h[v])
		}
		for v := 0; v < n; v++ {
			var sumP, xorP, sumS, xorS uint64
			for _, a := range d.Pred(TaskID(v)) {
				t := fnvUint64(g[a.Task], math.Float64bits(a.Cost))
				sumP += t
				xorP ^= t
			}
			for _, a := range d.Succ(TaskID(v)) {
				t := fnvUint64(g[a.Task], math.Float64bits(a.Cost))
				sumS += t
				xorS ^= t
			}
			x := fnvUint64(g[v], sumP)
			x = fnvUint64(x, xorP)
			x = fnvUint64(x, sumS)
			h[v] = fnvUint64(x, xorS)
		}
		cur := distinct(h)
		if cur == prev || cur == n {
			break
		}
		prev = cur
	}
	// A counting sort by level keeps input order within each level; one
	// sort of (hash, task) pairs per level then finishes the order. One sort
	// of (level, hash, task) triples gives the same order, but
	// BenchmarkNormalize (400 tasks, -cpu 1, 10 interleaved runs) read
	// 214 µs median with the counting sort and 230 µs with the single sort,
	// which was slower in 8 runs of 10.
	type keyed struct {
		h uint64
		v TaskID
	}
	pairs := make([]keyed, n)
	start := make([]int, d.height+1)
	for l, size := range d.lsize {
		start[l+1] = start[l] + size
	}
	next := append([]int(nil), start[:d.height]...)
	for v := range h {
		pairs[next[d.level[v]]] = keyed{h[v], TaskID(v)}
		next[d.level[v]]++
	}
	for l := range d.lsize {
		slices.SortFunc(pairs[start[l]:start[l+1]], func(a, b keyed) int {
			if c := cmp.Compare(a.h, b.h); c != 0 {
				return c
			}
			return cmp.Compare(a.v, b.v) // input order
		})
	}
	order := make([]TaskID, n)
	for i, p := range pairs {
		order[i] = p.v
	}
	return order
}
