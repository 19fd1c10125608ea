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
// valid, its tasks and edges come from relabel, its CSR straight from those
// edges, its levels, height and level sizes are the input's, and only its
// topological order — Kahn's pop order, which follows the numbering — is
// walked afresh.
//
// The result is cached; a DAG is immutable after New.
func (d *DAG) Normalize() *DAG {
	d.normOnce.Do(func() {
		n, m := len(d.tasks), len(d.edges)
		order := d.canonical()
		nd := &DAG{
			tasks:   make([]Task, n),
			succOff: make([]int32, n+1),
			predOff: make([]int32, n+1),
			succAdj: make([]Adj, m),
			predAdj: make([]Adj, m),
			level:   make([]int32, n),
			height:  d.height,
			lsize:   d.lsize,
		}
		edges := make([]Edge, m)
		sc := scratchPool.Get().(*scratch)
		defer sc.release()
		d.relabel(order, nd.tasks, edges, sc)
		for newID, oldID := range order {
			nd.level[newID] = d.level[oldID]
			nd.succOff[newID+1] = nd.succOff[newID] + int32(d.NumSucc(oldID))
			nd.predOff[newID+1] = nd.predOff[newID] + int32(d.NumPred(oldID))
		}
		// The edges are sorted by (From, To), so they are the successor
		// rows end to end, and dropping each into its target's row leaves
		// every predecessor row ordered by From.
		next := grow(&sc.cursor, n)
		copy(next, nd.predOff[:n])
		for i, e := range edges {
			nd.succAdj[i] = Adj{Task: e.To, Cost: e.Cost}
			nd.predAdj[next[e.To]] = Adj{Task: e.From, Cost: e.Cost}
			next[e.To]++
		}
		if m > 0 {
			nd.edges = edges // nil otherwise, as build leaves it
		}
		nd.topo = nd.kahn(nil, sc)
		d.normCache = nd
	})
	return d.normCache
}

// NormalKey returns Normalize().Key() without building the normal form: the
// relabelled tasks and edges are written into pooled scratch and hashed
// there by the content writer Key uses, so the two agree by construction. A
// shape-cache lookup pays for the canonical order and one hash, not for a
// second DAG; Normalize, when it follows, reuses the order. The result is
// cached.
func (d *DAG) NormalKey() uint64 {
	d.nkeyOnce.Do(func() {
		order := d.canonical()
		sc := scratchPool.Get().(*scratch)
		defer sc.release()
		tasks, edges := grow(&sc.tasks, len(d.tasks)), grow(&sc.edges, len(d.edges))
		d.relabel(order, tasks, edges, sc)
		d.nkeyCache = contentKey(keySeed, tasks, edges)
	})
	return d.nkeyCache
}

// NormalFingerprint returns Normalize().Fingerprint(): a 64-bit hash that is
// equal for DAGs which are the same shape — identical structure and costs
// under some task renumbering, ignoring names — whenever canonicalization
// succeeds in aligning them (see Normalize). Unlike NormalKey it is stable
// across processes.
func (d *DAG) NormalFingerprint() uint64 { return d.Normalize().Fingerprint() }

// relabel writes the normal form's tasks and edges under order (new ID →
// old ID): each task nameless with its cost, and the edges sorted by their
// new (From, To). Walking targets in new-To order and dropping each incoming
// edge into its source's run leaves every run ordered by To, so the edges
// come out sorted with no comparison made; endpoint pairs are unique, so
// that order is the only one. tasks and edges must have the DAG's lengths.
func (d *DAG) relabel(order []TaskID, tasks []Task, edges []Edge, sc *scratch) {
	n := len(d.tasks)
	perm := grow(&sc.perm, n) // old ID → new ID
	next := grow(&sc.cursor, n)
	run := int32(0)
	for newID, oldID := range order {
		perm[oldID] = TaskID(newID)
		tasks[newID] = Task{ID: TaskID(newID), Cost: d.tasks[oldID].Cost}
		next[newID] = run
		run += int32(d.NumSucc(oldID))
	}
	for newTo, oldTo := range order {
		for _, a := range d.Pred(oldTo) {
			from := perm[a.Task]
			edges[next[from]] = Edge{From: from, To: TaskID(newTo), Cost: a.Cost}
			next[from]++
		}
	}
}

// canonical returns (computing and caching on first use) the canonical order
// Normalize and NormalKey share.
func (d *DAG) canonical() []TaskID {
	d.canonOnce.Do(func() {
		sc := scratchPool.Get().(*scratch)
		defer sc.release()
		d.canon = d.canonicalOrder(sc)
	})
	return d.canon
}

// canonicalOrder computes the canonical task ordering by iterative hash
// refinement (1-dimensional Weisfeiler–Leman adapted to weighted DAGs):
// every task starts with a hash of its intrinsic shape data (level, cost,
// in/out degree) and repeatedly absorbs its neighbors' hashes through
// commutative folds, so the final hash is independent of task numbering and
// edge order. Tasks are then sorted by (level, hash), input order breaking
// exact ties.
func (d *DAG) canonicalOrder(sc *scratch) []TaskID {
	n := len(d.tasks)
	h := grow(&sc.h, n)
	g := grow(&sc.g, n) // the first step of every fold of h[v], taken once per round
	for v := 0; v < n; v++ {
		x := uint64(fnvOffset)
		x = fnvUint64(x, uint64(d.level[v]))
		x = fnvUint64(x, math.Float64bits(d.tasks[v].Cost))
		x = fnvUint64(x, uint64(d.NumPred(TaskID(v))))
		x = fnvUint64(x, uint64(d.NumSucc(TaskID(v))))
		h[v] = x
	}
	sorted := grow(&sc.sorted, n)
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
	pairs := grow(&sc.pairs, n)
	start := grow(&sc.start, d.height+1)
	start[0] = 0
	for l, size := range d.lsize {
		start[l+1] = start[l] + size
	}
	next := grow(&sc.next, d.height)
	copy(next, start)
	for v := range h {
		pairs[next[d.level[v]]] = hashedTask{h[v], TaskID(v)}
		next[d.level[v]]++
	}
	for l := range d.lsize {
		slices.SortFunc(pairs[start[l]:start[l+1]], func(a, b hashedTask) int {
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

// hashedTask is a task with its refined hash, as canonicalOrder sorts them.
type hashedTask struct {
	h uint64
	v TaskID
}
