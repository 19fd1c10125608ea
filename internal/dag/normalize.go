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
// The result is cached; a DAG is immutable after New.
func (d *DAG) Normalize() *DAG {
	d.normOnce.Do(func() {
		n := len(d.tasks)
		order := d.canonicalOrder()
		perm := make([]TaskID, n) // old ID → new ID
		tasks := make([]Task, n)
		// next[v] is the free slot of new task v's run of edges; runs are
		// laid out in new-From order, sized by out-degree.
		next := make([]int32, n)
		var m int32
		for newID, oldID := range order {
			perm[oldID] = TaskID(newID)
			tasks[newID] = Task{ID: TaskID(newID), Cost: d.tasks[oldID].Cost}
			next[newID] = m
			m += int32(d.NumSucc(oldID))
		}
		// Walking targets in new-To order and dropping each incoming edge
		// into its source's run leaves every run ordered by To: the edges
		// come out sorted by (From, To) with no comparison made. Endpoint
		// pairs are unique, so that order is the only one.
		edges := make([]Edge, len(d.edges))
		for newTo, oldTo := range order {
			for _, a := range d.Pred(oldTo) {
				from := perm[a.Task]
				edges[next[from]] = Edge{From: from, To: TaskID(newTo), Cost: a.Cost}
				next[from]++
			}
		}
		// A relabeling of a valid DAG is a valid DAG: IDs stay dense, no
		// edge changes endpoints' identity, acyclicity is preserved.
		nd, err := build(tasks, edges)
		if err != nil {
			panic(err)
		}
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
	nh := make([]uint64, n)
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
		for v := 0; v < n; v++ {
			var sumP, xorP, sumS, xorS uint64
			for _, a := range d.Pred(TaskID(v)) {
				t := fnvUint64(fnvUint64(fnvOffset, h[a.Task]), math.Float64bits(a.Cost))
				sumP += t
				xorP ^= t
			}
			for _, a := range d.Succ(TaskID(v)) {
				t := fnvUint64(fnvUint64(fnvOffset, h[a.Task]), math.Float64bits(a.Cost))
				sumS += t
				xorS ^= t
			}
			x := fnvUint64(fnvOffset, h[v])
			x = fnvUint64(x, sumP)
			x = fnvUint64(x, xorP)
			x = fnvUint64(x, sumS)
			x = fnvUint64(x, xorS)
			nh[v] = x
		}
		h, nh = nh, h
		cur := distinct(h)
		if cur == prev || cur == n {
			break
		}
		prev = cur
	}
	order := make([]TaskID, n)
	for v := range order {
		order[v] = TaskID(v)
	}
	slices.SortFunc(order, func(a, b TaskID) int {
		if c := cmp.Compare(d.level[a], d.level[b]); c != 0 {
			return c
		}
		if c := cmp.Compare(h[a], h[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b) // input order
	})
	return order
}
