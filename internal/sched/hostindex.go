package sched

import (
	"math"
	"slices"

	"rsgen/internal/platform"
)

// This file implements the bucketed host-selection index behind
// indexedHost, the one search minFinishHost and minStartHost take where it
// beats their scan, and behind FCA's idle-host test. The key observation:
// every host that holds no parent of the task has the same data-ready time
// within a bucket — all hosts under a uniform network (readyFn's best1),
// one cluster under a cluster network — so the earliest-start host of a
// bucket is fully determined by its per-host free times: argmin queries a
// segment tree answers in O(log m) instead of the O(m) scan. Buckets are
// clock-uniform (speed classes, or clock-uniform clusters), and within one,
// minimizing finish time equals minimizing start time, so one candidate per
// bucket (plus the parent-holding hosts, which are evaluated exactly)
// provably contains the scan's winner under the scan's exact tie-breaking
// order. Greedy, which ignores speed, searches a uniform network's identity
// index: one bucket of all hosts. Each bucket costs a query or two, so an
// index with few hosts per bucket is declined (minHostsPerBucket) and the
// hosts are scanned.
//
// The modeled Ops counts are charged by the original formulas regardless:
// this index changes wall-clock time only, never the reproduced numbers.

// minTree is a segment tree over a fixed set of float64 leaves supporting
// point updates, "leftmost leaf ≤ threshold in range" and "leftmost argmin
// in range" queries. Unused padding leaves hold +Inf.
type minTree struct {
	size int       // leaves padded to a power of two
	val  []float64 // 1-based heap layout; leaves at [size, 2*size)
}

// build initializes the tree with n leaves; leaf p takes leafVal(p).
func (t *minTree) build(n int, leafVal func(p int) float64) {
	size := 1
	for size < n {
		size <<= 1
	}
	t.size = size
	need := 2 * size
	if cap(t.val) < need {
		t.val = make([]float64, need)
	} else {
		t.val = t.val[:need]
	}
	for p := 0; p < n; p++ {
		t.val[size+p] = leafVal(p)
	}
	inf := math.Inf(1)
	for p := n; p < size; p++ {
		t.val[size+p] = inf
	}
	// Leaves are free times or +Inf, never NaN or −0, so one compare (as in
	// set) is math.Min without its special cases.
	for i := size - 1; i >= 1; i-- {
		v := t.val[2*i]
		if r := t.val[2*i+1]; r < v {
			v = r
		}
		t.val[i] = v
	}
}

// set point-updates leaf p and reestablishes the min invariant upward,
// carrying the updated subtree min so each level costs one sibling compare.
func (t *minTree) set(p int, v float64) {
	i := t.size + p
	t.val[i] = v
	for i > 1 {
		if s := t.val[i^1]; s < v {
			v = s
		}
		i >>= 1
		if t.val[i] == v {
			return
		}
		t.val[i] = v
	}
}

// get returns the current value of leaf p.
func (t *minTree) get(p int) float64 { return t.val[t.size+p] }

// leftmostLE returns the leftmost leaf position in [lo, hi) whose value is
// ≤ r, or -1 if none.
func (t *minTree) leftmostLE(lo, hi int, r float64) int {
	return t.lle(1, 0, t.size, lo, hi, r)
}

func (t *minTree) lle(node, nLo, nHi, lo, hi int, r float64) int {
	if hi <= nLo || nHi <= lo || t.val[node] > r {
		return -1
	}
	if nHi-nLo == 1 {
		return nLo
	}
	mid := (nLo + nHi) / 2
	if p := t.lle(2*node, nLo, mid, lo, hi, r); p >= 0 {
		return p
	}
	return t.lle(2*node+1, mid, nHi, lo, hi, r)
}

// argmin returns the minimum leaf value in [lo, hi) and the leftmost
// position achieving it ((+Inf, -1) for an empty range; a +Inf value means
// every leaf in range is masked).
func (t *minTree) argmin(lo, hi int) (float64, int) {
	return t.amin(1, 0, t.size, lo, hi)
}

func (t *minTree) amin(node, nLo, nHi, lo, hi int) (float64, int) {
	if hi <= nLo || nHi <= lo {
		return math.Inf(1), -1
	}
	if lo <= nLo && nHi <= hi {
		v := t.val[node]
		for nHi-nLo > 1 {
			node *= 2
			mid := (nLo + nHi) / 2
			if t.val[node] == v {
				nHi = mid
			} else {
				node++
				nLo = mid
			}
		}
		return v, nLo
	}
	mid := (nLo + nHi) / 2
	lv, lp := t.amin(2*node, nLo, mid, lo, hi)
	rv, rp := t.amin(2*node+1, mid, nHi, lo, hi)
	if lp >= 0 && (rp < 0 || lv <= rv) {
		return lv, lp
	}
	return rv, rp
}

// hostIndex is a minTree over per-host free times, its leaves split into
// contiguous buckets (classEnd). In identity mode leaf p is host p and the
// whole tree is one bucket. In bucket mode leaves are ordered by a per-host
// key, then by ascending host index, so each key is one bucket and the
// leftmost leaf of any predicate within a bucket is its lowest-index host
// satisfying it.
type hostIndex struct {
	built    bool
	m        int
	tree     minTree
	classEnd []int32 // one-past-last leaf of each bucket, ascending

	// Bucket mode only; identity mode leaves these nil.
	perm []int32 // leaf → host
	pos  []int32 // host → leaf

	key []float64 // bucket-mode build scratch: per-host sort key

	// Masking scratch: saved leaf values for unmask.
	savedVal  []float64
	savedLeaf []int32
}

// buildIdentity initializes identity mode over free.
func (x *hostIndex) buildIdentity(free []float64) {
	x.m = len(free)
	x.perm, x.pos = nil, nil
	x.classEnd = append(x.classEnd[:0], int32(len(free)))
	x.tree.build(len(free), func(p int) float64 { return free[p] })
	x.savedVal = x.savedVal[:0]
	x.savedLeaf = x.savedLeaf[:0]
	x.built = true
}

// buildClasses initializes bucket mode over free with one bucket per speed
// class: hosts grouped by exact ClockGHz, fastest class first.
func (x *hostIndex) buildClasses(hosts []platform.Host, free []float64) {
	x.key = growF64(x.key, len(hosts))
	for h, host := range hosts {
		x.key[h] = -host.ClockGHz
	}
	x.buildBuckets(free)
}

// buildGroups initializes bucket mode over free with one bucket per group
// key, in ascending key order.
func (x *hostIndex) buildGroups(keys []int32, free []float64) {
	x.key = growF64(x.key, len(keys))
	for h, k := range keys {
		x.key[h] = float64(k)
	}
	x.buildBuckets(free)
}

// buildBuckets initializes bucket mode over free from the per-host keys in
// x.key (exact: negated clocks and converted int32 keys compare as their
// sources do).
func (x *hostIndex) buildBuckets(free []float64) {
	key := x.key
	m := len(key)
	x.m = m
	x.perm = growI32(x.perm, m)
	x.pos = growI32(x.pos, m)
	for i := range x.perm {
		x.perm[i] = int32(i)
	}
	slices.SortFunc(x.perm, func(a, b int32) int {
		switch ka, kb := key[a], key[b]; {
		case ka < kb:
			return -1
		case ka > kb:
			return 1
		}
		return int(a - b)
	})
	x.classEnd = x.classEnd[:0]
	for p := 1; p < m; p++ {
		if key[x.perm[p]] != key[x.perm[p-1]] {
			x.classEnd = append(x.classEnd, int32(p))
		}
	}
	x.classEnd = append(x.classEnd, int32(m))
	for p, h := range x.perm {
		x.pos[h] = int32(p)
	}
	x.tree.build(m, func(p int) float64 { return free[x.perm[p]] })
	x.savedVal = x.savedVal[:0]
	x.savedLeaf = x.savedLeaf[:0]
	x.built = true
}

// leafOf maps a host index to its leaf position.
func (x *hostIndex) leafOf(h int) int {
	if x.pos == nil {
		return h
	}
	return int(x.pos[h])
}

// hostAt maps a leaf position back to a host index.
func (x *hostIndex) hostAt(p int) int {
	if x.perm == nil {
		return p
	}
	return int(x.perm[p])
}

// update reflects a new free time for host h.
func (x *hostIndex) update(h int, free float64) {
	x.tree.set(x.leafOf(h), free)
}

// mask temporarily excludes host h from queries (its leaf becomes +Inf).
// unmaskAll restores every masked host; masks do not nest per host.
func (x *hostIndex) mask(h int) {
	p := x.leafOf(h)
	x.savedVal = append(x.savedVal, x.tree.get(p))
	x.savedLeaf = append(x.savedLeaf, int32(p))
	x.tree.set(p, math.Inf(1))
}

func (x *hostIndex) unmaskAll() {
	for i, p := range x.savedLeaf {
		x.tree.set(int(p), x.savedVal[i])
	}
	x.savedVal = x.savedVal[:0]
	x.savedLeaf = x.savedLeaf[:0]
}
