package moga

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// rankInfo is one member's position under the crowded-comparison operator.
type rankInfo struct {
	rank     int // 0 = first (non-dominated) front
	crowding float64
}

// ranker runs NSGA-II's fast non-dominated sort followed by per-front
// crowding-distance assignment, keeping its working storage between calls
// (the engine ranks once per generation).
type ranker struct {
	out []rankInfo
	// dom[i*n : i*n+domLen[i]] lists the members i dominates, in the order
	// the pairwise pass meets them; domCount[i] counts members dominating i.
	dom       []int32
	domLen    []int32
	domCount  []int32
	cur, next []int32
	byAxis    []int32
	val       []float64
}

// rank returns every member's rank and crowding distance. The slice is the
// ranker's own and is overwritten by the next call.
func (r *ranker) rank(pop []indiv) []rankInfo {
	n := len(pop)
	r.out = slices.Grow(r.out[:0], n)[:n]
	r.dom = slices.Grow(r.dom[:0], n*n)[:n*n]
	r.domLen = slices.Grow(r.domLen[:0], n)[:n]
	r.domCount = slices.Grow(r.domCount[:0], n)[:n]
	for i := 0; i < n; i++ {
		r.out[i] = rankInfo{}
		r.domLen[i] = 0
		r.domCount[i] = 0
	}
	dominates := func(i, j int) {
		r.dom[i*n+int(r.domLen[i])] = int32(j)
		r.domLen[i]++
		r.domCount[j]++
	}
	for i := 0; i < n; i++ {
		oi := &pop[i].obj
		for j := i + 1; j < n; j++ {
			switch dominance(oi, &pop[j].obj) {
			case 1:
				dominates(i, j)
			case -1:
				dominates(j, i)
			}
		}
	}
	current, next := r.cur[:0], r.next[:0]
	for i := 0; i < n; i++ {
		if r.domCount[i] == 0 {
			current = append(current, int32(i))
		}
	}
	for rank := 0; len(current) > 0; rank++ {
		next = next[:0]
		for _, i := range current {
			for _, j := range r.dom[int(i)*n : int(i)*n+int(r.domLen[i])] {
				r.domCount[j]--
				if r.domCount[j] == 0 {
					r.out[j].rank = rank + 1
					next = append(next, j)
				}
			}
		}
		r.crowd(pop, current, r.out)
		current, next = next, current
	}
	r.cur, r.next = current, next
	return r.out
}

// crowd adds crowding distances within one front (indices into pop) to the
// zeroed entries of out, which is indexed like pop.
func (r *ranker) crowd(pop []indiv, front []int32, out []rankInfo) {
	m := len(front)
	if m <= 2 {
		for _, i := range front {
			out[i].crowding = math.Inf(1)
		}
		return
	}
	// val holds the current axis's value per member, read from the field
	// once per member instead of once per comparison.
	r.val = slices.Grow(r.val[:0], len(pop))[:len(pop)]
	val := r.val
	for axis := 0; axis < 4; axis++ {
		for _, i := range front {
			val[i] = pop[i].obj.axis(axis)
		}
		idx := append(r.byAxis[:0], front...)
		r.byAxis = idx
		slices.SortFunc(idx, func(x, y int32) int {
			if c := cmp.Compare(val[x], val[y]); c != 0 {
				return c
			}
			return cmp.Compare(pop[x].key, pop[y].key)
		})
		lo := val[idx[0]]
		hi := val[idx[m-1]]
		out[idx[0]].crowding = math.Inf(1)
		out[idx[m-1]].crowding = math.Inf(1)
		if hi == lo {
			continue
		}
		for x := 1; x < m-1; x++ {
			out[idx[x]].crowding += (val[idx[x+1]] - val[idx[x-1]]) / (hi - lo)
		}
	}
}

// kneeRank sorts a front by normalized Euclidean distance to its ideal point
// (per-axis minimum), filling each Solution's KneeDistance. Ties break on the
// host list, so the order is total and deterministic. Solutions[0] is the
// knee: the best-balanced compromise, which the broker binds first.
func kneeRank(front []Solution) {
	if len(front) == 0 {
		return
	}
	var lo, hi [4]float64
	for i := range lo {
		lo[i], hi[i] = math.Inf(1), math.Inf(-1)
	}
	for _, s := range front {
		v := s.Obj.vector()
		for i := range v {
			lo[i] = math.Min(lo[i], v[i])
			hi[i] = math.Max(hi[i], v[i])
		}
	}
	for i := range front {
		v := front[i].Obj.vector()
		d := 0.0
		for a := range v {
			if hi[a] == lo[a] {
				continue // axis is flat across the front: no information
			}
			norm := (v[a] - lo[a]) / (hi[a] - lo[a])
			d += norm * norm
		}
		front[i].KneeDistance = math.Sqrt(d)
	}
	sort.Slice(front, func(i, j int) bool {
		if front[i].KneeDistance != front[j].KneeDistance {
			return front[i].KneeDistance < front[j].KneeDistance
		}
		return hostsLess(front[i].Hosts, front[j].Hosts)
	})
}
