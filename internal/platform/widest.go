package platform

import (
	"cmp"
	"slices"
)

// widestTable is a platform's all-pairs widest-path table: for every pair of
// clusters, the bandwidth of the widest (maximum-bottleneck) path between
// them through the wide-area topology. A widest path in an undirected graph
// is exact on a maximum spanning forest, so one union-find swept over the
// links from the fastest speed down finds them all: two clusters are joined
// by a path of bandwidth ≥ s exactly when they share a component of the
// subgraph of links of speed ≥ s, and their widest path is the fastest such
// s. A path's width is capped at the top link class, as a widest-path search
// starts its source there, and a pair with no path has width 0. Speeds are
// only compared, never computed, so every width is one of the links' own
// values bit for bit. The table is immutable once built.
type widestTable struct {
	// mbps[l] is the width of level l, fastest first; the last, 0, is the
	// level of clusters no path joins.
	mbps []float64
	// comp[l*C+c] is cluster c's component at level l < len(mbps)-1: the
	// clusters its links of speed ≥ mbps[l] reach. A level is kept only
	// where a link merged two components, so there are fewer levels than
	// distinct link speeds (5 on generated platforms) and than clusters.
	comp []int32
	// rank[c] is cluster c's position in the order of the clusters'
	// components read from the slowest level to the fastest, ties broken by
	// cluster ID. Components nest, so every component of every level is a
	// contiguous range of ranks, and the level of two clusters is the
	// slowest level of any two rank-adjacent clusters between them.
	rank []int32
}

// widest returns (building and caching on first use) the platform's
// widest-path table.
func (p *Platform) widest() *widestTable {
	if t := p.widestPaths.Load(); t != nil {
		return t
	}
	p.widestPaths.CompareAndSwap(nil, buildWidest(p)) // losing the race is fine: use the winner's
	return p.widestPaths.Load()
}

func buildWidest(p *Platform) *widestTable {
	n := len(p.Clusters)
	var links []Link
	if p.Topo != nil {
		for _, l := range p.Topo.Links {
			// The comparison a widest-path search makes: a link at or
			// above the cap (or NaN) carries the cap, and one of no
			// positive speed joins nothing.
			s := LinkClassesMbps[len(LinkClassesMbps)-1]
			if l.Mbps < s {
				s = l.Mbps
			}
			if s > 0 {
				links = append(links, Link{A: l.A, B: l.B, Mbps: s})
			}
		}
	}
	slices.SortFunc(links, func(x, y Link) int { return cmp.Compare(y.Mbps, x.Mbps) })

	t := &widestTable{rank: make([]int32, n)}
	u := newUnionFind(n)
	for i := 0; i < len(links); {
		s := links[i].Mbps
		merged := false
		for ; i < len(links) && links[i].Mbps == s; i++ {
			merged = u.union(links[i].A, links[i].B) || merged
		}
		if merged {
			t.mbps = append(t.mbps, s)
			for c := range n {
				t.comp = append(t.comp, int32(u.find(c)))
			}
		}
	}
	levels := len(t.mbps)
	t.mbps = append(t.mbps, 0)

	order := make([]int32, n)
	for c := range order {
		order[c] = int32(c)
	}
	slices.SortFunc(order, func(a, b int32) int {
		for l := levels - 1; l >= 0; l-- {
			if c := cmp.Compare(t.comp[l*n+int(a)], t.comp[l*n+int(b)]); c != 0 {
				return c
			}
		}
		return cmp.Compare(a, b)
	})
	for r, c := range order {
		t.rank[c] = int32(r)
	}
	return t
}

// level returns the fastest level at which clusters a and b share a
// component, or the last level (width 0) when none does.
func (t *widestTable) level(a, b int) int {
	n, levels := len(t.rank), len(t.mbps)-1
	for l := range levels {
		if t.comp[l*n+a] == t.comp[l*n+b] {
			return l
		}
	}
	return levels
}

// unionFind is a disjoint-set forest over 0..n-1 with path halving.
type unionFind []int

func newUnionFind(n int) unionFind {
	u := make(unionFind, n)
	for i := range u {
		u[i] = i
	}
	return u
}

func (u unionFind) find(x int) int {
	for u[x] != x {
		u[x] = u[u[x]]
		x = u[x]
	}
	return x
}

// union joins the sets of a and b and reports whether they were apart.
func (u unionFind) union(a, b int) bool {
	ra, rb := u.find(a), u.find(b)
	u[ra] = rb
	return ra != rb
}
