package platform

import (
	"container/heap"
	"fmt"
	"math"
	"sync"

	"rsgen/internal/xrand"
)

// Link is one bidirectional wide-area link with a capacity class.
type Link struct {
	A, B int // topology node (cluster) indices
	Mbps float64
}

// Topology is the wide-area network connecting clusters: an undirected graph
// with capacitated links. Node i corresponds to cluster i.
type Topology struct {
	N     int
	Links []Link

	// adj is the adjacency form of Links, built once on first use (a
	// decoded topology arrives without it) and read-only afterwards.
	adjOnce sync.Once
	adj     [][]linkTo
}

type linkTo struct {
	to   int
	mbps float64
}

// LinkClassesMbps are the BRITE-style discrete link-capacity classes used by
// the generator: OC3 (155), OC12 (622), 1 Gb Ethernet, OC48 (2488) and
// 10 Gb (§III.2.2).
var LinkClassesMbps = []float64{155, 622, 1000, 2488, 10_000}

// TopoModel selects the random-graph model used by GenerateTopology.
type TopoModel int

const (
	// Waxman links node pairs with probability decaying in their
	// Euclidean distance (Waxman 1988), the first widely used Internet
	// topology model.
	Waxman TopoModel = iota
	// BarabasiAlbert grows the graph with preferential attachment,
	// producing the power-law degree distributions observed for
	// router-level Internet graphs (Faloutsos³ 1999); this is BRITE's
	// default mode.
	BarabasiAlbert
)

// TopoSpec parameterizes topology generation.
type TopoSpec struct {
	// Nodes is the number of topology nodes (clusters).
	Nodes int
	// Model selects Waxman or BarabasiAlbert.
	Model TopoModel
	// Degree is the target mean degree (Waxman) or the number of links
	// added per new node (BA). Values < 1 default to 2.
	Degree int
	// Hierarchical, when true, overlays a two-level structure: nodes are
	// grouped into domains whose gateways form a 10 Gb backbone; this is
	// BRITE's top-down hierarchical mode.
	Hierarchical bool
}

// GenerateTopology builds a connected random topology per spec, drawing all
// randomness from rng.
func GenerateTopology(spec TopoSpec, rng *xrand.RNG) (*Topology, error) {
	if spec.Nodes < 1 {
		return nil, fmt.Errorf("platform: topology needs ≥1 node, got %d", spec.Nodes)
	}
	deg := spec.Degree
	if deg < 1 {
		deg = 2
	}
	t := &Topology{N: spec.Nodes}
	switch spec.Model {
	case Waxman:
		t.generateWaxman(deg, rng)
	case BarabasiAlbert:
		t.generateBA(deg, rng)
	default:
		return nil, fmt.Errorf("platform: unknown topology model %d", spec.Model)
	}
	if spec.Hierarchical {
		t.addBackbone(rng)
	}
	t.ensureConnected(rng)
	t.adjOnce.Do(t.buildAdj)
	return t, nil
}

// generateWaxman places nodes uniformly in the unit square and links pairs
// with the Waxman probability a·exp(−d/(b·L)), tuned so the expected degree
// is roughly deg.
func (t *Topology) generateWaxman(deg int, rng *xrand.RNG) {
	n := t.N
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i], ys[i] = rng.Float64(), rng.Float64()
	}
	const beta = 0.25
	l := math.Sqrt2 // max distance in unit square
	// Expected Waxman acceptance with α=1 is ≈ the mean of exp(−d/(βL)).
	// Scale α so that expected links ≈ n·deg/2.
	meanAccept := 0.12 // empirical mean of exp(−d/(0.25·√2)) for uniform pairs
	alpha := float64(deg) / (float64(n-1) * meanAccept)
	if alpha > 1 {
		alpha = 1
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := math.Hypot(xs[i]-xs[j], ys[i]-ys[j])
			if rng.Float64() < alpha*math.Exp(-d/(beta*l)) {
				t.Links = append(t.Links, Link{A: i, B: j, Mbps: t.pickClass(rng)})
			}
		}
	}
}

// generateBA grows the graph by preferential attachment: each new node links
// to deg existing nodes with probability proportional to their degree.
func (t *Topology) generateBA(deg int, rng *xrand.RNG) {
	n := t.N
	if n == 1 {
		return
	}
	degree := make([]int, n)
	// Repeated-endpoint list for O(1) preferential sampling.
	var stubs []int
	addLink := func(a, b int) {
		t.Links = append(t.Links, Link{A: a, B: b, Mbps: t.pickClass(rng)})
		degree[a]++
		degree[b]++
		stubs = append(stubs, a, b)
	}
	addLink(0, 1)
	for v := 2; v < n; v++ {
		m := deg
		if m > v {
			m = v
		}
		chosen := make(map[int]struct{}, m)
		for len(chosen) < m {
			var u int
			if len(stubs) == 0 || rng.Float64() < 0.1 {
				u = rng.Intn(v) // small uniform component avoids stars
			} else {
				u = stubs[rng.Intn(len(stubs))]
			}
			if u == v {
				continue
			}
			if _, dup := chosen[u]; dup {
				continue
			}
			chosen[u] = struct{}{}
			addLink(u, v)
		}
	}
}

// pickClass draws a link class, weighted toward the middle classes as BRITE
// assigns capacities by current technology mix.
func (t *Topology) pickClass(rng *xrand.RNG) float64 {
	// Weights: OC3 10%, OC12 25%, 1G 35%, OC48 20%, 10G 10%.
	r := rng.Float64()
	switch {
	case r < 0.10:
		return LinkClassesMbps[0]
	case r < 0.35:
		return LinkClassesMbps[1]
	case r < 0.70:
		return LinkClassesMbps[2]
	case r < 0.90:
		return LinkClassesMbps[3]
	default:
		return LinkClassesMbps[4]
	}
}

// addBackbone overlays a hierarchical backbone: every 16th node is a gateway
// and gateways form a 10 Gb ring plus chords.
func (t *Topology) addBackbone(rng *xrand.RNG) {
	var gws []int
	for i := 0; i < t.N; i += 16 {
		gws = append(gws, i)
	}
	if len(gws) < 2 {
		return
	}
	for i := range gws {
		j := (i + 1) % len(gws)
		t.Links = append(t.Links, Link{A: gws[i], B: gws[j], Mbps: LinkClassesMbps[4]})
	}
	for i := 0; i+2 < len(gws); i += 3 {
		j := rng.Intn(len(gws))
		if j != i {
			t.Links = append(t.Links, Link{A: gws[i], B: gws[j], Mbps: LinkClassesMbps[4]})
		}
	}
}

// ensureConnected links disconnected components with 1 Gb bridges so every
// cluster can reach every other (the dissertation's platforms are connected).
func (t *Topology) ensureConnected(rng *xrand.RNG) {
	parent := make([]int, t.N)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for _, l := range t.Links {
		union(l.A, l.B)
	}
	root := find(0)
	for v := 1; v < t.N; v++ {
		if find(v) != root {
			// Bridge to a random node of the root component.
			u := rng.Intn(v)
			for find(u) != root {
				u = rng.Intn(t.N)
			}
			t.Links = append(t.Links, Link{A: u, B: v, Mbps: LinkClassesMbps[2]})
			union(v, root)
			root = find(0)
		}
	}
}

func (t *Topology) buildAdj() {
	t.adj = make([][]linkTo, t.N)
	for _, l := range t.Links {
		t.adj[l.A] = append(t.adj[l.A], linkTo{to: l.B, mbps: l.Mbps})
		t.adj[l.B] = append(t.adj[l.B], linkTo{to: l.A, mbps: l.Mbps})
	}
}

// WidestPaths returns, for every node, the maximum-bottleneck bandwidth of
// any path from src (the "widest path" problem, solved with a max-heap
// Dijkstra variant). WidestPaths(src)[src] is +Inf conceptually; it is
// reported as the largest link class so intra-node transfers never
// bottleneck below a real link.
func (t *Topology) WidestPaths(src int) []float64 {
	t.adjOnce.Do(t.buildAdj)
	width := make([]float64, t.N)
	width[src] = LinkClassesMbps[len(LinkClassesMbps)-1]
	pq := &widthHeap{{node: src, width: width[src]}}
	for pq.Len() > 0 {
		cur := heap.Pop(pq).(widthItem)
		if cur.width < width[cur.node] {
			continue
		}
		for _, l := range t.adj[cur.node] {
			w := cur.width
			if l.mbps < w {
				w = l.mbps
			}
			if w > width[l.to] {
				width[l.to] = w
				heap.Push(pq, widthItem{node: l.to, width: w})
			}
		}
	}
	return width
}

type widthItem struct {
	node  int
	width float64
}

type widthHeap []widthItem

func (h widthHeap) Len() int            { return len(h) }
func (h widthHeap) Less(i, j int) bool  { return h[i].width > h[j].width }
func (h widthHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *widthHeap) Push(x interface{}) { *h = append(*h, x.(widthItem)) }
func (h *widthHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
