package platform

import (
	"container/heap"
	"fmt"
	"math"
	"testing"

	"rsgen/internal/xrand"
)

// WidestPaths is the oracle the widest-path table is held to: for every
// node, the maximum-bottleneck bandwidth of any path from src, found with a
// max-heap Dijkstra variant. WidestPaths(src)[src] is +Inf conceptually; it
// is reported as the largest link class, and every path's width is capped
// there, as a widest-path search starts its source at that width.
func (t *Topology) WidestPaths(src int) []float64 {
	type linkTo struct {
		to   int
		mbps float64
	}
	adj := make([][]linkTo, t.N)
	for _, l := range t.Links {
		adj[l.A] = append(adj[l.A], linkTo{to: l.B, mbps: l.Mbps})
		adj[l.B] = append(adj[l.B], linkTo{to: l.A, mbps: l.Mbps})
	}
	width := make([]float64, t.N)
	width[src] = LinkClassesMbps[len(LinkClassesMbps)-1]
	pq := &widthHeap{{node: src, width: width[src]}}
	for pq.Len() > 0 {
		cur := heap.Pop(pq).(widthItem)
		if cur.width < width[cur.node] {
			continue
		}
		for _, l := range adj[cur.node] {
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

// topoPlatform puts one host per node of topo into a cluster of its own
// with uplinks that never bottleneck, so that Bandwidth between two hosts
// is the widest path between their nodes.
func topoPlatform(topo *Topology) *Platform {
	p := &Platform{Topo: topo}
	for c := range topo.N {
		p.Clusters = append(p.Clusters, Cluster{
			ID: c, NumHosts: 1, FirstHost: HostID(c), ClockGHz: 2,
			IntraMbps: 1000, UplinkMbps: math.MaxFloat64,
		})
		p.Hosts = append(p.Hosts, Host{ID: HostID(c), Cluster: c, ClockGHz: 2, MemoryMB: 1024})
	}
	return p
}

// FuzzWidest holds the widest-path table to the Dijkstra oracle. It draws a
// Waxman, Barabási–Albert or hierarchical topology of 2–65 nodes, deletes
// some links (when drop > 0, about one in drop, which leaves pairs with no
// path: width 0), gives some others odd speeds, above the top class among
// them (when odd > 0, about one in odd), and puts on each node a cluster
// of one or two hosts with a drawn uplink. Every pair of distinct clusters
// must have a Bandwidth bit-equal to the oracle's width clamped by both
// uplinks, and every class PairBandwidths gives a drawn collection,
// with a host repeated in it, must be the class of Bandwidth.
func FuzzWidest(f *testing.F) {
	for i, seed := range []uint64{1, 2, 3, 4, 5, 6} {
		f.Add(seed, uint8(10*i+3), uint8(i%3), uint8(i), uint8(7-i))
	}
	f.Fuzz(func(t *testing.T, seed uint64, nodes, model, drop, odd uint8) {
		rng := xrand.New(seed)
		n := 2 + int(nodes)%64
		topo, err := GenerateTopology(TopoSpec{
			Nodes:        n,
			Model:        []TopoModel{Waxman, BarabasiAlbert, BarabasiAlbert}[model%3],
			Degree:       1 + rng.Intn(4),
			Hierarchical: model%3 == 2,
		}, rng.Split())
		if err != nil {
			t.Fatal(err)
		}
		var links []Link
		for _, l := range topo.Links {
			if drop > 0 && rng.Intn(int(drop)) == 0 {
				continue
			}
			if odd > 0 && rng.Intn(int(odd)) == 0 {
				l.Mbps = rng.Uniform(1, 20_000)
			}
			links = append(links, l)
		}
		topo.Links = links

		p := &Platform{Topo: topo}
		for c := range n {
			size := 1 + rng.Intn(2)
			uplink := LinkClassesMbps[rng.Intn(len(LinkClassesMbps))]
			if rng.Intn(8) == 0 {
				uplink = rng.Uniform(1, 20_000)
			}
			p.Clusters = append(p.Clusters, Cluster{
				ID: c, NumHosts: size, FirstHost: HostID(len(p.Hosts)), ClockGHz: 2,
				IntraMbps: 1000, UplinkMbps: uplink,
			})
			for range size {
				p.Hosts = append(p.Hosts, Host{ID: HostID(len(p.Hosts)), Cluster: c, ClockGHz: 2, MemoryMB: 1024})
			}
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		for a, ca := range p.Clusters {
			row := topo.WidestPaths(a)
			for b, cb := range p.Clusters {
				if a == b {
					continue
				}
				want := min(row[b], ca.UplinkMbps, cb.UplinkMbps)
				if got := p.Bandwidth(ca.FirstHost, cb.FirstHost); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("clusters %d,%d: Bandwidth %v, oracle %v (widest %v)", a, b, got, want, row[b])
				}
			}
		}

		m := 1 + rng.Intn(min(40, len(p.Hosts)))
		var hosts []Host
		for _, id := range rng.Sample(len(p.Hosts), m) {
			hosts = append(hosts, p.Hosts[id])
		}
		hosts = append(hosts, hosts[rng.Intn(m)])
		if p.LinkSpeeds() == nil {
			if SubsetRC(p, hosts).Net.(PairBandwidthNetwork).PairBandwidths(make([]uint8, len(hosts)*len(hosts))) != nil {
				t.Fatal("PairBandwidths filled a declined table")
			}
			return
		}
		checkPairClasses(t, p, hosts)
	})
}

// BenchmarkPairBandwidths fills the class table of random collections of
// the sizes moga searches by default, on the 200-cluster 2007 platform,
// cycling through 64 collections per size.
func BenchmarkPairBandwidths(b *testing.B) {
	p := MustGenerate(GenSpec{Clusters: 200, Year: 2007}, xrand.New(1))
	for _, m := range []int{5, 12, 22} {
		rng := xrand.New(uint64(m))
		nets := make([]PairBandwidthNetwork, 64)
		for i := range nets {
			hosts := make([]Host, m)
			for j, id := range rng.Sample(p.NumHosts(), m) {
				hosts[j] = p.Hosts[id]
			}
			nets[i] = SubsetRC(p, hosts).Net.(PairBandwidthNetwork)
		}
		cls := make([]uint8, m*m)
		b.Run(fmt.Sprintf("m%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if nets[i%len(nets)].PairBandwidths(cls) == nil {
					b.Fatal("speed table declined")
				}
			}
		})
	}
}
