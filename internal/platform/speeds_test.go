package platform

import (
	"math"
	"sync"
	"testing"

	"rsgen/internal/xrand"
)

// checkPairClasses fills the class table of an RC over hosts and requires,
// for every pair, class 0 exactly when both slots name one host and
// otherwise a class whose speed is bit for bit Bandwidth.
func checkPairClasses(t *testing.T, p *Platform, hosts []Host) {
	t.Helper()
	rc := SubsetRC(p, hosts)
	m := len(hosts)
	cls := make([]uint8, m*m)
	ls := rc.Net.(PairBandwidthNetwork).PairBandwidths(cls)
	if ls == nil {
		t.Fatal("speed table declined")
	}
	if ls != p.LinkSpeeds() {
		t.Fatal("PairBandwidths returned another table than LinkSpeeds")
	}
	for k := 2; k < len(ls.Mbps); k++ {
		if !(ls.Mbps[k-1] < ls.Mbps[k]) {
			t.Fatalf("speeds not ascending: %v", ls.Mbps)
		}
	}
	for i, a := range hosts {
		for j, b := range hosts {
			c := cls[i*m+j]
			if a.ID == b.ID {
				if c != 0 {
					t.Fatalf("host %d with itself: class %d, want 0", a.ID, c)
				}
				continue
			}
			if c == 0 {
				t.Fatalf("distinct hosts %d,%d in the free class", a.ID, b.ID)
			}
			if got, want := ls.Mbps[c], p.Bandwidth(a.ID, b.ID); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("hosts %d,%d: class %d speed %v, Bandwidth %v", a.ID, b.ID, c, got, want)
			}
		}
	}
}

// Every host pair of the 200-cluster 2007 platform: the class depends only
// on the two clusters and on whether the hosts are one, so two hosts per
// cluster (first and last of the span) reach every (cluster, cluster,
// same-host) case; a "twin" — one host listed twice — is added on top.
func TestLinkSpeedsMatchBandwidth2007(t *testing.T) {
	p := MustGenerate(GenSpec{Clusters: 200, Year: 2007}, xrand.New(1))
	var hosts []Host
	for _, c := range p.Clusters {
		hosts = append(hosts, p.Hosts[c.FirstHost], p.Hosts[int(c.FirstHost)+c.NumHosts-1])
	}
	hosts = append(hosts, hosts[7])
	checkPairClasses(t, p, hosts)
	// The BRITE link classes (the LAN speeds are among them) and 0 for an
	// unreachable pair are all there is.
	if n := len(p.LinkSpeeds().Mbps) - 1; n > len(LinkClassesMbps)+1 {
		t.Errorf("%d distinct speeds on a generated platform, want ≤ %d", n, len(LinkClassesMbps)+1)
	}
}

// A hand-built platform with mixed hardware: clusters of different LAN
// speeds and uplinks, links of odd capacities, one cluster the topology
// does not reach (bandwidth 0), and one cluster with mixed clocks. Every
// host pair is checked.
func TestLinkSpeedsMatchBandwidthMixed(t *testing.T) {
	p := &Platform{
		Clusters: []Cluster{
			{ID: 0, NumHosts: 3, FirstHost: 0, ClockGHz: 2, IntraMbps: 1000, UplinkMbps: 2488},
			{ID: 1, NumHosts: 2, FirstHost: 3, ClockGHz: 3, IntraMbps: 10_000, UplinkMbps: 622},
			{ID: 2, NumHosts: 2, FirstHost: 5, ClockGHz: 2.4, IntraMbps: 100.5, UplinkMbps: 10_000},
			{ID: 3, NumHosts: 1, FirstHost: 7, ClockGHz: 1.5, IntraMbps: 1000, UplinkMbps: 155},
			{ID: 4, NumHosts: 2, FirstHost: 8, ClockGHz: 2.8, IntraMbps: 45, UplinkMbps: 1000},
		},
		Topo: &Topology{N: 5, Links: []Link{
			{A: 0, B: 1, Mbps: 3000},
			{A: 1, B: 2, Mbps: 333.25},
			{A: 0, B: 3, Mbps: 10_000},
		}},
	}
	clocks := []float64{2, 2, 3.2, 3, 3, 2.4, 2.4, 1.5, 2.8, 2.8}
	cluster := []int{0, 0, 0, 1, 1, 2, 2, 3, 4, 4}
	for i, clk := range clocks {
		p.Hosts = append(p.Hosts, Host{ID: HostID(i), Cluster: cluster[i], ClockGHz: clk, MemoryMB: 1024})
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	hosts := append(append([]Host(nil), p.Hosts...), p.Hosts[3], p.Hosts[0])
	checkPairClasses(t, p, hosts)
	if got := p.Bandwidth(0, 8); got != 0 {
		t.Fatalf("unreachable cluster has bandwidth %v, want 0", got)
	}
}

// starPlatform is a hub cluster linked to leaves clusters by links of
// distinct speeds, one host each, uplinks wide enough never to bottleneck:
// every hub–leaf and leaf–leaf pair runs at the slower leaf link, so the
// platform has exactly leaves distinct inter-cluster speeds. The table
// lists three more possible ones: the LAN and uplink speed, 0 (no path)
// and the widest path's source cap.
func starPlatform(leaves int) *Platform {
	p := &Platform{Topo: &Topology{N: leaves + 1}}
	for c := 0; c <= leaves; c++ {
		p.Clusters = append(p.Clusters, Cluster{
			ID: c, NumHosts: 1, FirstHost: HostID(c), ClockGHz: 2,
			IntraMbps: 1e9, UplinkMbps: 1e9,
		})
		p.Hosts = append(p.Hosts, Host{ID: HostID(c), Cluster: c, ClockGHz: 2, MemoryMB: 1024})
		if c > 0 {
			p.Topo.Links = append(p.Topo.Links, Link{A: 0, B: c, Mbps: 100 + float64(c)})
		}
	}
	return p
}

// More than MaxLinkSpeeds possible speeds decline the table — 256 distinct
// inter-cluster speeds certainly do; exactly MaxLinkSpeeds do not.
func TestLinkSpeedsDeclineBeyond255(t *testing.T) {
	over := starPlatform(256)
	if err := over.Validate(); err != nil {
		t.Fatal(err)
	}
	if ls := over.LinkSpeeds(); ls != nil {
		t.Fatalf("table with %d speeds accepted", len(ls.Mbps)-1)
	}
	rc := SubsetRC(over, over.Hosts[:4])
	cls := []uint8{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}
	if rc.Net.(PairBandwidthNetwork).PairBandwidths(cls) != nil {
		t.Fatal("PairBandwidths filled a declined table")
	}
	for _, c := range cls {
		if c != 9 {
			t.Fatal("a declining PairBandwidths wrote the class table")
		}
	}

	if ls := starPlatform(MaxLinkSpeeds - 2).LinkSpeeds(); ls != nil {
		t.Fatalf("table with %d speeds accepted", len(ls.Mbps)-1)
	}
	limit := starPlatform(MaxLinkSpeeds - 3)
	ls := limit.LinkSpeeds()
	if ls == nil || len(ls.Mbps)-1 != MaxLinkSpeeds {
		t.Fatalf("255-speed platform: table %v", ls)
	}
	checkPairClasses(t, limit, limit.Hosts)
}

// First use from several goroutines at once publishes one table, and its
// class rows built concurrently are right (run under -race: the platform is
// shared by every request the service handles).
func TestLinkSpeedsConcurrentFirstUse(t *testing.T) {
	p := MustGenerate(GenSpec{Clusters: 30, Year: 2007}, xrand.New(9))
	const m = 12
	hosts := make([][]Host, 8)
	cls := make([][]uint8, len(hosts))
	tables := make([]*LinkSpeeds, len(hosts))
	var wg sync.WaitGroup
	for i := range hosts {
		for _, id := range xrand.New(uint64(i)).Sample(p.NumHosts(), m) {
			hosts[i] = append(hosts[i], p.Hosts[id])
		}
		cls[i] = make([]uint8, m*m)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rc := SubsetRC(p, hosts[i])
			tables[i] = rc.Net.(PairBandwidthNetwork).PairBandwidths(cls[i])
		}(i)
	}
	wg.Wait()
	for i, ls := range tables {
		if ls == nil || ls != tables[0] {
			t.Fatalf("goroutines saw different speed tables")
		}
		for a, ha := range hosts[i] {
			for b, hb := range hosts[i] {
				if c := cls[i][a*m+b]; ha.ID != hb.ID && ls.Mbps[c] != p.Bandwidth(ha.ID, hb.ID) {
					t.Fatalf("hosts %d,%d: class %d speed %v, Bandwidth %v", ha.ID, hb.ID, c, ls.Mbps[c], p.Bandwidth(ha.ID, hb.ID))
				}
			}
		}
	}
}

// The speed-class table lists every host clock of the platform once, in
// ascending order, and each class's speedup is bit for bit Host.Speedup of
// the hosts in it; a clock the platform does not have has no class.
func TestSpeedClassesMatchHosts(t *testing.T) {
	p := MustGenerate(GenSpec{Clusters: 200, Year: 2007}, xrand.New(1))
	sc := p.SpeedClasses()
	if sc == nil {
		t.Fatal("speed-class table declined")
	}
	if sc != p.SpeedClasses() || sc != SubsetRC(p, p.Hosts[:3]).Net.(SpeedClassNetwork).SpeedClasses() {
		t.Fatal("the platform and its network returned different tables")
	}
	seen := make([]bool, len(sc.Speedup))
	for _, h := range p.Hosts {
		k, ok := sc.Class(h.ClockGHz)
		if !ok {
			t.Fatalf("host %d: clock %v has no class", h.ID, h.ClockGHz)
		}
		if math.Float64bits(sc.Speedup[k]) != math.Float64bits(h.Speedup()) {
			t.Fatalf("host %d: class %d speedup %v, Speedup %v", h.ID, k, sc.Speedup[k], h.Speedup())
		}
		seen[k] = true
	}
	for k, ok := range seen {
		if !ok {
			t.Errorf("class %d (speedup %v) has no host", k, sc.Speedup[k])
		}
		if k > 0 && !(sc.Speedup[k-1] < sc.Speedup[k]) {
			t.Errorf("speedups not ascending: %v", sc.Speedup)
		}
	}
	if _, ok := sc.Class(1.2345); ok {
		t.Error("a clock no host has got a class")
	}
}

// More than MaxSpeedClasses distinct clocks decline the table; exactly
// MaxSpeedClasses do not, and a clock repeated across clusters is one class.
func TestSpeedClassesDeclineBeyond255(t *testing.T) {
	clocked := func(n int) *Platform {
		p := starPlatform(n)
		for i := range p.Hosts {
			p.Hosts[i].ClockGHz = 1 + float64(i)/64
			p.Clusters[i].ClockGHz = p.Hosts[i].ClockGHz
		}
		return p
	}
	if sc := clocked(MaxSpeedClasses).SpeedClasses(); sc != nil {
		t.Fatalf("table with %d clocks accepted", len(sc.Speedup))
	}
	limit := clocked(MaxSpeedClasses - 1)
	if sc := limit.SpeedClasses(); sc == nil || len(sc.Speedup) != MaxSpeedClasses {
		t.Fatalf("%d-clock platform: table %v", len(limit.Hosts), sc)
	}
	limit.Hosts[7].ClockGHz = limit.Hosts[200].ClockGHz
	limit.clocks.Store(nil)
	if sc := limit.SpeedClasses(); sc == nil || len(sc.Speedup) != MaxSpeedClasses-1 {
		t.Fatalf("a repeated clock: table %v", sc)
	}
}
