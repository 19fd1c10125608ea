package platform

import (
	"math"
	"testing"
	"testing/quick"

	"rsgen/internal/xrand"
)

func TestGeneratePlatformScale(t *testing.T) {
	p := MustGenerate(GenSpec{Clusters: 200, Year: 2006}, xrand.New(1))
	if got := len(p.Clusters); got != 200 {
		t.Fatalf("clusters = %d, want 200", got)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Mean cluster size targets 33.7; with 200 clusters the total should
	// land within a factor of two of 6,740.
	n := p.NumHosts()
	if n < 3000 || n > 15000 {
		t.Errorf("total hosts = %d, want ≈6700", n)
	}
	// All clock rates from the 2006 mix.
	valid := map[float64]bool{1.5: true, 2.0: true, 2.4: true, 2.8: true, 3.0: true, 3.2: true}
	for _, h := range p.Hosts {
		if !valid[h.ClockGHz] {
			t.Fatalf("host %d has clock %v not in 2006 mix", h.ID, h.ClockGHz)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(GenSpec{Clusters: 50, Year: 2006}, xrand.New(9))
	b := MustGenerate(GenSpec{Clusters: 50, Year: 2006}, xrand.New(9))
	if a.NumHosts() != b.NumHosts() {
		t.Fatalf("same seed, different host counts: %d vs %d", a.NumHosts(), b.NumHosts())
	}
	for i := range a.Hosts {
		if a.Hosts[i] != b.Hosts[i] {
			t.Fatalf("host %d differs between same-seed platforms", i)
		}
	}
}

func TestGenerateRejectsBadSpec(t *testing.T) {
	if _, err := Generate(GenSpec{Clusters: 0}, xrand.New(1)); err == nil {
		t.Fatal("want error for 0 clusters")
	}
}

func TestBandwidthProperties(t *testing.T) {
	p := MustGenerate(GenSpec{Clusters: 60, Year: 2006}, xrand.New(3))
	// Same host: reference bandwidth, zero transfer time.
	h0 := p.Hosts[0].ID
	if got := p.Bandwidth(h0, h0); got != ReferenceBandwidthMbps {
		t.Errorf("self bandwidth = %v", got)
	}
	if got := p.TransferTime(5, h0, h0); got != 0 {
		t.Errorf("self transfer time = %v, want 0", got)
	}
	// Intra-cluster: the cluster's LAN speed, symmetric.
	c0 := p.Clusters[0]
	if c0.NumHosts >= 2 {
		a, b := c0.FirstHost, c0.FirstHost+1
		if got := p.Bandwidth(a, b); got != c0.IntraMbps {
			t.Errorf("intra bandwidth = %v, want %v", got, c0.IntraMbps)
		}
	}
	// Inter-cluster: positive, ≤ both uplinks, symmetric.
	var a, b HostID
	ca, cb := 0, len(p.Clusters)-1
	a = p.Clusters[ca].FirstHost
	b = p.Clusters[cb].FirstHost
	bw := p.Bandwidth(a, b)
	if bw <= 0 {
		t.Fatalf("inter-cluster bandwidth = %v", bw)
	}
	if bw > p.Clusters[ca].UplinkMbps || bw > p.Clusters[cb].UplinkMbps {
		t.Errorf("bandwidth %v exceeds an uplink (%v, %v)",
			bw, p.Clusters[ca].UplinkMbps, p.Clusters[cb].UplinkMbps)
	}
	if back := p.Bandwidth(b, a); math.Abs(back-bw) > 1e-9 {
		t.Errorf("bandwidth asymmetric: %v vs %v", bw, back)
	}
	// Transfer time scales with reference/actual bandwidth.
	want := 5 * ReferenceBandwidthMbps / bw
	if got := p.TransferTime(5, a, b); math.Abs(got-want) > 1e-9 {
		t.Errorf("transfer time = %v, want %v", got, want)
	}
}

func TestWidestPathsMonotone(t *testing.T) {
	// Widest path bandwidth can never exceed the best link class and must
	// be positive on a connected topology.
	topo, err := GenerateTopology(TopoSpec{Nodes: 40, Model: Waxman, Degree: 3}, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	p := topoPlatform(topo)
	for i := 1; i < topo.N; i++ {
		v := p.Bandwidth(0, HostID(i))
		if v <= 0 {
			t.Fatalf("node %d unreachable (width %v)", i, v)
		}
		if v > LinkClassesMbps[len(LinkClassesMbps)-1] {
			t.Fatalf("node %d width %v exceeds max class", i, v)
		}
	}
}

func TestWidestPathTriangle(t *testing.T) {
	// Hand-built: 0—1 at 100, 1—2 at 1000, 0—2 at 155.
	// Widest 0→2 = max(min(100,1000), 155) = 155.
	p := topoPlatform(&Topology{N: 3, Links: []Link{
		{A: 0, B: 1, Mbps: 100},
		{A: 1, B: 2, Mbps: 1000},
		{A: 0, B: 2, Mbps: 155},
	}})
	if w := p.Bandwidth(0, 2); w != 155 {
		t.Errorf("widest(0,2) = %v, want 155", w)
	}
	if w := p.Bandwidth(0, 1); w != 155 { // via node 2: min(155,1000)=155 beats direct 100
		t.Errorf("widest(0,1) = %v, want 155", w)
	}
	if w := p.Bandwidth(1, 2); w != 1000 {
		t.Errorf("widest(1,2) = %v, want 1000", w)
	}
}

func TestTopologyConnected(t *testing.T) {
	f := func(seed uint64, n8 uint8, model bool) bool {
		n := int(n8%100) + 2
		m := Waxman
		if model {
			m = BarabasiAlbert
		}
		topo, err := GenerateTopology(TopoSpec{Nodes: n, Model: m, Degree: 2}, xrand.New(seed))
		if err != nil {
			return false
		}
		p := topoPlatform(topo)
		for i := 1; i < n; i++ {
			if p.Bandwidth(0, HostID(i)) <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFastestHosts(t *testing.T) {
	p := MustGenerate(GenSpec{Clusters: 30, Year: 2006}, xrand.New(2))
	top := p.FastestHosts(10)
	if len(top) != 10 {
		t.Fatalf("got %d hosts", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].ClockGHz > top[i-1].ClockGHz {
			t.Fatalf("not sorted by clock: %v after %v", top[i].ClockGHz, top[i-1].ClockGHz)
		}
	}
	// Asking for more hosts than exist returns all of them.
	all := p.FastestHosts(p.NumHosts() + 100)
	if len(all) != p.NumHosts() {
		t.Errorf("overshoot returned %d, want %d", len(all), p.NumHosts())
	}
}

func TestHomogeneousRC(t *testing.T) {
	rc := HomogeneousRC(16, 3.0, 1000)
	if err := rc.Validate(); err != nil {
		t.Fatal(err)
	}
	if rc.Size() != 16 {
		t.Fatalf("size = %d", rc.Size())
	}
	if got := rc.ClockHeterogeneity(); got != 0 {
		t.Errorf("heterogeneity = %v, want 0", got)
	}
	if got := rc.MinClock(); got != 3.0 {
		t.Errorf("min clock = %v", got)
	}
	// Uniform network: 10 Gb reference cost over 1 Gb link = 10× slower.
	if got := rc.Net.TransferTime(2, 0, 1); math.Abs(got-20) > 1e-9 {
		t.Errorf("transfer = %v, want 20", got)
	}
	if got := rc.Net.TransferTime(2, 3, 3); got != 0 {
		t.Errorf("self transfer = %v, want 0", got)
	}
}

func TestHeterogeneousRC(t *testing.T) {
	rc := HeterogeneousRC(200, 3.0, 0.3, 1000, xrand.New(4))
	if err := rc.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, h := range rc.Hosts {
		if h.ClockGHz < 3.0*0.7-1e-9 || h.ClockGHz > 3.0*1.3+1e-9 {
			t.Fatalf("clock %v outside ±30%% of 3.0", h.ClockGHz)
		}
	}
	het := rc.ClockHeterogeneity()
	if het <= 0.15 || het > 0.45 {
		t.Errorf("measured heterogeneity %v, want ≈0.3", het)
	}
	// het=0 reduces to homogeneous.
	hom := HeterogeneousRC(10, 2.0, 0, 1000, xrand.New(4))
	if got := hom.ClockHeterogeneity(); got != 0 {
		t.Errorf("het=0 RC has heterogeneity %v", got)
	}
}

func TestUniverseAndSubsetRC(t *testing.T) {
	p := MustGenerate(GenSpec{Clusters: 20, Year: 2006}, xrand.New(6))
	u := UniverseRC(p)
	if u.Size() != p.NumHosts() {
		t.Fatalf("universe size = %d, want %d", u.Size(), p.NumHosts())
	}
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	sub := SubsetRC(p, p.FastestHosts(5))
	if sub.Size() != 5 {
		t.Fatalf("subset size = %d", sub.Size())
	}
	// Subset network must agree with the platform's.
	a, b := sub.Hosts[0].ID, sub.Hosts[1].ID
	want := p.TransferTime(3, a, b)
	if got := sub.Net.TransferTime(3, 0, 1); math.Abs(got-want) > 1e-9 {
		t.Errorf("subset transfer = %v, want %v", got, want)
	}
}

func TestRCValidateErrors(t *testing.T) {
	empty := &ResourceCollection{Net: UniformNetwork{Mbps: 1000}}
	if err := empty.Validate(); err == nil {
		t.Error("empty RC validated")
	}
	noNet := &ResourceCollection{Hosts: []Host{{ClockGHz: 1}}}
	if err := noNet.Validate(); err == nil {
		t.Error("RC without network validated")
	}
	badClock := HomogeneousRC(2, 1.0, 100)
	badClock.Hosts[1].ClockGHz = 0
	if err := badClock.Validate(); err == nil {
		t.Error("zero-clock RC validated")
	}
	// NaN passes a test of x <= 0; an infinite clock would make every
	// execution time 0.
	for _, c := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		rc := HomogeneousRC(2, 1.0, 100)
		rc.Hosts[0].ClockGHz = c
		if err := rc.Validate(); err == nil {
			t.Errorf("RC with clock %v validated", c)
		}
	}
}

// Platform.Validate rejects clocks and bandwidths that are NaN or +Inf, as
// it rejects non-positive ones.
func TestValidateRejectsNonFinite(t *testing.T) {
	build := func() *Platform {
		p := MustGenerate(GenSpec{Clusters: 4, Year: 2006}, xrand.New(3))
		return &Platform{Hosts: append([]Host(nil), p.Hosts...), Clusters: append([]Cluster(nil), p.Clusters...), Topo: p.Topo}
	}
	if err := build().Validate(); err != nil {
		t.Fatalf("generated platform: %v", err)
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), 0} {
		for name, set := range map[string]func(p *Platform){
			"host clock": func(p *Platform) { p.Hosts[3].ClockGHz = x },
			"LAN":        func(p *Platform) { p.Clusters[1].IntraMbps = x },
			"uplink":     func(p *Platform) { p.Clusters[2].UplinkMbps = x },
		} {
			p := build()
			set(p)
			if err := p.Validate(); err == nil {
				t.Errorf("%s %v validated", name, x)
			}
		}
	}
}
