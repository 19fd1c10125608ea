package sched

import (
	"math"
	"sync"
	"testing"

	"rsgen/internal/dag"
	"rsgen/internal/platform"
	"rsgen/internal/xrand"
)

// transferOnlyNet hides every table a platform network offers (pair link
// classes, cluster bandwidths and speed classes), which forces the
// per-(parent, host) TransferTime interface path on the same hosts at every
// collection size.
type transferOnlyNet struct{ platform.Network }

// starPlatform is a hub cluster linked to leaves one-host clusters by links
// of distinct speeds: leaves distinct inter-cluster speeds, so leaves >
// platform.MaxLinkSpeeds makes the platform decline its speed table.
func starPlatform(leaves int) *platform.Platform {
	p := &platform.Platform{Topo: &platform.Topology{N: leaves + 1}}
	for c := 0; c <= leaves; c++ {
		p.Clusters = append(p.Clusters, platform.Cluster{
			ID: c, NumHosts: 1, FirstHost: platform.HostID(c), ClockGHz: 1 + float64(c%4)/2,
			IntraMbps: 1e9, UplinkMbps: 1e9,
		})
		p.Hosts = append(p.Hosts, platform.Host{ID: platform.HostID(c), Cluster: c, ClockGHz: 1 + float64(c%4)/2, MemoryMB: 1024})
		if c > 0 {
			p.Topo.Links = append(p.Topo.Links, platform.Link{A: 0, B: c, Mbps: 100 + float64(c)})
		}
	}
	return p
}

// fuzzPlatform is the platform FuzzDenseTable draws its collections from.
var fuzzPlatform = sync.OnceValue(func() *platform.Platform {
	return platform.MustGenerate(platform.GenSpec{Clusters: 40, Year: 2007}, xrand.New(91))
})

// FuzzDenseTable is the differential check of TestDenseTableMatchesInterfacePath
// over generated inputs. The seed draws a DAG of 2–81 tasks, with free edges
// and (when mix&1) overflowing ones mixed in, and a collection of 1–256
// hosts (from 128 on, the grouped path's sizes where the sample holds
// enough hosts per cluster) that (when mix&2) lists one host twice. When
// mix&4 the platform's host clocks are redrawn first:
// either per host from 300 distinct values, so the speed-class table
// declines, or per cluster from three, so clusters share a class. mix>>3
// picks the heuristic. The table paths and the hidden-table interface path
// must agree on the schedule hash, and TurnAround (a single-use plan) and a
// compiled plan's TurnAround on its bits.
func FuzzDenseTable(f *testing.F) {
	for i, seed := range []uint64{1, 2, 3, 91, 1 << 40, 7, 8, 9, 10} {
		f.Add(seed, uint8(5+8*i+100*(i/7)), uint8(40+i), uint8(i<<3|3|(i&1)<<2))
	}
	f.Fuzz(func(t *testing.T, seed uint64, k, size, mix uint8) {
		p := fuzzPlatform()
		rng := xrand.New(seed)
		if mix&4 != 0 {
			p = redrawClocks(p, rng.Intn(2) == 0, rng)
		}
		d := dag.MustGenerate(dag.GenSpec{
			Size: 2 + int(size)%80, CCR: rng.Uniform(0, 4), Parallelism: rng.Uniform(0.2, 0.9),
			Density: rng.Uniform(0.1, 1), Regularity: rng.Uniform(0, 1), MeanCost: rng.Uniform(1, 100),
		}, rng.Split())
		edges := append([]dag.Edge(nil), d.Edges()...)
		for i := range edges {
			switch rng.Intn(12) {
			case 0:
				edges[i].Cost = 0
			case 1:
				if mix&1 != 0 {
					edges[i].Cost = math.MaxFloat64 / 2
				}
			}
		}
		d = dag.MustNew(d.Tasks(), edges)
		m := 1 + int(k)
		hosts := make([]platform.Host, m)
		for i, id := range rng.Sample(p.NumHosts(), m) {
			hosts[i] = p.Hosts[id]
		}
		if mix&2 != 0 && m > 1 {
			hosts[rng.Intn(m)] = hosts[rng.Intn(m)]
		}
		hs := append(All(), Baselines()...)
		h := hs[int(mix>>3)%len(hs)]

		table := platform.SubsetRC(p, hosts)
		hidden := &platform.ResourceCollection{
			Hosts: table.Hosts,
			Net:   transferOnlyNet{table.Net},
		}
		want, err := h.Schedule(d, hidden)
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.Schedule(d, table)
		if err != nil {
			t.Fatal(err)
		}
		if gh, wh := scheduleHash(got), scheduleHash(want); gh != wh {
			t.Fatalf("%s m=%d n=%d: dense table %016x != interface path %016x", h.Name(), m, d.Size(), gh, wh)
		}
		wantTA := math.Float64bits(want.TurnAround(1))
		ta, err := TurnAround(h, d, table, 1)
		if err != nil {
			t.Fatal(err)
		}
		pta, err := Compile(h, d).TurnAround(table, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(ta) != wantTA || math.Float64bits(pta) != wantTA {
			t.Fatalf("%s m=%d n=%d: TurnAround %v, Plan.TurnAround %v, want %v",
				h.Name(), m, d.Size(), ta, pta, want.TurnAround(1))
		}
	})
}

// redrawClocks returns a copy of p whose host clocks are drawn afresh:
// per host from 300 distinct values when distinct (p must have at least 300
// hosts, so the copy declines its speed-class table), otherwise per cluster
// from three values, so that several clusters share each clock.
func redrawClocks(p *platform.Platform, distinct bool, rng *xrand.RNG) *platform.Platform {
	q := &platform.Platform{
		Hosts:    append([]platform.Host(nil), p.Hosts...),
		Clusters: append([]platform.Cluster(nil), p.Clusters...),
		Topo:     p.Topo,
	}
	off := rng.Intn(300)
	for c := range q.Clusters {
		clock := []float64{1.2, 2.4, 3.1}[rng.Intn(3)]
		q.Clusters[c].ClockGHz = clock
		for id := q.Clusters[c].FirstHost; int(id) < int(q.Clusters[c].FirstHost)+q.Clusters[c].NumHosts; id++ {
			if distinct {
				clock = 1 + float64((int(id)+off)%300)/128
			}
			q.Hosts[id].ClockGHz = clock
		}
	}
	if (q.SpeedClasses() == nil) != distinct {
		panic("redrawClocks: the speed-class table did not follow the draw")
	}
	return q
}

// The speed-class table is used wherever the collection's platform lists
// every host's clock: a Plan fills its task × class table on the first
// collection and reads it on every later one. A collection holding a host
// whose clock the platform does not list, or a network that hides the
// table, divides.
func TestSpeedTableUse(t *testing.T) {
	p := fuzzPlatform()
	classes := len(p.SpeedClasses().Speedup)
	d := goldenDAGs()[1].d
	for _, m := range []int{1, classes, classes + 1, 22} {
		hosts := make([]platform.Host, m)
		for i, id := range xrand.New(uint64(m)).Sample(p.NumHosts(), m) {
			hosts[i] = p.Hosts[id]
		}
		rc := platform.SubsetRC(p, hosts)
		plan := Compile(MCP{}, d)
		s, err := newState(plan, rc)
		if err != nil {
			t.Fatal(err)
		}
		if !s.speedTable() || plan.exec.Load() == nil {
			t.Errorf("plan m=%d: no speed-class table", m)
		}
		s.release()

		foreign := platform.SubsetRC(p, hosts)
		foreign.Hosts[m-1].ClockGHz = 1.2345
		hidden := &platform.ResourceCollection{Hosts: hosts, Net: transferOnlyNet{rc.Net}}
		for _, rc := range []*platform.ResourceCollection{foreign, hidden} {
			s, _ = newState(plan, rc)
			if s.speedTable() {
				t.Errorf("m=%d: speed-class table used for a collection it does not describe", m)
			}
			s.release()
		}
	}
}

// TestDenseTableMatchesInterfacePath is the exactness proof for the small-RC
// dense path: on cluster-network collections, every heuristic must produce
// bit-identical schedules and turn-arounds whether data-ready times come
// from the link-class and transfer-time tables (scan forced at every size)
// or from TransferTime (table hidden), through a fresh plan per call and
// through one Plan per heuristic reused across every collection. The corpus DAGs are the golden
// corpus's, plus one with an overflowing edge cost and one with free edges;
// the collections cover the moga sizes, the largest size below the real
// gate, a one-cluster RC, a repeated host (a free pair off the diagonal), an
// RC with more hosts than the DAG has edges, and a platform with too many
// link speeds (both tables declined). Collections of 128 hosts and more
// then take the grouped path at the real host-count gate, with the
// hosts-per-bucket gate open (a sample of 150 hosts from 40 clusters has
// too few hosts per cluster for the default), and are held to the same
// per-host schedules.
func TestDenseTableMatchesInterfacePath(t *testing.T) {
	old := indexMinHosts
	defer func() { indexMinHosts = old }()
	indexMinHosts = 1 << 30

	p, err := platform.Generate(platform.GenSpec{Clusters: 40, Year: 2007}, xrand.New(91))
	if err != nil {
		t.Fatal(err)
	}
	sample := func(k int, seed uint64) []platform.Host {
		hosts := make([]platform.Host, k)
		for i, id := range xrand.New(seed).Sample(p.NumHosts(), k) {
			hosts[i] = p.Hosts[id]
		}
		return hosts
	}
	repeated := sample(9, 95)
	repeated[6] = repeated[2]
	big := p.Clusters[0]
	for _, c := range p.Clusters {
		if c.NumHosts > big.NumHosts {
			big = c
		}
	}
	rcs := []struct {
		name  string
		hosts []platform.Host
		dense bool
	}{
		{"k5", sample(5, 92), true},
		{"k12", sample(12, 93), true},
		{"k22", sample(22, 94), true},
		{"k127", sample(127, 96), true},
		{"top40", p.FastestHosts(40), true},
		{"one-cluster", p.Hosts[big.FirstHost : int(big.FirstHost)+min(big.NumHosts, 16)], true},
		{"repeated-host", repeated, true},
		{"twins", []platform.Host{repeated[2], repeated[2]}, true},
	}
	golden := goldenDAGs()
	// One edge whose cost × ReferenceBandwidthMbps overflows: its transfer
	// is +Inf between distinct hosts but must stay 0 in the free class. On
	// the diagonal the parent host's own free time would hide a wrong
	// value; between twins (one host listed twice) it does not. One DAG
	// with every third edge free: a zero-cost edge's row is all zeros.
	for _, d := range []*dag.DAG{golden[0].d, golden[1].d, overflowingEdge(golden[1].d), zeroCostEdges(golden[1].d, 3)} {
		// One plan per heuristic, reused across every collection below:
		// its quotient table is built on the first and read by the rest.
		plans := map[string]*Plan{}
		for _, h := range append(All(), Baselines()...) {
			plans[h.Name()] = Compile(h, d)
		}
		for _, rr := range rcs {
			table := platform.SubsetRC(p, rr.hosts)
			hidden := &platform.ResourceCollection{
				Hosts: table.Hosts,
				Net:   transferOnlyNet{table.Net},
			}
			for _, rc := range []*platform.ResourceCollection{table, hidden} {
				s, err := newState(Compile(MCP{}, d), rc)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := s.pairTable(), rr.dense && rc == table; got != want {
					t.Fatalf("%s: pairTable() = %v, want %v", rr.name, got, want)
				}
				s.release()
			}
			for _, h := range append(All(), Baselines()...) {
				want, err := h.Schedule(d, hidden)
				if err != nil {
					t.Fatal(err)
				}
				got, err := h.Schedule(d, table)
				if err != nil {
					t.Fatal(err)
				}
				if gh, wh := scheduleHash(got), scheduleHash(want); gh != wh {
					t.Errorf("%s rc=%s n=%d: dense table %016x != interface path %016x",
						h.Name(), rr.name, d.Size(), gh, wh)
				}
				ta, err := TurnAround(h, d, table, 1)
				if err != nil {
					t.Fatal(err)
				}
				if ta != want.TurnAround(1) {
					t.Errorf("%s rc=%s: TurnAround = %v, Schedule().TurnAround = %v",
						h.Name(), rr.name, ta, want.TurnAround(1))
				}
				pta, err := plans[h.Name()].TurnAround(table, 1)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(pta) != math.Float64bits(want.TurnAround(1)) {
					t.Errorf("%s rc=%s n=%d: reused Plan.TurnAround = %v, Schedule().TurnAround = %v",
						h.Name(), rr.name, d.Size(), pta, want.TurnAround(1))
				}
			}
		}
	}

	// Two hand-built platforms. One has more than platform.MaxLinkSpeeds
	// distinct speeds and declines the table: the scan takes at() on every
	// host. The other leaves one cluster out of its topology (speed 0 to
	// every other cluster), where only the all-zero row of a free edge
	// keeps 0/0 out of the data-ready times; the DAGs there have every
	// third edge and every edge free.
	island := &platform.Platform{Hosts: p.Hosts, Clusters: p.Clusters, Topo: &platform.Topology{N: p.Topo.N}}
	for _, l := range p.Topo.Links {
		if l.A != 0 && l.B != 0 {
			island.Topo.Links = append(island.Topo.Links, l)
		}
	}
	star := starPlatform(platform.MaxLinkSpeeds + 1)
	starHosts := func(k int) []platform.Host {
		hosts := make([]platform.Host, k)
		for i, id := range xrand.New(uint64(k)).Sample(star.NumHosts(), k) {
			hosts[i] = star.Hosts[id]
		}
		return hosts
	}
	for _, c := range []struct {
		name  string
		p     *platform.Platform
		hosts []platform.Host
		dense bool
	}{
		{"declined-k5", star, starHosts(5), false},
		{"declined-k22", star, starHosts(22), false},
		{"island", island, append(sample(11, 99), p.Hosts[p.Clusters[0].FirstHost]), true},
	} {
		table := platform.SubsetRC(c.p, c.hosts)
		hidden := &platform.ResourceCollection{
			Hosts: table.Hosts,
			Net:   transferOnlyNet{table.Net},
		}
		for _, d := range []*dag.DAG{golden[1].d, zeroCostEdges(golden[1].d, 3), zeroCostEdges(golden[1].d, 1)} {
			s, err := newState(Compile(MCP{}, d), table)
			if err != nil {
				t.Fatal(err)
			}
			if got := s.pairTable(); got != c.dense {
				t.Errorf("%s: pairTable() = %v, want %v", c.name, got, c.dense)
			}
			s.release()
			for _, h := range append(All(), Baselines()...) {
				want, err := h.Schedule(d, hidden)
				if err != nil {
					t.Fatal(err)
				}
				got, err := h.Schedule(d, table)
				if err != nil {
					t.Fatal(err)
				}
				if gh, wh := scheduleHash(got), scheduleHash(want); gh != wh {
					t.Errorf("%s %s e=%d: %016x != interface path %016x", h.Name(), c.name, d.NumEdges(), gh, wh)
				}
				pta, err := Compile(h, d).TurnAround(table, 1)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(pta) != math.Float64bits(want.TurnAround(1)) {
					t.Errorf("%s %s: Plan.TurnAround = %v, want %v", h.Name(), c.name, pta, want.TurnAround(1))
				}
			}
		}
	}

	// At and above the real gate a cluster network takes the grouped path,
	// whose group bandwidth table must give the per-host schedule. A
	// collection listing a host twice is scanned instead.
	indexMinHosts = old
	oldPer := minHostsPerBucket
	defer func() { minHostsPerBucket = oldPer }()
	minHostsPerBucket = 0
	twice := sample(160, 102)
	twice[150] = twice[3]
	for _, rr := range []struct {
		name    string
		hosts   []platform.Host
		grouped bool
	}{
		{"k150", sample(150, 100), true},
		{"repeated-k160", twice, false},
	} {
		table := platform.SubsetRC(p, rr.hosts)
		hidden := &platform.ResourceCollection{Hosts: table.Hosts, Net: transferOnlyNet{table.Net}}
		for _, d := range []*dag.DAG{overflowingEdge(golden[1].d), zeroCostEdges(golden[1].d, 3)} {
			s, err := newState(Compile(MCP{}, d), table)
			if err != nil {
				t.Fatal(err)
			}
			if got := s.groupsOK(); got != rr.grouped {
				t.Fatalf("%s: groupsOK() = %v, want %v", rr.name, got, rr.grouped)
			}
			s.release()
			for _, h := range append(All(), Baselines()...) {
				want, err := h.Schedule(d, hidden)
				if err != nil {
					t.Fatal(err)
				}
				got, err := h.Schedule(d, table)
				if err != nil {
					t.Fatal(err)
				}
				if gh, wh := scheduleHash(got), scheduleHash(want); gh != wh {
					t.Errorf("%s rc=%s n=%d: grouped path %016x != interface path %016x", h.Name(), rr.name, d.Size(), gh, wh)
				}
				pta, err := Compile(h, d).TurnAround(table, 1)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(pta) != math.Float64bits(want.TurnAround(1)) {
					t.Errorf("%s rc=%s: Plan.TurnAround = %v, want %v", h.Name(), rr.name, pta, want.TurnAround(1))
				}
			}
		}
	}

	// A DAG with fewer edges than the RC has hosts never fills the table.
	chain := dag.MustGenerate(dag.GenSpec{
		Size: 6, CCR: 0.5, Parallelism: 0.5, Density: 0.5, Regularity: 0.5, MeanCost: 10,
	}, xrand.New(97))
	wide := platform.SubsetRC(p, sample(chain.NumEdges()+1, 98))
	s, err := newState(Compile(MCP{}, chain), wide)
	if err != nil {
		t.Fatal(err)
	}
	if s.pairTable() {
		t.Errorf("table filled for %d edges on %d hosts", chain.NumEdges(), wide.Size())
	}
	s.release()
}
