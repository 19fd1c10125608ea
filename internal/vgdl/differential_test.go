package vgdl

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"rsgen/internal/platform"
	"rsgen/internal/xrand"
)

// The differential cases are decoded from bytes, so the table test (random
// bytes from a seeded generator) and FuzzFindDifferential (bytes from the
// engine) share one decoder. A short input reads as zeros.
type caseBytes struct {
	data []byte
	pos  int
}

func (c *caseBytes) byte() int {
	if c.pos >= len(c.data) {
		return 0
	}
	c.pos++
	return int(c.data[c.pos-1])
}

func (c *caseBytes) pick(options ...string) string { return options[c.byte()%len(options)] }

// diffPlatforms are the two inventories the cases run on: the 200-cluster
// 2007 platform rsgend serves (one run per cluster) and a hand-built one
// whose clusters mix clock rates and memory sizes inside (several runs per
// cluster) and whose cluster spans are not in cluster-ID order.
var diffPlatforms = sync.OnceValue(func() []*platform.Platform {
	return []*platform.Platform{
		platform.MustGenerate(platform.GenSpec{Clusters: 200, Year: 2007}, xrand.New(1)),
		mixedPlatform(),
	}
})

func mixedPlatform() *platform.Platform {
	rng := xrand.New(7)
	const clusters = 12
	topo, err := platform.GenerateTopology(platform.TopoSpec{Nodes: clusters, Model: platform.BarabasiAlbert, Degree: 2}, rng.Split())
	if err != nil {
		panic(err)
	}
	p := &platform.Platform{Topo: topo, Clusters: make([]platform.Cluster, clusters)}
	clocks := []float64{2.0, 2.4, 2.8, 3.0, 3.2}
	for _, c := range rng.Perm(clusters) { // spans laid out in a shuffled cluster order
		size := 3 + rng.Intn(70)
		p.Clusters[c] = platform.Cluster{
			ID: c, Name: fmt.Sprintf("mixed%02d", c), NumHosts: size, FirstHost: platform.HostID(len(p.Hosts)),
			ClockGHz: clocks[rng.Intn(len(clocks))], MemoryMB: 1024,
			IntraMbps: 1000, UplinkMbps: platform.LinkClassesMbps[rng.Intn(len(platform.LinkClassesMbps))],
		}
		clock, mem := clocks[rng.Intn(len(clocks))], 512<<rng.Intn(4)
		for i := 0; i < size; i++ {
			if rng.Intn(5) == 0 { // start a new stretch
				clock, mem = clocks[rng.Intn(len(clocks))], 512<<rng.Intn(4)
			}
			p.Hosts = append(p.Hosts, platform.Host{ID: platform.HostID(len(p.Hosts)), Cluster: c, ClockGHz: clock, MemoryMB: mem})
		}
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

// decodeCase turns bytes into a finder configuration and a specification:
// platform, tight threshold, mask density and shape, excluded clusters, one
// to three aggregates with kind, rank, range and up to two constraints.
func decodeCase(data []byte) (*Finder, *Spec) {
	c := &caseBytes{data: data}
	ps := diffPlatforms()
	p := ps[c.byte()%len(ps)]
	f := NewFinder(p)
	f.TightBandwidthMbps = []float64{155, 622, 1000, 2488}[c.byte()%4]

	// Mask: 0–95 % of the hosts, either scattered (with an explicit false
	// entry for every free host) or in whole-cluster blocks the way leases
	// hold them, plus IDs outside the platform the finder must ignore.
	density := float64(c.byte()) / 255 * 0.95
	blocks := c.byte()%2 == 1
	rng := xrand.New(uint64(c.byte()))
	f.ExcludedHosts = map[platform.HostID]bool{-1: true, platform.HostID(len(p.Hosts)): true}
	if blocks {
		for _, cl := range p.Clusters {
			if rng.Float64() < density {
				for i := 0; i < cl.NumHosts; i++ {
					f.ExcludedHosts[cl.FirstHost+platform.HostID(i)] = true
				}
			}
		}
	} else {
		for i := range p.Hosts {
			f.ExcludedHosts[platform.HostID(i)] = rng.Float64() < density
		}
	}
	for n := c.byte() % 4; n > 0; n-- {
		f.Exclude(c.byte() % len(p.Clusters))
	}

	spec := &Spec{Name: "VG"}
	for n := []int{1, 1, 2, 3}[c.byte()%4]; n > 0; n-- {
		agg := Aggregate{
			Kind:    []AggregateKind{LooseBag, TightBag, ClusterAgg}[c.byte()%3],
			NodeVar: "nodes",
			Rank:    c.pick("", "Clock", "Nodes", "Memory"),
		}
		scale := []int{1, 1, 2, 16}[c.byte()%4]
		agg.Min = 1 + c.byte()*scale/16
		agg.Max = agg.Min + c.byte()*scale/4
		for k := []int{0, 1, 1, 2}[c.byte()%4]; k > 0; k-- {
			con := Constraint{
				Attr:  c.pick("Clock", "Memory"),
				Op:    c.pick(">=", ">=", ">=", ">=", "==", "!=", "<=", ">", "<"),
				Value: c.pick("2000", "2400", "2800", "3000", "512", "1024", "2048", "2.4e3", "0x1p10", "0"),
			}
			switch c.byte() % 16 { // the rarer forms, most of them unsatisfiable
			case 0:
				con.Value = c.pick("99000", "NaN", "Inf", "Opteron")
			case 1:
				con.Attr = c.pick("Processor", "Arch", "OpSys", "Disk")
			case 2:
				con = Constraint{Attr: "Processor", Op: "==", Value: "Opteron"}
			}
			agg.Constraints = append(agg.Constraints, con)
		}
		spec.Aggregates = append(spec.Aggregates, agg)
	}
	return f, spec
}

// checkAgainstOracle runs the finder and the retained per-host oracle on
// one case and requires the same hosts in the same order, or the same error
// text.
func checkAgainstOracle(t *testing.T, f *Finder, spec *Spec) (found bool) {
	t.Helper()
	want, wantErr := oracle{f}.Find(spec)
	got, gotErr := f.Find(spec)
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("error differs for\n%s\noracle: %v\nfinder: %v", spec, wantErr, gotErr)
	}
	if wantErr != nil {
		return false
	}
	if !slices.Equal(got.Hosts, want.Hosts) {
		t.Fatalf("hosts differ for\n%s\noracle: %v\nfinder: %v", spec, want.Hosts, got.Hosts)
	}
	return true
}

// TestFindDifferential compares Find with the per-host oracle over generated
// cases on both platforms, and requires that the generator reaches both
// outcomes often enough to mean something.
func TestFindDifferential(t *testing.T) {
	rng := xrand.New(20240707)
	const cases = 3000
	found := 0
	for i := 0; i < cases; i++ {
		data := make([]byte, 40)
		for j := range data {
			data[j] = byte(rng.Intn(256))
		}
		f, spec := decodeCase(data)
		if checkAgainstOracle(t, f, spec) {
			found++
		}
	}
	if found < cases/5 || cases-found < cases/5 {
		t.Fatalf("%d of %d cases found a collection: the generator no longer exercises both outcomes", found, cases)
	}
}

// TestFindDifferentialSpecs pins the shapes the generator reaches only by
// luck: the spec rsgend's 40-task DAGs produce under a lease-shaped mask,
// three aggregates competing for one cluster's hosts, and requests no
// platform can meet.
func TestFindDifferentialSpecs(t *testing.T) {
	specs := []string{
		`VG = TightBagOf(nodes) [12:12] [rank = Clock] { nodes = [ (Clock>=2000) ] }`,
		`VG = ClusterOf(a) [2:8] { a = [ true ] } ClusterOf(b) [2:8] { b = [ true ] } LooseBagOf(c) [4:4000] { c = [ Memory>=1024 ] }`,
		`VG = TightBagOf(n) [10:20] { n = [ Clock>=99000 ] }`,
		`VG = ClusterOf(n) [100000:200000] { n = [ true ] }`,
		`VG = LooseBagOf(n) [1:3] { n = [ (Processor!=Opteron) ] }`,
		`VG = LooseBagOf(n) [1:3] { n = [ (Clock>=fast) ] }`,
		figII1,
		figIV4,
	}
	for _, p := range diffPlatforms() {
		for _, src := range specs {
			spec, err := Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			f := NewFinder(p)
			checkAgainstOracle(t, f, spec)
			for id := 0; id < len(p.Hosts); id += 3 { // every third host, then 768 in a block
				f.ExcludeHosts(platform.HostID(id))
			}
			checkAgainstOracle(t, f, spec)
			f.ExcludedHosts = nil
			for id := 0; id < min(768, len(p.Hosts)); id++ {
				f.ExcludeHosts(platform.HostID(id))
			}
			f.Exclude(1, 5)
			checkAgainstOracle(t, f, spec)
		}
	}
}

// FuzzFindDifferential lets the engine drive the same decoder: mask density
// and shape, aggregate kinds and ranges, constraint attributes, operators
// and numbers.
func FuzzFindDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 40, 1, 9, 0, 0, 1, 1, 0, 88, 0, 1, 0, 0, 0})
	f.Add([]byte{1, 2, 200, 0, 3, 2, 4, 7, 2, 2, 0, 1, 30, 60, 2, 2, 0, 7, 4, 3, 5})
	f.Add([]byte{0, 1, 120, 1, 5, 1, 17, 2, 0, 2, 2, 9, 9, 1, 0, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		finder, spec := decodeCase(data)
		checkAgainstOracle(t, finder, spec)
	})
}

// BenchmarkFind is the selection rsgend's lease_cycle traffic pays: the
// [12:12] TightBag rank=Clock spec a 40-task DAG produces, on the 200-cluster
// platform with 768 hosts (64 leases of 12) masked, Parse and the mask
// conversion included.
func BenchmarkFind(b *testing.B) {
	p := diffPlatforms()[0]
	mask := make(map[platform.HostID]bool, 768)
	for id := 0; id < 768; id++ {
		mask[platform.HostID(id*7%len(p.Hosts))] = true
	}
	const src = "VG =\n  TightBagOf(nodes) [12:12]\n  [rank = Clock]\n  {\n    nodes = [ (Clock>=2800) && (Memory>=1024) ]\n  }\n"
	p.Runs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec, err := Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		f := NewFinder(p)
		f.ExcludedHosts = mask
		rc, err := f.Find(spec)
		if err != nil || rc.Size() != 12 {
			b.Fatalf("find: %v", err)
		}
	}
}
