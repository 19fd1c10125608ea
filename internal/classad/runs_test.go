package classad

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"rsgen/internal/platform"
	"rsgen/internal/xrand"
)

// The differential cases are decoded from bytes, so the table test (random
// bytes from a seeded generator) and FuzzMatchDifferential (bytes from the
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

// diffPlatform returns the platform a case runs on: a generated one of 1–32
// clusters of one year's clock mix (one run per cluster, many runs sharing
// a clock and a memory size, so ranks tie across runs), or a hand-built one
// whose clusters mix clock rates and memory sizes inside (several runs per
// cluster) and whose cluster spans are not in cluster-ID order.
func diffPlatform(kind, clusters, seed int) *platform.Platform {
	key := [3]int{kind % 2, 1 + clusters%32, seed % 8}
	if p, ok := platformCache.Load(key); ok {
		return p.(*platform.Platform)
	}
	var p *platform.Platform
	if key[0] == 0 {
		p = platform.MustGenerate(platform.GenSpec{Clusters: key[1], Year: 2003 + key[2]}, xrand.New(uint64(key[2])))
	} else {
		p = mixedPlatform(key[1], uint64(key[2]))
	}
	platformCache.Store(key, p)
	return p
}

// platformCache holds the drawn platforms, adsCache the reference's
// machine ads for each: building them dominates a case otherwise.
var platformCache, adsCache sync.Map

func mixedPlatform(clusters int, seed uint64) *platform.Platform {
	rng := xrand.New(seed)
	topo, err := platform.GenerateTopology(platform.TopoSpec{Nodes: clusters, Model: platform.BarabasiAlbert, Degree: 2}, rng.Split())
	if err != nil {
		panic(err)
	}
	p := &platform.Platform{Topo: topo, Clusters: make([]platform.Cluster, clusters)}
	clocks := []float64{2.0, 2.4, 2.8, 3.0, 3.2}
	for _, c := range rng.Perm(clusters) { // spans laid out in a shuffled cluster order
		size := 1 + rng.Intn(40)
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

// matchCase is one differential case: a platform, a job ad, a limit and an
// exclusion mask.
type matchCase struct {
	p        *platform.Platform
	src      string
	limit    int
	excluded map[int]bool
}

// decodeMatchCase turns bytes into a case. Job ads draw Requirements from
// clock and memory thresholds joined by && or ||, and Rank on Clock, on
// Memory, negated, constant (every match ties) or absent; about one in six
// reads the candidate's Name, directly or through one of its own
// attributes, which sends MatchHosts down the per-host path.
func decodeMatchCase(data []byte) matchCase {
	c := &caseBytes{data: data}
	p := diffPlatform(c.byte(), c.byte(), c.byte())

	var req []string
	for n := []int{0, 1, 1, 2, 3}[c.byte()%5]; n > 0; n-- {
		req = append(req, c.pick(
			`other.Clock >= `+c.pick("0", "2000", "2400", "2800", "3000", "3200", "99000"),
			`TARGET.Memory >= `+c.pick("0", "512", "1024", "2048", "4096"),
			`other.Clock < `+c.pick("2400", "3000"),
			`other.Type == "Machine"`,
			`other.OpSys == "LINUX"`,
			`Fast`,
			`other.Missing > 1`,
		))
	}
	join := c.pick(" && ", " && ", " || ")
	rank := c.pick("", "other.Clock", "other.Memory", "-other.Clock", "1", "other.KFlops / 1000 + TARGET.Memory", "Score")
	switch c.byte() % 6 { // reads Name
	case 0:
		req = append(req, c.pick(`other.Name != "host00003.cluster0000"`, `TARGET.Name == "host00001.cluster0001"`, `Picky`))
	case 1:
		rank = c.pick(`other.Name == "host00002.cluster0000"`, `Named`)
	}
	var b strings.Builder
	b.WriteString("[ Type = \"Job\"; MachineCount = 4;\n")
	b.WriteString("  Fast = other.Clock >= 2800;\n  Score = my.Fast + other.Memory / 1024;\n")
	b.WriteString("  Picky = other.name != \"host00005.cluster0002\";\n  Named = (OTHER.NAME == \"host00000.cluster0000\") + 1;\n")
	if len(req) > 0 {
		fmt.Fprintf(&b, "  Requirements = %s;\n", strings.Join(req, join))
	}
	if rank != "" {
		fmt.Fprintf(&b, "  Rank = %s;\n", rank)
	}
	b.WriteString("]")

	n := len(p.Hosts)
	limit := []int{0, 1, 1 + c.byte()%12, n / 2, n + 5, -1}[c.byte()%6]

	// Mask: 0–95 % of the hosts, scattered or in whole-cluster blocks the
	// way leases hold them, or none.
	var excluded map[int]bool
	density := float64(c.byte()) / 255 * 0.95
	rng := xrand.New(uint64(c.byte()))
	switch c.byte() % 3 {
	case 1:
		excluded = map[int]bool{}
		for i := 0; i < n; i++ {
			excluded[i] = rng.Float64() < density
		}
	case 2:
		excluded = map[int]bool{}
		for _, cl := range p.Clusters {
			if rng.Float64() < density {
				for i := 0; i < cl.NumHosts; i++ {
					excluded[int(cl.FirstHost)+i] = true
				}
			}
		}
	}
	return matchCase{p: p, src: b.String(), limit: limit, excluded: excluded}
}

// checkMatch runs MatchHosts and the per-host reference on one case and
// requires the same host IDs in the same order. It reports whether the
// case took the run-level path and how many hosts matched.
func checkMatch(t *testing.T, mc matchCase) (perRun bool, matched int) {
	t.Helper()
	ad, err := Parse(mc.src)
	if err != nil {
		t.Fatalf("case ad does not parse: %v\n%s", err, mc.src)
	}
	var excluded func(int) bool
	if mc.excluded != nil {
		excluded = func(i int) bool { return mc.excluded[i] }
	}
	ads, ok := adsCache.Load(mc.p)
	if !ok {
		ads, _ = adsCache.LoadOrStore(mc.p, MachineAds(mc.p))
	}
	want := MatchBestIndices(ad, ads.([]*Ad), mc.limit, excluded)
	got := MatchHosts(ad, mc.p, mc.limit, excluded)
	if !slices.Equal(got, want) {
		t.Fatalf("hosts differ (limit %d, %d hosts, %d runs) for\n%s\nreference: %v\nrun-level: %v",
			mc.limit, len(mc.p.Hosts), mc.p.Runs().Len(), mc.src, want, got)
	}
	return !readsPerHost(ad), len(got)
}

// TestMatchHostsDifferential compares MatchHosts with the per-host
// reference over generated cases, and requires that the generator reaches
// both paths, and both empty and non-empty results, often enough to mean
// something.
func TestMatchHostsDifferential(t *testing.T) {
	rng := xrand.New(20261020)
	const cases = 300
	perRun, found := 0, 0
	for i := 0; i < cases; i++ {
		data := make([]byte, 24)
		for j := range data {
			data[j] = byte(rng.Intn(256))
		}
		r, n := checkMatch(t, decodeMatchCase(data))
		if r {
			perRun++
		}
		if n > 0 {
			found++
		}
	}
	if perRun < cases/2 || cases-perRun < cases/10 {
		t.Fatalf("%d of %d cases took the run-level path: the generator no longer exercises both", perRun, cases)
	}
	if found < cases/4 || cases-found < cases/20 {
		t.Fatalf("%d of %d cases matched hosts: the generator no longer exercises both outcomes", found, cases)
	}
}

// FuzzMatchDifferential lets the engine drive the same decoder: platform,
// Requirements, Rank, limit and mask.
func FuzzMatchDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 40, 4, 2, 0, 3, 0, 1, 1, 2, 3, 2, 90, 7, 1})
	f.Add([]byte{1, 12, 2, 3, 0, 1, 3, 2, 0, 1, 4, 4, 2, 200, 3, 2})
	f.Add([]byte{0, 7, 1, 1, 5, 0, 6, 0, 0, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkMatch(t, decodeMatchCase(data))
	})
}

// TestMatchHostsGeneratedSpec pins the ad the specification generator
// renders (Requirements on type, OS, clock and memory; Rank = other.Clock)
// on the 200-cluster 2007 platform rsgend serves, with and without a
// lease-shaped mask, against the reference.
func TestMatchHostsGeneratedSpec(t *testing.T) {
	p := platform.MustGenerate(platform.GenSpec{Clusters: 200, Year: 2007}, xrand.New(1))
	const src = `[ Type = "Job"; Universe = "parallel"; MachineCount = 12;
  Requirements = other.Type == "Machine" && other.OpSys == "LINUX" && other.Clock >= 2800 && other.Memory >= 1024;
  Rank = other.Clock; ]`
	leased := map[int]bool{}
	for id := 0; id < 768; id++ {
		leased[id*7%len(p.Hosts)] = true
	}
	for _, limit := range []int{12, 0} {
		for _, excluded := range []map[int]bool{nil, leased} {
			if perRun, n := checkMatch(t, matchCase{p: p, src: src, limit: limit, excluded: excluded}); !perRun || n == 0 {
				t.Fatalf("limit %d: perRun=%v, %d matched; want the run-level path to match hosts", limit, perRun, n)
			}
		}
	}
}

// TestMatchHostsNaNRank: a Rank that comes out NaN has no order for the
// run-level sort to follow, so MatchHosts answers with the reference.
func TestMatchHostsNaNRank(t *testing.T) {
	p := diffPlatform(1, 20, 3)
	for _, rank := range []string{
		"other.Clock * 1e308 * 10 - other.Memory * 1e308 * 10",                                   // NaN for every run
		"(other.Clock >= 2800) * 1e308 * 10 - (other.Clock >= 2800) * 1e308 * 10 + other.Memory", // NaN for the fast runs
	} {
		src := "[ Requirements = other.Memory >= 1024; Rank = " + rank + "; ]"
		for _, limit := range []int{7, 0} {
			checkMatch(t, matchCase{p: p, src: src, limit: limit})
		}
	}
}

// TestMachineAdConstantWithinRun pins the premise MatchHosts rests on: two
// hosts of one run advertise the same attributes in the same order, equal
// except for Name, and no attribute refers to another ad.
func TestMachineAdConstantWithinRun(t *testing.T) {
	p := diffPlatform(1, 30, 5)
	ads := MachineAds(p)
	runs := p.Runs()
	for c := range p.Clusters {
		cluster, _ := runs.Cluster(c)
		for _, r := range cluster {
			first := ads[r.First]
			for h := int(r.First) + 1; h < int(r.First)+r.N; h++ {
				if !slices.Equal(ads[h].Names(), first.Names()) {
					t.Fatalf("host %d: attribute names %v, run's first host %v", h, ads[h].Names(), first.Names())
				}
				for _, name := range first.Names() {
					a, _ := first.Get(name)
					b, _ := ads[h].Get(name)
					if name != "Name" && a.String() != b.String() {
						t.Fatalf("host %d: %s = %s, run's first host has %s", h, name, b, a)
					}
				}
			}
		}
	}
	if readsPerHost(MachineAd(p.Hosts[0], "x")) {
		t.Fatal("a machine ad reads another ad's Name")
	}
}
