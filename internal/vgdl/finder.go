package vgdl

import (
	"fmt"
	"math/bits"
	"slices"

	"rsgen/internal/platform"
)

// Finder is the vgFAB analogue (§II.4.1): it resolves vgDL specifications
// against a synthetic platform, performing integrated selection over the
// platform's resource "database".
type Finder struct {
	// TightBandwidthMbps is the qualitative "good connectivity" threshold
	// for TightBags; 0 defaults to 155 Mb/s (an OC3 floor: everything on
	// the wide area at or above an OC3 counts as close).
	TightBandwidthMbps float64
	// Excluded clusters are skipped during selection: the rebind loop of
	// Chapter VII marks clusters whose managers refused or stalled so the
	// next attempt routes around them.
	Excluded map[int]bool
	// ExcludedHosts are individual hosts skipped during selection: the
	// broker masks already-leased hosts so concurrent sessions never
	// compete for the same nodes.
	ExcludedHosts map[platform.HostID]bool
	p             *platform.Platform
}

// NewFinder builds a finder over the platform.
func NewFinder(p *platform.Platform) *Finder {
	return &Finder{p: p, TightBandwidthMbps: 155}
}

// Exclude marks clusters to be skipped by subsequent Find calls.
func (f *Finder) Exclude(clusters ...int) {
	if f.Excluded == nil {
		f.Excluded = make(map[int]bool, len(clusters))
	}
	for _, c := range clusters {
		f.Excluded[c] = true
	}
}

// ExcludeHosts marks individual hosts to be skipped by subsequent Find
// calls (leased-host masking).
func (f *Finder) ExcludeHosts(hosts ...platform.HostID) {
	if f.ExcludedHosts == nil {
		f.ExcludedHosts = make(map[platform.HostID]bool, len(hosts))
	}
	for _, h := range hosts {
		f.ExcludedHosts[h] = true
	}
}

// Find resolves the specification into one resource collection holding the
// union of all aggregates. Juxtaposed aggregates are "close to" each other
// in vgDL's qualitative proximity model (§II.4.1.1): every aggregate after
// the first is selected only from clusters whose bottleneck bandwidth to
// each of the first aggregate's clusters meets the tight threshold. It
// returns an error when any aggregate cannot reach its minimum node count.
//
// Selection works on the platform's run table, not on hosts: constraints are
// evaluated once per run, free hosts are counted by popcount over one busy
// bitset (the excluded hosts plus every earlier aggregate's picks), clusters
// are ranked on those counts, and Host values are copied only out of the
// clusters actually picked, in host-ID order.
func (f *Finder) Find(spec *Spec) (*platform.ResourceCollection, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s := f.newSearch()
	var hosts []platform.Host
	var anchor []pick // the first aggregate's clusters
	for i, agg := range spec.Aggregates {
		if i == 1 {
			s.near = f.clustersNear(anchor)
		}
		picks, err := s.pick(agg)
		if err != nil {
			return nil, fmt.Errorf("vgdl: aggregate %d (%s): %w", i, agg.Kind, err)
		}
		if i == 0 {
			anchor = picks
		}
		hosts = s.take(hosts, picks)
	}
	return platform.SubsetRC(f.p, hosts), nil
}

// clustersNear marks the clusters whose bandwidth to every anchor cluster
// meets the tight threshold (including the anchors themselves).
func (f *Finder) clustersNear(anchor []pick) []bool {
	near := make([]bool, len(f.p.Clusters))
	for _, c := range f.p.Clusters {
		near[c.ID] = !slices.ContainsFunc(anchor, func(a pick) bool {
			return a.cluster != c.ID && !f.tight(a.cluster, c.ID)
		})
	}
	return near
}

// tight reports whether two clusters are connected at or above the tight
// threshold.
func (f *Finder) tight(a, b int) bool {
	return f.p.Bandwidth(f.p.Clusters[a].FirstHost, f.p.Clusters[b].FirstHost) >= f.TightBandwidthMbps
}

// search is the state of one Find call.
type search struct {
	f    *Finder
	runs *platform.RunTable
	// busy has one bit per host: set for excluded hosts and for every host
	// an earlier aggregate of this Find picked.
	busy []uint64
	// match[r] records whether run r satisfies the current aggregate's
	// constraints; written for every cluster that can be picked.
	match []bool
	// near, once the first aggregate is placed, restricts later aggregates
	// to the clusters close to it.
	near []bool
}

func (f *Finder) newSearch() *search {
	runs := f.p.Runs()
	s := &search{
		f:     f,
		runs:  runs,
		busy:  make([]uint64, (len(f.p.Hosts)+63)/64),
		match: make([]bool, runs.Len()),
	}
	for id, excluded := range f.ExcludedHosts {
		if excluded && id >= 0 && int(id) < len(f.p.Hosts) {
			s.busy[id/64] |= 1 << (id % 64)
		}
	}
	return s
}

// pick is a cluster chosen for an aggregate and how many of its free
// matching hosts the aggregate takes.
type pick struct {
	cluster, n int
}

// candidate is a cluster with its free matching host count.
type candidate struct {
	cluster, free int
	clockGHz      float64
}

// pick chooses the clusters for one aggregate. Candidates are ranked faster
// first when rank=Clock and bigger first otherwise ("Nodes" and unranked),
// ties by cluster ID.
func (s *search) pick(agg Aggregate) ([]pick, error) {
	if agg.Kind != ClusterAgg && agg.Kind != TightBag && agg.Kind != LooseBag {
		return nil, fmt.Errorf("unknown aggregate kind")
	}
	cands := s.candidates(agg)
	rank := func(a, b candidate) int {
		if agg.Rank == "Clock" {
			if a.clockGHz != b.clockGHz {
				if a.clockGHz > b.clockGHz {
					return -1
				}
				return 1
			}
		} else if a.free != b.free {
			return b.free - a.free
		}
		return a.cluster - b.cluster
	}

	// A ClusterOf is the single best cluster that can hold the minimum.
	if agg.Kind == ClusterAgg {
		cands = slices.DeleteFunc(cands, func(c candidate) bool { return c.free < agg.Min })
		if len(cands) == 0 {
			return nil, fmt.Errorf("no cluster satisfies [%d:%d] with %v", agg.Min, agg.Max, agg.Constraints)
		}
		best := slices.MinFunc(cands, rank)
		return []pick{{best.cluster, min(best.free, agg.Max)}}, nil
	}

	// A bag fills up to Max in rank order; a TightBag additionally requires
	// pairwise inter-cluster bandwidth at or above the tight threshold,
	// grown greedily from the best cluster (the §IV.2.4.2 TightBag
	// semantics).
	slices.SortFunc(cands, rank)
	var picks []pick
	total := 0
	for _, c := range cands {
		if total >= agg.Max {
			break
		}
		if agg.Kind == TightBag && slices.ContainsFunc(picks, func(p pick) bool { return !s.f.tight(p.cluster, c.cluster) }) {
			continue
		}
		n := min(c.free, agg.Max-total)
		picks = append(picks, pick{c.cluster, n})
		total += n
	}
	if total < agg.Min {
		return nil, fmt.Errorf("only %d hosts satisfy [%d:%d] with %v", total, agg.Min, agg.Max, agg.Constraints)
	}
	return picks, nil
}

// candidates evaluates the aggregate's constraints once per run of every
// eligible cluster (leaving the verdicts in s.match for take) and returns
// the clusters that have at least one free matching host.
func (s *search) candidates(agg Aggregate) []candidate {
	tests, satisfiable := compile(agg.Constraints)
	if !satisfiable {
		return nil
	}
	cands := make([]candidate, 0, len(s.f.p.Clusters))
	for _, c := range s.f.p.Clusters {
		if s.f.Excluded[c.ID] || (s.near != nil && !s.near[c.ID]) {
			continue
		}
		runs, base := s.runs.Cluster(c.ID)
		free := 0
		for i, r := range runs {
			s.match[base+i] = runMatches(r, tests)
			if s.match[base+i] {
				free += r.N - onesInRange(s.busy, int(r.First), int(r.First)+r.N)
			}
		}
		if free > 0 {
			cands = append(cands, candidate{cluster: c.ID, free: free, clockGHz: c.ClockGHz})
		}
	}
	return cands
}

// take appends the picked hosts to hosts — per pick the first n free hosts
// of the cluster's matching runs, in host-ID order — and marks them busy.
func (s *search) take(hosts []platform.Host, picks []pick) []platform.Host {
	for _, pk := range picks {
		runs, base := s.runs.Cluster(pk.cluster)
		n := pk.n
		for i, r := range runs {
			if !s.match[base+i] {
				continue
			}
			for id := int(r.First); id < int(r.First)+r.N && n > 0; id++ {
				if s.busy[id/64]&(1<<(id%64)) == 0 {
					s.busy[id/64] |= 1 << (id % 64)
					hosts = append(hosts, s.f.p.Hosts[id])
					n--
				}
			}
		}
	}
	return hosts
}

// onesInRange counts the set bits of positions [lo, hi).
func onesInRange(set []uint64, lo, hi int) int {
	n := 0
	for w := lo / 64; w*64 < hi; w++ {
		word := set[w]
		if from := lo - w*64; from > 0 {
			word &= ^uint64(0) << from
		}
		if to := hi - w*64; to < 64 {
			word &= 1<<to - 1
		}
		n += bits.OnesCount64(word)
	}
	return n
}

// test is one compiled numeric constraint: the attribute it reads, the
// comparison, and the parsed right-hand side.
type test struct {
	memory bool // Memory (MB); otherwise Clock (MHz)
	op     string
	num    float64
}

// compile parses the constraints once per aggregate. satisfiable is false
// when some constraint can hold for no host: an unknown attribute, a
// non-numeric bound on a numeric attribute, or an inequality on Processor,
// Arch or OpSys. The synthetic platform is single-architecture Linux/x86
// (§IV.2.4 ignores architecture), so equality on those three always holds
// and compiles to nothing.
func compile(cs []Constraint) (tests []test, satisfiable bool) {
	for _, c := range cs {
		switch c.Attr {
		case "Clock", "Memory":
			num, ok := c.Num()
			if !ok {
				return nil, false
			}
			tests = append(tests, test{memory: c.Attr == "Memory", op: c.Op, num: num})
		case "Processor", "Arch", "OpSys":
			if c.Op != "==" {
				return nil, false
			}
		default:
			return nil, false
		}
	}
	return tests, true
}

// runMatches evaluates the compiled constraints against a run's hosts.
func runMatches(r platform.Run, tests []test) bool {
	for _, t := range tests {
		attr := r.ClockGHz * 1000 // MHz in vgDL
		if t.memory {
			attr = float64(r.MemoryMB)
		}
		var hold bool
		switch t.op {
		case "==":
			hold = attr == t.num
		case "!=":
			hold = attr != t.num
		case ">=":
			hold = attr >= t.num
		case "<=":
			hold = attr <= t.num
		case ">":
			hold = attr > t.num
		case "<":
			hold = attr < t.num
		}
		if !hold {
			return false
		}
	}
	return true
}
