package classad

import (
	"cmp"
	"math"
	"slices"
	"strings"

	"rsgen/internal/platform"
)

// MatchHosts matches a job ad against the workstation ads of every host of
// p and returns what MatchBestIndices(request, MachineAds(p), limit,
// excluded) returns — the IDs of the matching hosts in descending rank
// order, ties in ascending host order, at most limit of them (all when
// limit ≤ 0), none that excluded reports — without advertising each host.
//
// A platform run's hosts share cluster, clock and memory, so their ads
// differ only in Name (see MachineAd). Unless the request can read Name,
// Requirements and Rank are evaluated once per run, against the ad of the
// run's first host, and the matching runs are expanded to host IDs. A
// request that may read Name (readsPerHost), or whose Rank comes out NaN —
// an order the reference sort defines only by its own comparisons — is
// matched host by host against ads built for this call alone.
func MatchHosts(request *Ad, p *platform.Platform, limit int, excluded func(int) bool) []int {
	if readsPerHost(request) {
		return MatchBestIndices(request, MachineAds(p), limit, excluded)
	}
	type rankedRun struct {
		rank float64
		run  platform.Run
	}
	var matched []rankedRun
	var ad *Ad
	runs := p.Runs()
	for c := range p.Clusters {
		cluster, _ := runs.Cluster(c)
		for _, r := range cluster {
			h := p.Hosts[r.First]
			if ad == nil {
				ad = MachineAd(h, hostName(int(r.First), h))
			} else { // the same ad, readvertised: MachineAd of this host
				ad.SetStr("Name", hostName(int(r.First), h))
				setHostAttrs(ad, h)
			}
			if !Match(request, ad) {
				continue
			}
			rank := Rank(request, ad)
			if math.IsNaN(rank) {
				return MatchBestIndices(request, MachineAds(p), limit, excluded)
			}
			matched = append(matched, rankedRun{rank, r})
		}
	}
	// Runs are disjoint stretches of host IDs, so ordering equal-rank runs
	// by their first host orders their hosts too.
	slices.SortFunc(matched, func(a, b rankedRun) int {
		if c := cmp.Compare(b.rank, a.rank); c != 0 {
			return c
		}
		return cmp.Compare(a.run.First, b.run.First)
	})
	out := []int{}
	for _, m := range matched {
		for h := int(m.run.First); h < int(m.run.First)+m.run.N; h++ {
			if excluded != nil && excluded(h) {
				continue
			}
			if out = append(out, h); limit > 0 && len(out) == limit {
				return out
			}
		}
	}
	return out
}

// readsPerHost reports whether evaluating request's Requirements or Rank
// against a machine ad may read the ad's Name, the one attribute that
// differs between the hosts of a run. It follows every reference those two
// expressions can reach: an unqualified or MY. reference leads into another
// of the request's attributes; a TARGET. or OTHER. reference reads the
// machine ad, whose attributes other than Name are literals or refer to
// the machine's own literals; any other label is unbound. An expression of
// a type it does not know counts as reading Name.
func readsPerHost(request *Ad) bool {
	seen := map[string]bool{}
	var reads func(e Expr) bool
	reads = func(e Expr) bool {
		switch x := e.(type) {
		case Lit:
			return false
		case Unary:
			return reads(x.X)
		case Binary:
			return reads(x.L) || reads(x.R)
		case Ref:
			switch strings.ToLower(x.Label) {
			case "", "my":
				attr := strings.ToLower(x.Attr)
				if seen[attr] {
					return false
				}
				seen[attr] = true
				sub, ok := request.Get(attr)
				return ok && reads(sub)
			case "target", "other":
				return strings.EqualFold(x.Attr, "Name")
			}
			return false
		}
		return true
	}
	for _, attr := range []string{"Requirements", "Rank"} {
		if e, ok := request.Get(attr); ok && reads(e) {
			return true
		}
	}
	return false
}
