package vgdl

import (
	"fmt"
	"sort"

	"rsgen/internal/platform"
)

// oracle is the per-host finder this package shipped before Find moved onto
// the platform's run table, kept verbatim (receiver renamed) as the
// reference the differential tests compare against: it walks every host,
// looks each one up in the taken / ExcludedHosts / Excluded maps, re-parses
// the constraint numbers per host and regroups the survivors by cluster.
type oracle struct{ *Finder }

// hostMatches evaluates the aggregate's constraints against one host.
func hostMatches(h platform.Host, cs []Constraint) bool {
	for _, c := range cs {
		var attr float64
		switch c.Attr {
		case "Clock": // MHz in vgDL
			attr = h.ClockGHz * 1000
		case "Memory": // MB
			attr = float64(h.MemoryMB)
		case "Processor", "Arch", "OpSys":
			// The synthetic platform is single-architecture Linux/x86
			// (§IV.2.4 ignores architecture); equality constraints on
			// these attributes always hold, inequality never does.
			if c.Op == "==" {
				continue
			}
			return false
		default:
			return false
		}
		num, ok := c.Num()
		if !ok {
			return false
		}
		var hold bool
		switch c.Op {
		case "==":
			hold = attr == num
		case "!=":
			hold = attr != num
		case ">=":
			hold = attr >= num
		case "<=":
			hold = attr <= num
		case ">":
			hold = attr > num
		case "<":
			hold = attr < num
		}
		if !hold {
			return false
		}
	}
	return true
}

// Find resolves the specification into one resource collection holding the
// union of all aggregates. Juxtaposed aggregates are "close to" each other
// in vgDL's qualitative proximity model (§II.4.1.1): every aggregate after
// the first is selected only from clusters whose bottleneck bandwidth to
// each of the first aggregate's clusters meets the tight threshold. It
// returns an error when any aggregate cannot reach its minimum node count.
func (f oracle) Find(spec *Spec) (*platform.ResourceCollection, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	var hosts []platform.Host
	taken := make(map[platform.HostID]bool)
	var anchor []int // clusters of the first aggregate
	for i, agg := range spec.Aggregates {
		var near map[int]bool
		if i > 0 && len(anchor) > 0 {
			near = f.clustersNear(anchor)
		}
		selected, err := f.findAggregate(agg, taken, near)
		if err != nil {
			return nil, fmt.Errorf("vgdl: aggregate %d (%s): %w", i, agg.Kind, err)
		}
		seen := map[int]bool{}
		for _, h := range selected {
			taken[h.ID] = true
			if i == 0 && !seen[h.Cluster] {
				seen[h.Cluster] = true
				anchor = append(anchor, h.Cluster)
			}
		}
		hosts = append(hosts, selected...)
	}
	return platform.SubsetRC(f.p, hosts), nil
}

// clustersNear returns the clusters whose bandwidth to every anchor cluster
// meets the tight threshold (including the anchors themselves).
func (f oracle) clustersNear(anchor []int) map[int]bool {
	near := make(map[int]bool, len(f.p.Clusters))
	for _, c := range f.p.Clusters {
		ok := true
		for _, a := range anchor {
			if c.ID == a {
				continue
			}
			if f.p.Bandwidth(f.p.Clusters[a].FirstHost, c.FirstHost) < f.TightBandwidthMbps {
				ok = false
				break
			}
		}
		if ok {
			near[c.ID] = true
		}
	}
	return near
}

// findAggregate selects hosts for one aggregate, skipping already-taken
// hosts; near, when non-nil, restricts the eligible clusters (proximity to
// earlier aggregates).
func (f oracle) findAggregate(agg Aggregate, taken map[platform.HostID]bool, near map[int]bool) ([]platform.Host, error) {
	switch agg.Kind {
	case ClusterAgg:
		return f.findCluster(agg, taken, near)
	case TightBag:
		return f.findBag(agg, taken, near, true)
	case LooseBag:
		return f.findBag(agg, taken, near, false)
	}
	return nil, fmt.Errorf("unknown aggregate kind")
}

// findCluster picks one physical cluster whose hosts satisfy the
// constraints, preferring (per rank) more nodes or faster clocks.
func (f oracle) findCluster(agg Aggregate, taken map[platform.HostID]bool, near map[int]bool) ([]platform.Host, error) {
	type cand struct {
		cluster platform.Cluster
		hosts   []platform.Host
	}
	var cands []cand
	for _, c := range f.p.Clusters {
		if f.Excluded[c.ID] || (near != nil && !near[c.ID]) {
			continue
		}
		var hs []platform.Host
		for i := 0; i < c.NumHosts; i++ {
			h := f.p.Hosts[int(c.FirstHost)+i]
			if taken[h.ID] || f.ExcludedHosts[h.ID] || !hostMatches(h, agg.Constraints) {
				continue
			}
			hs = append(hs, h)
		}
		if len(hs) >= agg.Min {
			cands = append(cands, cand{cluster: c, hosts: hs})
		}
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("no cluster satisfies [%d:%d] with %v", agg.Min, agg.Max, agg.Constraints)
	}
	sort.Slice(cands, func(i, j int) bool {
		switch agg.Rank {
		case "Clock":
			if cands[i].cluster.ClockGHz != cands[j].cluster.ClockGHz {
				return cands[i].cluster.ClockGHz > cands[j].cluster.ClockGHz
			}
		default: // "Nodes" and unranked prefer bigger
			if len(cands[i].hosts) != len(cands[j].hosts) {
				return len(cands[i].hosts) > len(cands[j].hosts)
			}
		}
		return cands[i].cluster.ID < cands[j].cluster.ID
	})
	hs := cands[0].hosts
	if len(hs) > agg.Max {
		hs = hs[:agg.Max]
	}
	return hs, nil
}

// findBag selects up to Max matching hosts; TightBags additionally require
// pairwise inter-cluster bandwidth at or above the tight threshold, grown
// greedily from the largest qualifying cluster (matching the §IV.2.4.2
// TightBag semantics).
func (f oracle) findBag(agg Aggregate, taken map[platform.HostID]bool, near map[int]bool, tight bool) ([]platform.Host, error) {
	// Group qualifying hosts by cluster.
	byCluster := make(map[int][]platform.Host)
	for _, h := range f.p.Hosts {
		if taken[h.ID] || f.ExcludedHosts[h.ID] || f.Excluded[h.Cluster] || (near != nil && !near[h.Cluster]) || !hostMatches(h, agg.Constraints) {
			continue
		}
		byCluster[h.Cluster] = append(byCluster[h.Cluster], h)
	}
	clusters := make([]int, 0, len(byCluster))
	for c := range byCluster {
		clusters = append(clusters, c)
	}
	// Rank clusters: faster first when rank=Clock, bigger first otherwise.
	sort.Slice(clusters, func(i, j int) bool {
		a, b := clusters[i], clusters[j]
		switch agg.Rank {
		case "Clock":
			if f.p.Clusters[a].ClockGHz != f.p.Clusters[b].ClockGHz {
				return f.p.Clusters[a].ClockGHz > f.p.Clusters[b].ClockGHz
			}
		default:
			if len(byCluster[a]) != len(byCluster[b]) {
				return len(byCluster[a]) > len(byCluster[b])
			}
		}
		return a < b
	})

	var picked []platform.Host
	var pickedClusters []int
	for _, c := range clusters {
		if len(picked) >= agg.Max {
			break
		}
		if tight {
			ok := true
			for _, pc := range pickedClusters {
				a := f.p.Clusters[pc].FirstHost
				b := f.p.Clusters[c].FirstHost
				if f.p.Bandwidth(a, b) < f.TightBandwidthMbps {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
		}
		take := byCluster[c]
		if need := agg.Max - len(picked); len(take) > need {
			take = take[:need]
		}
		picked = append(picked, take...)
		pickedClusters = append(pickedClusters, c)
	}
	if len(picked) < agg.Min {
		return nil, fmt.Errorf("only %d hosts satisfy [%d:%d] with %v", len(picked), agg.Min, agg.Max, agg.Constraints)
	}
	return picked, nil
}
