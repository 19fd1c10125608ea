package platform

import (
	"fmt"
	"sort"

	"rsgen/internal/xrand"
)

// Network converts DAG edge costs (seconds at the reference bandwidth) into
// host-pair transfer times. Implementations must return 0 when from == to.
type Network interface {
	// TransferTime returns the seconds needed to move an intermediate
	// file with the given reference-bandwidth cost from host index a to
	// host index b *within the resource collection*.
	TransferTime(edgeCost float64, a, b int) float64
}

// UniformNetwork is the homogeneous-bandwidth model used throughout the
// size-prediction experiments (§V.2): every distinct host pair communicates
// at Mbps.
type UniformNetwork struct {
	Mbps float64
}

// TransferTime implements Network.
func (u UniformNetwork) TransferTime(edgeCost float64, a, b int) float64 {
	if a == b || edgeCost == 0 {
		return 0
	}
	return edgeCost * ReferenceBandwidthMbps / u.Mbps
}

// ResourceCollection (RC, §V.1) is the set of hosts a resource selection
// system returns: what the scheduler schedules onto. Host order is
// significant only for determinism.
type ResourceCollection struct {
	Hosts []Host
	Net   Network
}

// Size returns the number of hosts in the collection.
func (rc *ResourceCollection) Size() int { return len(rc.Hosts) }

// Validate checks the RC is non-empty with positive clock rates.
func (rc *ResourceCollection) Validate() error {
	if len(rc.Hosts) == 0 {
		return fmt.Errorf("platform: empty resource collection")
	}
	if rc.Net == nil {
		return fmt.Errorf("platform: resource collection without network model")
	}
	for i, h := range rc.Hosts {
		if h.ClockGHz <= 0 {
			return fmt.Errorf("platform: RC host %d has clock %v", i, h.ClockGHz)
		}
	}
	return nil
}

// ClockHeterogeneity returns the dissertation's clock-rate-heterogeneity
// measure for the collection: max deviation from the mean clock, as a
// fraction of the mean (0 for a homogeneous RC).
func (rc *ResourceCollection) ClockHeterogeneity() float64 {
	if len(rc.Hosts) == 0 {
		return 0
	}
	mean := 0.0
	for _, h := range rc.Hosts {
		mean += h.ClockGHz
	}
	mean /= float64(len(rc.Hosts))
	maxDev := 0.0
	for _, h := range rc.Hosts {
		dev := h.ClockGHz - mean
		if dev < 0 {
			dev = -dev
		}
		if dev > maxDev {
			maxDev = dev
		}
	}
	return maxDev / mean
}

// MinClock returns the slowest clock rate in the RC.
func (rc *ResourceCollection) MinClock() float64 {
	m := rc.Hosts[0].ClockGHz
	for _, h := range rc.Hosts[1:] {
		if h.ClockGHz < m {
			m = h.ClockGHz
		}
	}
	return m
}

// HomogeneousRC builds an n-host RC where every host runs at clockGHz with
// uniform bandwidth bwMbps between distinct hosts: the resource condition of
// the size-model observation runs (§V.2).
func HomogeneousRC(n int, clockGHz, bwMbps float64) *ResourceCollection {
	hosts := make([]Host, n)
	for i := range hosts {
		hosts[i] = Host{ID: HostID(i), ClockGHz: clockGHz, MemoryMB: 1024}
	}
	return &ResourceCollection{Hosts: hosts, Net: UniformNetwork{Mbps: bwMbps}}
}

// HeterogeneousRC builds an n-host RC whose clock rates are uniform in
// [clockGHz·(1−het), clockGHz·(1+het)] — the clock-rate-heterogeneity model
// of §V.4 — with uniform bandwidth. het must be in [0, 1).
func HeterogeneousRC(n int, clockGHz, het, bwMbps float64, rng *xrand.RNG) *ResourceCollection {
	hosts := make([]Host, n)
	for i := range hosts {
		c := clockGHz
		if het > 0 {
			c = rng.Uniform(clockGHz*(1-het), clockGHz*(1+het))
		}
		hosts[i] = Host{ID: HostID(i), ClockGHz: c, MemoryMB: 1024}
	}
	return &ResourceCollection{Hosts: hosts, Net: UniformNetwork{Mbps: bwMbps}}
}

// UniverseRC wraps an entire platform as a resource collection: the
// "implicit selection" configuration of Chapter IV where the scheduling
// heuristic sees every host in the LSDE.
func UniverseRC(p *Platform) *ResourceCollection {
	return &ResourceCollection{
		Hosts: append([]Host(nil), p.Hosts...),
		Net:   platformNet{p: p, hosts: p.Hosts},
	}
}

// SubsetRC builds an RC from a subset of platform hosts, preserving the
// platform's network model between them ("explicit selection"). The
// collection owns a copy of hosts and its network reads host identities from
// that same copy, so an owner may overwrite rc.Hosts[i] in place to re-point
// the collection at another subset of equal size (the moga engine scores
// every genome through one RC per worker this way).
func SubsetRC(p *Platform, hosts []Host) *ResourceCollection {
	own := append([]Host(nil), hosts...)
	return &ResourceCollection{Hosts: own, Net: platformNet{p: p, hosts: own}}
}

// platformNet adapts Platform bandwidths to RC-relative host indices.
type platformNet struct {
	p     *Platform
	hosts []Host
}

func (n platformNet) TransferTime(edgeCost float64, a, b int) float64 {
	return n.p.TransferTime(edgeCost, n.hosts[a].ID, n.hosts[b].ID)
}

// ClusterNetwork is implemented by networks whose transfer time between two
// distinct hosts depends only on the clusters the hosts belong to. Schedulers
// exploit this to evaluate one candidate per cluster instead of every host
// (see internal/sched's grouped host selection); the results are required to
// be identical to per-host TransferTime evaluation.
type ClusterNetwork interface {
	Network
	// HostCluster returns the cluster of RC host i.
	HostCluster(i int) int
	// ClusterTransferTime returns TransferTime between any two distinct
	// hosts of clusters ca and cb (which may be equal: intra-cluster
	// transfers between distinct hosts pay the LAN bandwidth).
	ClusterTransferTime(edgeCost float64, ca, cb int) float64
}

// HostCluster implements ClusterNetwork.
func (n platformNet) HostCluster(i int) int { return n.hosts[i].Cluster }

// ClusterTransferTime implements ClusterNetwork.
func (n platformNet) ClusterTransferTime(edgeCost float64, ca, cb int) float64 {
	if edgeCost == 0 {
		return 0
	}
	var bw float64
	if ca == cb {
		bw = n.p.Clusters[ca].IntraMbps
	} else {
		bw = n.p.interClusterBandwidth(ca, cb)
	}
	return edgeCost * ReferenceBandwidthMbps / bw
}

// PairBandwidthNetwork is implemented by networks that can tabulate the
// bandwidth between every pair of RC hosts as a link class, so a scheduler
// that evaluates every (parent host, candidate host) pair divides each edge
// cost once per class and then reads a table, instead of calling
// TransferTime through the interface each time.
type PairBandwidthNetwork interface {
	Network
	// PairBandwidths fills cls, row-major with len(cls) = m·m for an m-host
	// RC, with each pair's class in the returned table s: class 0 for a free
	// pair (both indices name the same host), whose TransferTime is 0, and
	// otherwise a class for which, bit for bit and for every edgeCost ≠ 0,
	//
	//	TransferTime(edgeCost, a, b) == edgeCost * ReferenceBandwidthMbps / s.Mbps[cls[a*m+b]]
	//
	// A network that declines a table returns nil and leaves cls alone; the
	// caller then falls back to TransferTime.
	PairBandwidths(cls []uint8) (s *LinkSpeeds)
}

// PairBandwidths implements PairBandwidthNetwork in one pass over the pairs,
// reading Platform.Bandwidth's three cases from the platform's speed table,
// each source cluster's class row fetched once per source host.
func (n platformNet) PairBandwidths(cls []uint8) *LinkSpeeds {
	p := n.p
	t := p.LinkSpeeds()
	if t == nil {
		return nil
	}
	m := len(n.hosts)
	for a, ha := range n.hosts {
		row := cls[a*m : (a+1)*m]
		ca := p.Hosts[ha.ID].Cluster
		intra := t.intra[ca]
		var inter []uint8
		for b, hb := range n.hosts {
			switch cb := p.Hosts[hb.ID].Cluster; {
			case ha.ID == hb.ID:
				row[b] = 0
			case ca == cb:
				row[b] = intra
			default:
				if inter == nil {
					inter = t.interRow(ca)
				}
				row[b] = inter[cb]
			}
		}
	}
	return t
}

// TopHostsRC returns the k-fastest-hosts naive abstraction of §IV.2.4.1 as
// an RC over the platform network.
func TopHostsRC(p *Platform, k int) *ResourceCollection {
	return SubsetRC(p, p.FastestHosts(k))
}

// TightBagRC approximates the vgES TightBag abstraction (§IV.2.4.2): up to
// max hosts with clock ≥ minClockGHz whose pairwise bandwidth is ≥ bwMbps,
// grown greedily from the cluster with the most qualifying hosts (clusters
// are internally well-connected; additional clusters are admitted only if
// their inter-cluster bottleneck to every admitted cluster meets the
// threshold). Returns at least min hosts or nil if unsatisfiable.
func TightBagRC(p *Platform, min, max int, minClockGHz, bwMbps float64) *ResourceCollection {
	type cand struct {
		cluster int
		hosts   []Host
	}
	var cands []cand
	for _, c := range p.Clusters {
		if c.ClockGHz < minClockGHz || c.IntraMbps < bwMbps {
			continue
		}
		var hs []Host
		for i := 0; i < c.NumHosts; i++ {
			hs = append(hs, p.Hosts[int(c.FirstHost)+i])
		}
		cands = append(cands, cand{cluster: c.ID, hosts: hs})
	}
	// Biggest qualifying clusters first.
	sort.Slice(cands, func(i, j int) bool {
		if len(cands[i].hosts) != len(cands[j].hosts) {
			return len(cands[i].hosts) > len(cands[j].hosts)
		}
		return cands[i].cluster < cands[j].cluster
	})
	var picked []Host
	var pickedClusters []int
	for _, c := range cands {
		if len(picked) >= max {
			break
		}
		ok := true
		for _, pc := range pickedClusters {
			if p.interClusterBandwidth(pc, c.cluster) < bwMbps {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		need := max - len(picked)
		take := c.hosts
		if len(take) > need {
			take = take[:need]
		}
		picked = append(picked, take...)
		pickedClusters = append(pickedClusters, c.cluster)
	}
	if len(picked) < min {
		return nil
	}
	return SubsetRC(p, picked)
}
