package platform

import (
	"fmt"
	"math"
	"slices"

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

// Validate checks the RC is non-empty with positive, finite clock rates.
func (rc *ResourceCollection) Validate() error {
	if len(rc.Hosts) == 0 {
		return fmt.Errorf("platform: empty resource collection")
	}
	if rc.Net == nil {
		return fmt.Errorf("platform: resource collection without network model")
	}
	for i, h := range rc.Hosts {
		if !positiveFinite(h.ClockGHz) {
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

// ClusterNetwork is implemented by networks whose bandwidth between two
// distinct hosts depends only on the clusters the hosts belong to.
// Schedulers exploit this to evaluate one candidate per cluster instead of
// every host (see internal/sched's grouped host selection); the results are
// required to be identical to per-host TransferTime evaluation, which for
// distinct hosts of clusters ca and cb and every edgeCost ≠ 0 is, bit for
// bit,
//
//	edgeCost * ReferenceBandwidthMbps / ClusterBandwidth(ca, cb)
type ClusterNetwork interface {
	Network
	// HostCluster returns the cluster of RC host i.
	HostCluster(i int) int
	// ClusterBandwidth returns the bandwidth between any two distinct
	// hosts of clusters ca and cb (which may be equal: intra-cluster
	// transfers between distinct hosts pay the LAN bandwidth).
	ClusterBandwidth(ca, cb int) float64
}

// HostCluster implements ClusterNetwork.
func (n platformNet) HostCluster(i int) int { return n.hosts[i].Cluster }

// ClusterBandwidth implements ClusterNetwork.
func (n platformNet) ClusterBandwidth(ca, cb int) float64 { return n.p.clusterBandwidth(ca, cb) }

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

// PairBandwidths implements PairBandwidthNetwork. The hosts are visited in
// the order of their clusters' widest-path ranks, where each cluster's hosts
// are adjacent and the widest path between two hosts is the narrowest one
// between rank-adjacent hosts in between. So one level lookup per adjacent
// pair and one running minimum per source host fill the upper triangle of
// that order, which is mirrored into the lower one. Classes ascend with
// speed, so the minimum of classes is the class of Platform.Bandwidth's
// minimum of speeds.
func (n platformNet) PairBandwidths(cls []uint8) *LinkSpeeds {
	p := n.p
	t := p.LinkSpeeds()
	if t == nil {
		return nil
	}
	w := p.widest()
	m := len(n.hosts)
	// Per position in rank order: the sort key (rank, then RC index) and
	// the host's cluster, uplink class and class to the next position
	// (MaxUint8, no bound for a running minimum, within a cluster). A
	// collection of up to 32 hosts keeps them on the stack.
	var keyBuf [32]uint64
	var clBuf [32]int32
	var upBuf, nextBuf [32]uint8
	keys, cl, up, next := keyBuf[:], clBuf[:], upBuf[:], nextBuf[:]
	if m > len(keyBuf) {
		keys, cl, up, next = make([]uint64, m), make([]int32, m), make([]uint8, m), make([]uint8, m)
	}
	keys = keys[:m]
	for i, h := range n.hosts {
		keys[i] = uint64(w.rank[p.Hosts[h.ID].Cluster])<<32 | uint64(i)
	}
	slices.Sort(keys)
	for k, key := range keys {
		c := p.Hosts[n.hosts[uint32(key)].ID].Cluster
		cl[k], up[k], next[k] = int32(c), t.up[c], math.MaxUint8
		if k > 0 && int(cl[k-1]) != c {
			next[k-1] = t.level[w.level(int(cl[k-1]), c)]
		}
	}
	for a := 0; a < m; {
		end := a + 1 // hosts a..end-1 share a cluster
		for end < m && cl[end] == cl[a] {
			end++
		}
		intra := t.intra[cl[a]]
		for ; a < end; a++ {
			ia := int(uint32(keys[a]))
			row := cls[ia*m : (ia+1)*m]
			row[ia] = 0
			for b := a + 1; b < end; b++ {
				ib := int(uint32(keys[b]))
				c := intra
				if n.hosts[ia].ID == n.hosts[ib].ID {
					c = 0
				}
				row[ib], cls[ib*m+ia] = c, c
			}
			run := up[a]
			for b := end; b < m; b++ {
				ib := int(uint32(keys[b]))
				run = min(run, next[b-1])
				c := min(run, up[b])
				row[ib], cls[ib*m+ia] = c, c
			}
		}
	}
	return t
}

// SpeedClassNetwork is implemented by networks over a platform, which hand
// a scheduler the platform's host-speed table so it can tabulate execution
// times per clock class instead of dividing per host. The table describes
// the platform's hosts, so the caller looks up each RC host's clock in it
// (SpeedClasses.Class) rather than trusting host identity.
type SpeedClassNetwork interface {
	Network
	// SpeedClasses returns the platform's table, or nil when it declines
	// one; the caller then divides per host.
	SpeedClasses() *SpeedClasses
}

// SpeedClasses implements SpeedClassNetwork.
func (n platformNet) SpeedClasses() *SpeedClasses { return n.p.SpeedClasses() }

// TopHostsRC returns the k-fastest-hosts naive abstraction of §IV.2.4.1 as
// an RC over the platform network.
func TopHostsRC(p *Platform, k int) *ResourceCollection {
	return SubsetRC(p, p.FastestHosts(k))
}
