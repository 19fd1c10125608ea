// Package platform implements the resource model of dissertation §III.2:
// large-scale distributed environments (LSDEs) composed of thousands of
// clusters of commodity hosts, a synthetic compute-resource generator in the
// style of Kee, Casanova & Chien (HPDC 2004), and a network topology
// generator in the style of BRITE (Waxman and Barabási–Albert modes with
// discrete link-capacity classes).
//
// The package also defines ResourceCollection (RC) — the set of hosts a
// resource selection system hands to a scheduler — and the Network interface
// that converts reference-bandwidth edge costs into host-pair transfer
// times.
package platform

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// HostID identifies a host within one Platform; IDs are dense 0..n-1.
type HostID int32

// ReferenceBandwidthMbps is the bandwidth at which DAG edge costs are
// expressed: 10 Gb/s, the fastest link class of the dissertation's synthetic
// platforms (§III.1.1).
const ReferenceBandwidthMbps = 10_000.0

// ReferenceClockGHz is the clock rate of the task-model reference host; task
// costs are in seconds on a 1.5 GHz host (§IV.2.1).
const ReferenceClockGHz = 1.5

// SchedulerClockGHz is the clock rate of the host running the scheduling
// heuristics in the dissertation's experiments (§III.4.2): a 2.80 GHz Xeon.
const SchedulerClockGHz = 2.8

// Host is one compute node. ClockGHz scales task runtimes: a task costing w
// reference seconds runs in w × ReferenceClockGHz / ClockGHz seconds
// (uniform-processor model, §III.1.2).
type Host struct {
	ID       HostID  `json:"id"`
	Cluster  int     `json:"cluster"`
	ClockGHz float64 `json:"clock_ghz"`
	MemoryMB int     `json:"memory_mb"`
}

// Speedup returns the host's speed relative to the reference host.
func (h Host) Speedup() float64 { return h.ClockGHz / ReferenceClockGHz }

// Cluster is a set of identical, well-connected hosts (the dissertation
// models LSDEs as thousands of ROCKS-style homogeneous clusters).
type Cluster struct {
	ID        int     `json:"id"`
	Name      string  `json:"name"`
	NumHosts  int     `json:"num_hosts"`
	FirstHost HostID  `json:"first_host"`
	ClockGHz  float64 `json:"clock_ghz"`
	MemoryMB  int     `json:"memory_mb"`
	// IntraMbps is the intra-cluster (LAN) bandwidth.
	IntraMbps float64 `json:"intra_mbps"`
	// UplinkMbps is the capacity of the cluster's uplink into the
	// wide-area topology.
	UplinkMbps float64 `json:"uplink_mbps"`
	// InstanceType, HourlyUSD and HostWatts carry the VM-catalog
	// annotation (catalog.go). Optional: zero values mean "unpriced" and
	// the Host* accessors fall back to the modeled defaults, keeping
	// pre-catalog inventories and durable snapshots valid.
	InstanceType string  `json:"instance_type,omitempty"`
	HourlyUSD    float64 `json:"hourly_usd,omitempty"`
	HostWatts    float64 `json:"host_watts,omitempty"`
}

// Platform is a synthetic LSDE: hosts grouped into clusters plus a wide-area
// topology connecting the clusters.
//
// Concurrency: once built (generated or decoded) a Platform is read-only
// apart from its derived tables — the widest-path, run, link-speed and
// speed-class tables — each built on first use and published once, and one
// *Platform is shared by every request the service handles. Every method is
// safe for concurrent use; the exported fields must not be modified after
// the first call. A Platform must not be copied by value once in use (it
// carries atomics).
type Platform struct {
	Hosts    []Host
	Clusters []Cluster
	Topo     *Topology

	// widestPaths caches the widest-path table (widest.go), built on first
	// use and published with an atomic pointer: racing builders compute
	// identical tables and either may win.
	widestPaths atomic.Pointer[widestTable]

	// runs caches the run table (Runs), published the same way.
	runs atomic.Pointer[RunTable]

	// speeds caches the link-speed table (LinkSpeeds), published the same
	// way; a declined table is cached too, as one with no speeds.
	speeds atomic.Pointer[LinkSpeeds]

	// clocks caches the host-speed table (SpeedClasses), published the
	// same way; a declined table is cached too, as one with no speedups.
	clocks atomic.Pointer[SpeedClasses]
}

// NumHosts returns the total host count.
func (p *Platform) NumHosts() int { return len(p.Hosts) }

// Host returns the host with the given ID.
func (p *Platform) Host(id HostID) Host { return p.Hosts[id] }

// Validate checks internal consistency: dense host IDs, cluster spans
// covering all hosts and agreeing with every host's Cluster field (host i
// names cluster c exactly when i lies in c's [FirstHost, FirstHost+NumHosts)
// span — the run table groups hosts by the field, bandwidth lookups and the
// RC helpers go through the spans), positive finite clock rates and
// bandwidths.
func (p *Platform) Validate() error {
	for i, h := range p.Hosts {
		if int(h.ID) != i {
			return fmt.Errorf("platform: host at index %d has ID %d", i, h.ID)
		}
		if !positiveFinite(h.ClockGHz) {
			return fmt.Errorf("platform: host %d has clock %v", i, h.ClockGHz)
		}
		if h.Cluster < 0 || h.Cluster >= len(p.Clusters) {
			return fmt.Errorf("platform: host %d references cluster %d", i, h.Cluster)
		}
	}
	covered := 0
	for i, c := range p.Clusters {
		if c.ID != i {
			return fmt.Errorf("platform: cluster at index %d has ID %d", i, c.ID)
		}
		if c.NumHosts <= 0 || !positiveFinite(c.IntraMbps) || !positiveFinite(c.UplinkMbps) {
			return fmt.Errorf("platform: cluster %d has size %d, LAN %v Mb/s, uplink %v Mb/s: want positive sizes and positive finite bandwidths", i, c.NumHosts, c.IntraMbps, c.UplinkMbps)
		}
		covered += c.NumHosts
	}
	if covered != len(p.Hosts) {
		return fmt.Errorf("platform: clusters cover %d hosts, have %d", covered, len(p.Hosts))
	}
	// Every span lies inside the host table and holds only its own
	// cluster's hosts; with the spans summing to the host count that makes
	// them a partition, so no host of the cluster lies outside its span.
	for i, c := range p.Clusters {
		first := int(c.FirstHost)
		if first < 0 || first+c.NumHosts > len(p.Hosts) {
			return fmt.Errorf("platform: cluster %d spans hosts [%d,%d) of %d", i, first, first+c.NumHosts, len(p.Hosts))
		}
		for _, h := range p.Hosts[first : first+c.NumHosts] {
			if h.Cluster != i {
				return fmt.Errorf("platform: host %d lies in cluster %d's span but names cluster %d", h.ID, i, h.Cluster)
			}
		}
	}
	return nil
}

// positiveFinite reports x > 0 and x < +Inf. NaN fails it, where a test of
// x <= 0 would let NaN through: the schedulers' branch-free maxima and
// bit-pattern comparisons are exact only on non-negative, non-NaN values.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// Bandwidth returns the available bandwidth in Mb/s between two hosts: the
// intra-cluster LAN bandwidth when co-located, otherwise the widest-path
// (maximum-bottleneck) bandwidth through the wide-area topology, additionally
// bottlenecked by both clusters' uplinks. Same-host transfers are free and
// reported as the reference bandwidth.
func (p *Platform) Bandwidth(a, b HostID) float64 {
	if a == b {
		return ReferenceBandwidthMbps
	}
	return p.clusterBandwidth(p.Hosts[a].Cluster, p.Hosts[b].Cluster)
}

// clusterBandwidth returns Bandwidth between distinct hosts of clusters ca
// and cb.
func (p *Platform) clusterBandwidth(ca, cb int) float64 {
	if ca == cb {
		return p.Clusters[ca].IntraMbps
	}
	w := p.widest()
	return min(w.mbps[w.level(ca, cb)], p.Clusters[ca].UplinkMbps, p.Clusters[cb].UplinkMbps)
}

// TransferTime converts a DAG edge cost (seconds at the reference bandwidth)
// into the actual transfer time between hosts a and b. Transfers between a
// host and itself are free (§IV: tasks on the same host share files).
func (p *Platform) TransferTime(edgeCost float64, a, b HostID) float64 {
	if a == b || edgeCost == 0 {
		return 0
	}
	return edgeCost * ReferenceBandwidthMbps / p.Bandwidth(a, b)
}

// FastestHosts returns the k fastest hosts, ties broken by lower ID: the
// "Top Hosts" naive resource abstraction of §IV.2.4.1.
func (p *Platform) FastestHosts(k int) []Host {
	if k > len(p.Hosts) {
		k = len(p.Hosts)
	}
	hosts := append([]Host(nil), p.Hosts...)
	sort.Slice(hosts, func(i, j int) bool {
		if hosts[i].ClockGHz != hosts[j].ClockGHz {
			return hosts[i].ClockGHz > hosts[j].ClockGHz
		}
		return hosts[i].ID < hosts[j].ID
	})
	return hosts[:k]
}
