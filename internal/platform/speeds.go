package platform

import (
	"fmt"
	"math"
	"slices"
)

// MaxLinkSpeeds is the most distinct link speeds a LinkSpeeds table holds:
// classes are bytes, and class 0 is reserved for free pairs.
const MaxLinkSpeeds = math.MaxUint8

// LinkSpeeds is a platform's link-speed table: every bandwidth two distinct
// hosts can see, numbered as a small class, so a scheduler can divide each
// edge cost once per class instead of once per host pair. The generated
// platforms have the five BRITE capacity classes (§III.2.2), while an RC's
// host pairs run to hundreds. Classes ascend with speed, so the class of a
// minimum of speeds is the minimum of their classes: an inter-cluster pair's
// class is the least of its widest-path level's class and its two uplinks'.
// A table is immutable once published.
type LinkSpeeds struct {
	// Mbps[k] is the bandwidth of class k ≥ 1; classes 1..len(Mbps)-1 are
	// the distinct speeds in ascending order. Class 0 is the free pair (one
	// host on both ends), whose transfer time is 0 whatever the edge cost;
	// Mbps[0] holds +Inf only to keep the indices aligned.
	Mbps []float64

	bits  []uint64 // Mbps[1:] as bit patterns, ascending
	level []uint8  // per widest-path level: the class of its width
	intra []uint8  // per cluster: the class of its IntraMbps
	up    []uint8  // per cluster: the class of its UplinkMbps
}

// LinkSpeeds returns (building and caching on first use) the platform's
// link-speed table, or nil when the platform declines one because more than
// MaxLinkSpeeds distinct speeds are possible.
//
// The speeds are listed without consulting the widest paths: a widest
// path's bottleneck is one of its links' capacities, the source's cap (the
// largest link class) or 0 when no path exists, and Bandwidth then takes the
// minimum of it and two uplinks. So the table lists every speed a pair can
// have, possibly with some that no pair has.
func (p *Platform) LinkSpeeds() *LinkSpeeds {
	t := p.speeds.Load()
	if t == nil {
		p.speeds.CompareAndSwap(nil, buildLinkSpeeds(p)) // losing the race is fine: use the winner's
		t = p.speeds.Load()
	}
	if len(t.Mbps) == 0 {
		return nil
	}
	return t
}

// buildLinkSpeeds collects the possible speeds and the per-cluster and
// per-level classes. Speeds are kept as bit patterns, so "distinct" means
// bit-distinct (a non-negative float's bits also sort as its value). A
// declined table is published as one with no Mbps.
func buildLinkSpeeds(p *Platform) *LinkSpeeds {
	var bits []uint64
	add := func(bw float64) {
		b := math.Float64bits(bw)
		if k, found := slices.BinarySearch(bits, b); !found && len(bits) <= MaxLinkSpeeds {
			bits = slices.Insert(bits, k, b)
		}
	}
	add(0)
	add(LinkClassesMbps[len(LinkClassesMbps)-1])
	for _, c := range p.Clusters {
		add(c.IntraMbps)
		add(c.UplinkMbps)
	}
	if p.Topo != nil { // a one-cluster platform may have none
		for _, l := range p.Topo.Links {
			add(l.Mbps)
		}
	}
	if len(bits) > MaxLinkSpeeds {
		return &LinkSpeeds{}
	}
	t := &LinkSpeeds{
		Mbps:  make([]float64, 1+len(bits)),
		bits:  bits,
		intra: make([]uint8, len(p.Clusters)),
		up:    make([]uint8, len(p.Clusters)),
	}
	t.Mbps[0] = math.Inf(1)
	for k, b := range bits {
		t.Mbps[k+1] = math.Float64frombits(b)
	}
	for c, cl := range p.Clusters {
		t.intra[c], t.up[c] = t.class(cl.IntraMbps), t.class(cl.UplinkMbps)
	}
	for _, bw := range p.widest().mbps {
		t.level = append(t.level, t.class(bw))
	}
	return t
}

// class returns the class of a speed the table lists; a speed it does not
// list would break LinkSpeeds' argument, so it panics.
func (t *LinkSpeeds) class(bw float64) uint8 {
	k, found := slices.BinarySearch(t.bits, math.Float64bits(bw))
	if !found {
		panic(fmt.Sprintf("platform: link speed %v missing from the speed table", bw))
	}
	return uint8(k + 1)
}

// MaxSpeedClasses is the most distinct host clocks a SpeedClasses table
// holds: classes are bytes.
const MaxSpeedClasses = math.MaxUint8

// SpeedClasses is a platform's host-speed table: its distinct clock rates,
// numbered as small classes, so a scheduler can divide each task cost once
// per class instead of once per host. The generated platforms draw six
// clocks, while an RC scheduled hundreds of times per search may hold any
// mix of them. A table is immutable once published.
type SpeedClasses struct {
	// Speedup[k] is Host.Speedup() of every host whose clock is class k;
	// the classes are the distinct clocks in ascending order.
	Speedup []float64

	bits []uint64 // the clocks as bit patterns, ascending
}

// SpeedClasses returns (building and caching on first use) the platform's
// host-speed table, or nil when the platform declines one because its hosts
// have more than MaxSpeedClasses distinct clocks.
func (p *Platform) SpeedClasses() *SpeedClasses {
	t := p.clocks.Load()
	if t == nil {
		p.clocks.CompareAndSwap(nil, buildSpeedClasses(p)) // losing the race is fine: use the winner's
		t = p.clocks.Load()
	}
	if len(t.Speedup) == 0 {
		return nil
	}
	return t
}

// buildSpeedClasses collects the distinct clocks as bit patterns, so
// "distinct" means bit-distinct, as for link speeds. A declined table is
// published as one with no speedups.
func buildSpeedClasses(p *Platform) *SpeedClasses {
	var bits []uint64
	last := uint64(0) // no host has clock 0: Validate requires a positive one
	for _, h := range p.Hosts {
		b := math.Float64bits(h.ClockGHz)
		if b == last {
			continue // hosts of one cluster share a clock
		}
		last = b
		if k, found := slices.BinarySearch(bits, b); !found {
			if len(bits) == MaxSpeedClasses {
				return &SpeedClasses{}
			}
			bits = slices.Insert(bits, k, b)
		}
	}
	t := &SpeedClasses{Speedup: make([]float64, len(bits)), bits: bits}
	for k, b := range bits {
		t.Speedup[k] = Host{ClockGHz: math.Float64frombits(b)}.Speedup()
	}
	return t
}

// Class returns the class of a host clocked at clockGHz, and false when the
// table lists no such clock (a host that is not the platform's own).
func (t *SpeedClasses) Class(clockGHz float64) (uint8, bool) {
	k, found := slices.BinarySearch(t.bits, math.Float64bits(clockGHz))
	return uint8(k), found
}
