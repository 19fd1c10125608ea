package platform

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
)

// MaxLinkSpeeds is the most distinct link speeds a LinkSpeeds table holds:
// classes are bytes, and class 0 is reserved for free pairs.
const MaxLinkSpeeds = math.MaxUint8

// LinkSpeeds is a platform's link-speed table: every bandwidth two distinct
// hosts can see, numbered as a small class, so a scheduler can divide each
// edge cost once per class instead of once per host pair. The generated
// platforms have the five BRITE capacity classes (§III.2.2), while an RC's
// host pairs run to hundreds. A table is immutable once published, apart
// from its per-cluster class rows, which are built on first use.
type LinkSpeeds struct {
	// Mbps[k] is the bandwidth of class k ≥ 1; classes 1..len(Mbps)-1 are
	// the distinct speeds in ascending order. Class 0 is the free pair (one
	// host on both ends), whose transfer time is 0 whatever the edge cost;
	// Mbps[0] holds +Inf only to keep the indices aligned.
	Mbps []float64

	p     *Platform
	bits  []uint64 // Mbps[1:] as bit patterns, ascending
	intra []uint8  // per cluster: the class of its IntraMbps
	// inter[ca] is cluster ca's row of inter-cluster classes, built from
	// its widest-path row on first use and published like interBW rows.
	inter []atomic.Pointer[[]uint8]
}

// LinkSpeeds returns (building and caching on first use) the platform's
// link-speed table, or nil when the platform declines one because more than
// MaxLinkSpeeds distinct speeds are possible.
//
// The speeds are found without a widest-path search: a widest path's
// bottleneck is one of its links' capacities, the source's cap (the largest
// link class) or 0 when no path exists, and Bandwidth then takes the minimum
// of it and two uplinks. So the table lists every speed a pair can have,
// possibly with some that no pair has, and each cluster's row of classes
// costs one widest-path row, only when first asked for.
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

// buildLinkSpeeds collects the possible speeds and the intra-cluster
// classes. Speeds are kept as bit patterns, so "distinct" means
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
	for _, c := range p.Clusters {
		add(c.IntraMbps)
	}
	// A one-cluster platform has no inter-cluster pair (and may have no
	// topology).
	if len(p.Clusters) > 1 {
		add(0)
		add(LinkClassesMbps[len(LinkClassesMbps)-1])
		for _, c := range p.Clusters {
			add(c.UplinkMbps)
		}
		if p.Topo != nil {
			for _, l := range p.Topo.Links {
				add(l.Mbps)
			}
		}
	}
	if len(bits) > MaxLinkSpeeds {
		return &LinkSpeeds{}
	}
	t := &LinkSpeeds{
		Mbps:  make([]float64, 1+len(bits)),
		p:     p,
		bits:  bits,
		intra: make([]uint8, len(p.Clusters)),
		inter: make([]atomic.Pointer[[]uint8], len(p.Clusters)),
	}
	t.Mbps[0] = math.Inf(1)
	for k, b := range bits {
		t.Mbps[k+1] = math.Float64frombits(b)
	}
	for c, cl := range p.Clusters {
		t.intra[c] = t.class(cl.IntraMbps)
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

// interRow returns cluster ca's inter-cluster classes, indexed by the other
// cluster (the entry for ca itself is unused).
func (t *LinkSpeeds) interRow(ca int) []uint8 {
	if row := t.inter[ca].Load(); row != nil {
		return *row
	}
	bw := t.p.interClusterRow(ca)
	row := make([]uint8, len(t.intra))
	for cb := range row {
		if cb != ca {
			row[cb] = t.class(bw[cb])
		}
	}
	t.inter[ca].Store(&row) // racing builders compute identical rows
	return row
}
