package broker

import (
	"fmt"

	"rsgen/internal/classad"
	"rsgen/internal/moga"
	"rsgen/internal/platform"
	"rsgen/internal/spec"
	"rsgen/internal/sword"
	"rsgen/internal/vgdl"
	"rsgen/internal/xrand"
)

// Selector is one pluggable resource selection backend: it resolves a
// generated specification against the registered inventory, skipping hosts
// the lease table has masked. The three dissertation targets — vgES (vgDL),
// Condor matchmaking (ClassAds), and SWORD — implement it, each reading its
// own language out of the Specification.
type Selector interface {
	// Name identifies the backend in traces and metrics.
	Name() string
	// Select resolves the specification into a resource collection with
	// none of the excluded hosts. It must return an error (not a short
	// collection) when the full request cannot be met.
	Select(sp *spec.Specification, excluded map[platform.HostID]bool) (*platform.ResourceCollection, error)
}

// BackendNames lists the always-registered backends in default try order.
// The optional moga backend (Config.Moga) is additionally registered as
// "moga"; Broker.Backends reports the effective list.
var BackendNames = []string{"vgdl", "classad", "sword"}

// newSelectors builds the backends over one platform. The SWORD directory is
// materialized once per registration — it draws a per-node load for every
// host, so it is O(hosts) to build, and immutable afterwards, so concurrent
// selections share it and only the per-call exclusion mask differs. The
// other backends keep nothing per host. When mogaCfg is non-nil the
// multi-objective backend is registered too.
func newSelectors(p *platform.Platform, swordSeed uint64, mogaCfg *moga.Config) map[string]Selector {
	sels := map[string]Selector{
		"vgdl":    &vgdlSelector{p: p},
		"classad": &classAdSelector{p: p},
		"sword":   &swordSelector{p: p, dir: sword.NewDirectory(p, xrand.New(swordSeed))},
	}
	if mogaCfg != nil {
		sels["moga"] = &mogaSelector{p: p, cfg: *mogaCfg}
	}
	return sels
}

// vgdlSelector resolves the specification's vgDL through the vgES-style
// finder with host-level exclusion.
type vgdlSelector struct {
	p *platform.Platform
}

func (s *vgdlSelector) Name() string { return "vgdl" }

func (s *vgdlSelector) Select(sp *spec.Specification, excluded map[platform.HostID]bool) (*platform.ResourceCollection, error) {
	parsed, err := vgdl.Parse(sp.VgDL)
	if err != nil {
		return nil, fmt.Errorf("vgdl: %w", err)
	}
	f := vgdl.NewFinder(s.p)
	f.ExcludedHosts = excluded
	return f.Find(parsed)
}

// classAdSelector matches the specification's job ClassAd against the
// platform's workstation ads, evaluated once per run (classad.MatchHosts),
// so it keeps no ads between calls. Host IDs index the exclusion mask.
type classAdSelector struct {
	p *platform.Platform
}

func (s *classAdSelector) Name() string { return "classad" }

func (s *classAdSelector) Select(sp *spec.Specification, excluded map[platform.HostID]bool) (*platform.ResourceCollection, error) {
	ad, err := classad.Parse(sp.ClassAd)
	if err != nil {
		return nil, fmt.Errorf("classad: %w", err)
	}
	idx := classad.MatchHosts(ad, s.p, sp.RCSize, func(i int) bool {
		return excluded[platform.HostID(i)]
	})
	if len(idx) < sp.RCSize {
		return nil, fmt.Errorf("classad: matched %d of %d requested machines", len(idx), sp.RCSize)
	}
	hosts := make([]platform.Host, len(idx))
	for i, j := range idx {
		hosts[i] = s.p.Hosts[j]
	}
	return platform.SubsetRC(s.p, hosts), nil
}

// swordSelector resolves the specification's SWORD XML against a directory
// built once per registration (seeded deterministically).
type swordSelector struct {
	p   *platform.Platform
	dir *sword.Directory
}

func (s *swordSelector) Name() string { return "sword" }

func (s *swordSelector) Select(sp *spec.Specification, excluded map[platform.HostID]bool) (*platform.ResourceCollection, error) {
	req, err := sword.Decode(sp.SwordXML)
	if err != nil {
		return nil, fmt.Errorf("sword: %w", err)
	}
	sel, err := s.dir.SelectExcluding(req, excluded)
	if err != nil {
		return nil, err
	}
	return platform.SubsetRC(s.p, sel.Hosts(req.Groups)), nil
}
