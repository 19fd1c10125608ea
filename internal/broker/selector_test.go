package broker

import (
	"testing"

	"rsgen/internal/platform"
	"rsgen/internal/xrand"
)

// TestSelectorsAllocatePerRun: registering an inventory allocates O(runs)
// objects, not O(hosts). The benchmark's 200-cluster 2007 inventory has
// 6 585 hosts in 200 runs; keeping a machine ad per host for the ClassAd
// backend cost 248 008 objects (16.7 MB) for as long as the inventory was
// registered.
func TestSelectorsAllocatePerRun(t *testing.T) {
	p := platform.MustGenerate(platform.GenSpec{Clusters: 200, Year: 2007}, xrand.New(1))
	runs := p.Runs().Len()
	allocs := testing.AllocsPerRun(3, func() { newSelectors(p, 1, nil) })
	if bound := float64(64 * runs); allocs > bound {
		t.Fatalf("newSelectors allocates %.0f objects for %d hosts in %d runs, want ≤ %.0f", allocs, p.NumHosts(), runs, bound)
	}
}
