package sched

import (
	"testing"

	"rsgen/internal/dag"
	"rsgen/internal/platform"
	"rsgen/internal/xrand"
)

// clusterOnlyNet hides a platform network's PairBandwidths, which forces the
// per-(parent, host) TransferTime interface path on the same hosts.
type clusterOnlyNet struct{ platform.ClusterNetwork }

// TestDenseTableMatchesInterfacePath is the exactness proof for the small-RC
// dense path: on cluster-network collections, every heuristic must produce
// bit-identical schedules and turn-arounds whether at() values come from the
// pair-bandwidth table (scan forced at every size) or from TransferTime
// (table hidden). The corpus DAGs are the golden corpus's, plus one with an
// overflowing edge cost; the collections
// cover the moga sizes, the largest size below the real gate, a one-cluster
// RC, a repeated host (a free pair off the diagonal) and an RC with more
// hosts than the DAG has edges (table declined).
func TestDenseTableMatchesInterfacePath(t *testing.T) {
	old := indexMinHosts
	defer func() { indexMinHosts = old }()
	indexMinHosts = 1 << 30

	p, err := platform.Generate(platform.GenSpec{Clusters: 40, Year: 2007}, xrand.New(91))
	if err != nil {
		t.Fatal(err)
	}
	sample := func(k int, seed uint64) []platform.Host {
		hosts := make([]platform.Host, k)
		for i, id := range xrand.New(seed).Sample(p.NumHosts(), k) {
			hosts[i] = p.Hosts[id]
		}
		return hosts
	}
	repeated := sample(9, 95)
	repeated[6] = repeated[2]
	big := p.Clusters[0]
	for _, c := range p.Clusters {
		if c.NumHosts > big.NumHosts {
			big = c
		}
	}
	rcs := []struct {
		name  string
		hosts []platform.Host
		dense bool
	}{
		{"k5", sample(5, 92), true},
		{"k12", sample(12, 93), true},
		{"k22", sample(22, 94), true},
		{"k127", sample(127, 96), true},
		{"top40", p.FastestHosts(40), true},
		{"one-cluster", p.Hosts[big.FirstHost : int(big.FirstHost)+min(big.NumHosts, 16)], true},
		{"repeated-host", repeated, true},
		{"twins", []platform.Host{repeated[2], repeated[2]}, true},
	}
	golden := goldenDAGs()
	// One edge whose cost × ReferenceBandwidthMbps overflows: the table's
	// +Inf free pairs would turn its transfer into NaN instead of 0. On the
	// diagonal the parent host's own free time hides that; between twins
	// (one host listed twice) it does not.
	for _, d := range []*dag.DAG{golden[0].d, golden[1].d, overflowingEdge(golden[1].d)} {
		for _, rr := range rcs {
			table := platform.SubsetRC(p, rr.hosts)
			hidden := &platform.ResourceCollection{
				Hosts: table.Hosts,
				Net:   clusterOnlyNet{table.Net.(platform.ClusterNetwork)},
			}
			for _, rc := range []*platform.ResourceCollection{table, hidden} {
				s, err := newState(d, rc)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := s.pairTable(), rr.dense && rc == table; got != want {
					t.Fatalf("%s: pairTable() = %v, want %v", rr.name, got, want)
				}
				s.release()
			}
			for _, h := range append(All(), Baselines()...) {
				want, err := h.Schedule(d, hidden)
				if err != nil {
					t.Fatal(err)
				}
				got, err := h.Schedule(d, table)
				if err != nil {
					t.Fatal(err)
				}
				if gh, wh := scheduleHash(got), scheduleHash(want); gh != wh {
					t.Errorf("%s rc=%s n=%d: dense table %016x != interface path %016x",
						h.Name(), rr.name, d.Size(), gh, wh)
				}
				ta, err := TurnAround(h, d, table, 1)
				if err != nil {
					t.Fatal(err)
				}
				if ta != want.TurnAround(1) {
					t.Errorf("%s rc=%s: TurnAround = %v, Schedule().TurnAround = %v",
						h.Name(), rr.name, ta, want.TurnAround(1))
				}
			}
		}
	}

	// A DAG with fewer edges than the RC has hosts never fills the table.
	chain := dag.MustGenerate(dag.GenSpec{
		Size: 6, CCR: 0.5, Parallelism: 0.5, Density: 0.5, Regularity: 0.5, MeanCost: 10,
	}, xrand.New(97))
	wide := platform.SubsetRC(p, sample(chain.NumEdges()+1, 98))
	s, err := newState(chain, wide)
	if err != nil {
		t.Fatal(err)
	}
	if s.pairTable() {
		t.Errorf("table filled for %d edges on %d hosts", chain.NumEdges(), wide.Size())
	}
	s.release()
}
