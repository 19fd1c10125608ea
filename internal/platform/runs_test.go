package platform

import (
	"strings"
	"sync"
	"testing"

	"rsgen/internal/xrand"
)

// A platform whose cluster spans disagree with its hosts' Cluster fields
// must not validate: span-based and field-based readers of cluster
// membership would otherwise see different clusters.
func TestValidateRejectsSpanFieldDisagreement(t *testing.T) {
	build := func() *Platform {
		p := MustGenerate(GenSpec{Clusters: 4, Year: 2006}, xrand.New(3))
		return &Platform{Hosts: append([]Host(nil), p.Hosts...), Clusters: append([]Cluster(nil), p.Clusters...), Topo: p.Topo}
	}
	if err := build().Validate(); err != nil {
		t.Fatalf("generated platform: %v", err)
	}

	// A host inside cluster 0's span that names cluster 1.
	p := build()
	p.Hosts[0].Cluster = 1
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "names cluster 1") {
		t.Errorf("host naming another cluster: %v", err)
	}

	// Two spans swapped without touching the hosts: sizes still sum to the
	// host count, every host still names an existing cluster.
	p = build()
	p.Clusters[0].FirstHost, p.Clusters[1].FirstHost = p.Clusters[1].FirstHost, p.Clusters[0].FirstHost
	if err := p.Validate(); err == nil {
		t.Error("swapped spans validated")
	}

	// A span running off the host table.
	p = build()
	p.Clusters[3].FirstHost++
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "spans hosts") {
		t.Errorf("span past the host table: %v", err)
	}
}

func TestRunsOnePerHomogeneousCluster(t *testing.T) {
	p := MustGenerate(GenSpec{Clusters: 50, Year: 2007}, xrand.New(5))
	rt := p.Runs()
	if rt != p.Runs() {
		t.Error("run table rebuilt on second call")
	}
	if rt.Len() != len(p.Clusters) {
		t.Fatalf("%d runs for %d homogeneous clusters", rt.Len(), len(p.Clusters))
	}
	for _, c := range p.Clusters {
		runs, base := rt.Cluster(c.ID)
		want := Run{First: c.FirstHost, N: c.NumHosts, ClockGHz: c.ClockGHz, MemoryMB: c.MemoryMB}
		if len(runs) != 1 || runs[0] != want || base != c.ID {
			t.Fatalf("cluster %d: runs %+v at %d, want [%+v] at %d", c.ID, runs, base, want, c.ID)
		}
	}
}

// Runs partition every cluster's hosts into maximal same-attribute
// stretches, in host-ID order, whatever order the spans are laid out in.
func TestRunsSplitMixedClusters(t *testing.T) {
	host := func(id, cluster int, clock float64, mem int) Host {
		return Host{ID: HostID(id), Cluster: cluster, ClockGHz: clock, MemoryMB: mem}
	}
	p := &Platform{
		Clusters: []Cluster{
			{ID: 0, NumHosts: 2, FirstHost: 5, ClockGHz: 3, IntraMbps: 1000, UplinkMbps: 155},
			{ID: 1, NumHosts: 5, FirstHost: 0, ClockGHz: 2, IntraMbps: 1000, UplinkMbps: 155},
		},
		Hosts: []Host{
			host(0, 1, 2.0, 512), host(1, 1, 2.0, 512), host(2, 1, 2.0, 1024), host(3, 1, 2.4, 1024), host(4, 1, 2.0, 512),
			host(5, 0, 3.0, 2048), host(6, 0, 3.0, 2048),
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	rt := p.Runs()
	got0, base0 := rt.Cluster(0)
	got1, base1 := rt.Cluster(1)
	want0 := []Run{{5, 2, 3.0, 2048}}
	want1 := []Run{{0, 2, 2.0, 512}, {2, 1, 2.0, 1024}, {3, 1, 2.4, 1024}, {4, 1, 2.0, 512}}
	if len(got0) != 1 || got0[0] != want0[0] || base0 != 0 {
		t.Errorf("cluster 0: %+v at %d", got0, base0)
	}
	if len(got1) != len(want1) || base1 != 1 {
		t.Fatalf("cluster 1: %+v at %d", got1, base1)
	}
	for i := range want1 {
		if got1[i] != want1[i] {
			t.Errorf("cluster 1 run %d: %+v, want %+v", i, got1[i], want1[i])
		}
	}
}

// First use from several goroutines at once publishes one table (run under
// -race: the platform is shared by every request the service handles).
func TestRunsConcurrentFirstUse(t *testing.T) {
	p := MustGenerate(GenSpec{Clusters: 30, Year: 2007}, xrand.New(9))
	tables := make([]*RunTable, 8)
	var wg sync.WaitGroup
	for i := range tables {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tables[i] = p.Runs()
		}(i)
	}
	wg.Wait()
	for _, rt := range tables {
		if rt != tables[0] || rt.Len() != 30 {
			t.Fatalf("goroutines saw different run tables")
		}
	}
}
