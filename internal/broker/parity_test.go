package broker

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"rsgen/internal/bind"
	"rsgen/internal/moga"
	"rsgen/internal/platform"
	"rsgen/internal/spec"
	"rsgen/internal/xrand"
)

// TestExclusionParity checks the satellite contract behind the Selector
// interface: every backend honors host-level exclusion the same way. For
// each backend, a first selection's hosts are fed back as the exclusion
// mask; the second selection must return a full-size, disjoint collection.
func TestExclusionParity(t *testing.T) {
	gen, err := testGenerator()
	if err != nil {
		t.Fatalf("training test generator: %v", err)
	}
	// A roomy platform so a second disjoint collection always exists.
	p := platform.MustGenerate(platform.GenSpec{Clusters: 24, Year: 2006}, xrand.New(5))
	sels := newSelectors(p, 1, &moga.Config{})
	sp, err := gen.Generate(testDAG(t), spec.Options{ClockGHz: 2.0})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}

	for _, name := range append(append([]string(nil), BackendNames...), "moga") {
		t.Run(name, func(t *testing.T) {
			sel, ok := sels[name]
			if !ok {
				t.Fatalf("backend %q missing from the registry", name)
			}
			if sel.Name() != name {
				t.Errorf("Name() = %q, want %q", sel.Name(), name)
			}
			first, err := sel.Select(sp, nil)
			if err != nil {
				t.Fatalf("unmasked Select: %v", err)
			}
			if first.Size() != sp.RCSize {
				t.Fatalf("unmasked Select returned %d hosts, want %d", first.Size(), sp.RCSize)
			}
			mask := make(map[platform.HostID]bool, first.Size())
			for _, h := range first.Hosts {
				mask[h.ID] = true
			}
			second, err := sel.Select(sp, mask)
			if err != nil {
				t.Fatalf("masked Select: %v", err)
			}
			if second.Size() != sp.RCSize {
				t.Fatalf("masked Select returned %d hosts, want %d", second.Size(), sp.RCSize)
			}
			for _, h := range second.Hosts {
				if mask[h.ID] {
					t.Errorf("masked Select returned excluded host %d", h.ID)
				}
			}
		})
	}
}

// TestExclusionExhaustsPool checks the other half of parity: when the mask
// covers every eligible host, all backends fail instead of returning a
// short or overlapping collection.
func TestExclusionExhaustsPool(t *testing.T) {
	gen, err := testGenerator()
	if err != nil {
		t.Fatalf("training test generator: %v", err)
	}
	p := platform.MustGenerate(platform.GenSpec{Clusters: 8, Year: 2006}, xrand.New(5))
	sels := newSelectors(p, 1, &moga.Config{})
	sp, err := gen.Generate(testDAG(t), spec.Options{ClockGHz: 2.0})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	all := make(map[platform.HostID]bool, len(p.Hosts))
	for _, h := range p.Hosts {
		all[h.ID] = true
	}
	for _, name := range append(append([]string(nil), BackendNames...), "moga") {
		t.Run(name, func(t *testing.T) {
			if _, err := sels[name].Select(sp, all); err == nil {
				t.Error("selection succeeded with every host excluded")
			}
		})
	}
}

// TestSelectRebindParity drives the loop's three restart paths through both
// entry points from one table. Select and Rebind are one walk, so from the
// same universe — the rebind's own lease counts as free, which the Select
// side reproduces by releasing it first — they must record the same
// attempts, leave the same hosts masked, and a rebind that fails must leave
// its lease exactly as it found it.
func TestSelectRebindParity(t *testing.T) {
	// Every scenario's backend ignores the exclusion mask and proposes the
	// first clusters the origin lease does not touch.
	install := func(b *Broker, p *platform.Platform, origin Lease, n int) []int {
		own := map[int]bool{}
		for _, h := range origin.Hosts {
			own[p.Host(h).Cluster] = true
		}
		var free []int
		var front []*platform.ResourceCollection
		for c := 0; len(free) < n; c++ {
			if !own[c] {
				free = append(free, c)
				front = append(front, clusterRC(p, c, 2))
			}
		}
		b.inv.selectors["fake"] = &fakeFrontSelector{front: front}
		return free
	}
	stall := func(grid *bind.Grid, cluster int) {
		grid.SetManager(bind.Manager{Cluster: cluster, Discipline: bind.Reservation, NextSlot: 1e12})
	}
	for _, tc := range []struct {
		name   string
		req    Request
		setup  func(t *testing.T, b *Broker, p *platform.Platform, grid *bind.Grid, origin Lease)
		stages []string
		ranks  []int
	}{{
		// Rung 0 binds nowhere: each refusal masks the fast cluster it
		// probed and re-selects, until no 3.0 GHz host is left and rung 1
		// wins.
		name: "bind refusal grows the stall mask",
		req:  Request{Options: spec.Options{ClockGHz: 3.0}, AlternativeClocks: []float64{2.4}, AlternativeTolerance: 1.0},
		setup: func(_ *testing.T, _ *Broker, p *platform.Platform, grid *bind.Grid, _ Lease) {
			for _, c := range p.Clusters {
				if c.ClockGHz >= 3.0 {
					stall(grid, c.ID)
				}
			}
		},
		stages: []string{StageBind, StageBind, StageSelect, StageBound},
		ranks:  []int{0, 0, 0, 0},
	}, {
		// A foreign session holds the proposed hosts: every commit loses
		// the race until leaseAttempts gives the rung up.
		name: "commit race lost to a concurrent holder",
		req:  Request{Backends: []string{"fake"}},
		setup: func(t *testing.T, b *Broker, p *platform.Platform, _ *bind.Grid, origin Lease) {
			free := install(b, p, origin, 1)
			if _, err := b.store.Acquire(clusterRC(p, free[0], 2).Hosts, time.Hour, b.cfg.Now(), LeaseMeta{}); err != nil {
				t.Fatalf("foreign Acquire: %v", err)
			}
		},
		stages: []string{StageLease, StageLease, StageLease},
		ranks:  []int{0, 0, 0},
	}, {
		// Rank 0 sits on a stalled cluster and is proposed again after the
		// mask grew: the second refusal teaches nothing, rank 1 binds.
		name: "front walk after a refusal that taught nothing",
		req:  Request{Backends: []string{"fake"}},
		setup: func(_ *testing.T, b *Broker, p *platform.Platform, grid *bind.Grid, origin Lease) {
			stall(grid, install(b, p, origin, 2)[0])
		},
		stages: []string{StageBind, StageBind, StageBound},
		ranks:  []int{0, 0, 1},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			type result struct {
				trace []RungAttempt
				mask  map[platform.HostID]bool
			}
			run := func(rebind bool) result {
				b, p, grid := newTestBroker(t, func(c *Config) { c.BindBackoff = time.Millisecond })
				first, err := b.Select(context.Background(), Request{Dag: testDAG(t), Options: spec.Options{ClockGHz: 2.0}})
				if err != nil {
					t.Fatalf("origin Select: %v", err)
				}
				origin, _ := b.Lease(first.Lease.ID)
				tc.setup(t, b, p, grid, origin)
				req := tc.req
				req.Dag = testDAG(t)

				var out *Outcome
				if rebind {
					out, err = b.Rebind(context.Background(), origin.ID, req, nil)
				} else {
					b.Release(origin.ID)
					out, err = b.Select(context.Background(), req)
				}
				var trace []RungAttempt
				var unsat *UnsatisfiableError
				switch {
				case err == nil:
					trace = out.Trace
				case errors.As(err, &unsat):
					trace = unsat.Trace
				default:
					t.Fatalf("rebind=%v: %v", rebind, err)
				}
				bound := tc.stages[len(tc.stages)-1] == StageBound
				if (err == nil) != bound {
					t.Fatalf("rebind=%v: err = %v, want bound=%v", rebind, err, bound)
				}
				mask := b.SelectionMask()
				if rebind && !bound {
					after, held := b.Lease(origin.ID)
					if !held || !reflect.DeepEqual(after, origin) {
						t.Errorf("failed rebind left lease %+v (held=%v), want it untouched: %+v", after, held, origin)
					}
					for _, h := range origin.Hosts {
						delete(mask, h) // still held, as it should be; the Select side released it
					}
				}
				return result{trace, mask}
			}
			sel, reb := run(false), run(true)
			if len(sel.trace) != len(tc.stages) {
				t.Fatalf("Select trace %+v, want stages %v", sel.trace, tc.stages)
			}
			for i, a := range sel.trace {
				if a.Stage != tc.stages[i] || a.FrontRank != tc.ranks[i] {
					t.Errorf("Select attempt %d = %s at rank %d, want %s at rank %d", i, a.Stage, a.FrontRank, tc.stages[i], tc.ranks[i])
				}
			}
			if !reflect.DeepEqual(sel.trace, reb.trace) {
				t.Errorf("traces differ:\nSelect %+v\nRebind %+v", sel.trace, reb.trace)
			}
			if !reflect.DeepEqual(sel.mask, reb.mask) {
				t.Errorf("final masks differ:\nSelect %v\nRebind %v", sel.mask, reb.mask)
			}
		})
	}
}
