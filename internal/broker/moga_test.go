package broker

import (
	"context"
	"errors"
	"strings"
	"testing"

	"rsgen/internal/bind"
	"rsgen/internal/dag"
	"rsgen/internal/moga"
	"rsgen/internal/platform"
	"rsgen/internal/spec"
)

func mogaTestBroker(t *testing.T) (*Broker, *platform.Platform, *bind.Grid) {
	t.Helper()
	return newTestBroker(t, func(c *Config) {
		c.Moga = &moga.Config{PopSize: 16, Generations: 6, Seed: 11}
	})
}

func TestBackendsList(t *testing.T) {
	plain, _, _ := newTestBroker(t, nil)
	if got := plain.Backends(); len(got) != 3 || got[0] != "vgdl" || got[1] != "classad" || got[2] != "sword" {
		t.Errorf("Backends without moga = %v", got)
	}
	withMoga, _, _ := mogaTestBroker(t)
	if got := withMoga.Backends(); len(got) != 4 || got[3] != "moga" {
		t.Errorf("Backends with moga = %v", got)
	}
	// Unknown backends report the effective registry, moga included.
	_, err := withMoga.Select(context.Background(), Request{Dag: testDAG(t), Backends: []string{"nope"}})
	if err == nil {
		t.Fatal("unknown backend selected successfully")
	}
	if want := "classad, moga, sword, vgdl"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not list registered backends %q", err, want)
	}
}

// backend=moga must bind the knee point as a normal lease, and a second
// selection must honor the first lease's host exclusions (disjoint,
// full-size collection).
func TestMogaSelectHonorsExclusions(t *testing.T) {
	b, _, _ := mogaTestBroker(t)
	req := Request{Dag: testDAG(t), Backends: []string{"moga"}}
	first, err := b.Select(context.Background(), req)
	if err != nil {
		t.Fatalf("first Select: %v", err)
	}
	if first.Backend != "moga" {
		t.Fatalf("backend = %q, want moga", first.Backend)
	}
	if first.RC.Size() != first.Spec.RCSize {
		t.Fatalf("bound %d hosts, spec wants %d", first.RC.Size(), first.Spec.RCSize)
	}
	last := first.Trace[len(first.Trace)-1]
	if last.Stage != StageBound || last.FrontRank != 0 {
		t.Errorf("winning attempt = %+v, want bound at front rank 0", last)
	}
	held := make(map[platform.HostID]bool)
	for _, h := range first.RC.Hosts {
		held[h.ID] = true
	}
	second, err := b.Select(context.Background(), req)
	if err != nil {
		t.Fatalf("second Select: %v", err)
	}
	for _, h := range second.RC.Hosts {
		if held[h.ID] {
			t.Errorf("second selection reused leased host %d", h.ID)
		}
	}
}

// Rebinding a moga lease around stalled hosts must produce a replacement
// front (searched under the grown mask) whose bound solution avoids every
// stalled host, preserving the lease ID semantics of Store.Swap.
func TestMogaRebindAroundStalled(t *testing.T) {
	b, _, _ := mogaTestBroker(t)
	req := Request{Dag: testDAG(t), Backends: []string{"moga"}}
	out, err := b.Select(context.Background(), req)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	stalled := make(map[platform.HostID]bool)
	for _, h := range out.RC.Hosts {
		stalled[h.ID] = true
	}
	re, err := b.Rebind(context.Background(), out.Lease.ID, req, stalled)
	if err != nil {
		t.Fatalf("Rebind: %v", err)
	}
	if re.Backend != "moga" {
		t.Errorf("rebind backend = %q, want moga", re.Backend)
	}
	for _, h := range re.RC.Hosts {
		if stalled[h.ID] {
			t.Errorf("rebind reused stalled host %d", h.ID)
		}
	}
	if _, held := b.Lease(re.Lease.ID); !held {
		t.Error("replacement lease not held after rebind")
	}
}

// fakeFrontSelector is a RungSelector with a canned two-solution front that
// deliberately ignores the exclusion mask: the state a live system reaches
// when a bind failure teaches the stall probe nothing new (manager state
// raced). The broker must then walk to the next front rank instead of
// abandoning the rung or looping.
type fakeFrontSelector struct {
	front []*platform.ResourceCollection
}

func (s *fakeFrontSelector) Name() string { return "fake" }

func (s *fakeFrontSelector) Select(*spec.Specification, map[platform.HostID]bool) (*platform.ResourceCollection, error) {
	return s.front[0], nil
}

func (s *fakeFrontSelector) SelectFront(context.Context, *dag.DAG, *spec.Specification, map[platform.HostID]bool) ([]*platform.ResourceCollection, error) {
	return s.front, nil
}

func clusterRC(p *platform.Platform, cluster, n int) *platform.ResourceCollection {
	c := p.Clusters[cluster]
	hosts := make([]platform.Host, n)
	for i := 0; i < n; i++ {
		hosts[i] = p.Hosts[c.FirstHost+platform.HostID(i)]
	}
	return platform.SubsetRC(p, hosts)
}

// When binding the rank-0 solution keeps failing without growing the stall
// mask, the broker must advance to rank 1 of the selector's front (the
// next Pareto rung) and bind it, recording the walk in the trace.
func TestFrontWalkOnBindFailure(t *testing.T) {
	b, p, grid := newTestBroker(t, nil)
	fake := &fakeFrontSelector{front: []*platform.ResourceCollection{
		clusterRC(p, 0, 2),
		clusterRC(p, 1, 2),
	}}
	b.inv.selectors["fake"] = fake
	// Cluster 0 is stalled far past any wait bound; the fake selector keeps
	// proposing it at rank 0 regardless of the mask, so the second bind
	// failure yields grew == 0 and must trigger the front walk.
	grid.SetManager(bind.Manager{Cluster: 0, Discipline: bind.Reservation, NextSlot: 1e12})

	out, err := b.Select(context.Background(), Request{Dag: testDAG(t), Backends: []string{"fake"}})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	last := out.Trace[len(out.Trace)-1]
	if last.Stage != StageBound || last.FrontRank != 1 {
		t.Fatalf("winning attempt = %+v, want bound at front rank 1", last)
	}
	if got := out.RC.Hosts[0].Cluster; got != 1 {
		t.Errorf("bound cluster %d, want 1 (rank-1 solution)", got)
	}
	ranks := make([]int, len(out.Trace))
	for i, a := range out.Trace {
		ranks[i] = a.FrontRank
	}
	// First bind failure masks cluster 0 (rank stays 0), second teaches the
	// probe nothing (rank advances), rank 1 binds.
	want := []int{0, 0, 1}
	if len(ranks) != len(want) {
		t.Fatalf("trace ranks = %v, want %v", ranks, want)
	}
	for i := range want {
		if ranks[i] != want[i] {
			t.Fatalf("trace ranks = %v, want %v", ranks, want)
		}
	}
}

// An exhausted front ends the rung as a selection failure: the request
// terminates with the full walk in the trace instead of looping.
func TestFrontWalkExhaustion(t *testing.T) {
	b, p, grid := newTestBroker(t, nil)
	fake := &fakeFrontSelector{front: []*platform.ResourceCollection{
		clusterRC(p, 0, 2),
		clusterRC(p, 1, 2),
	}}
	b.inv.selectors["fake"] = fake
	grid.SetManager(bind.Manager{Cluster: 0, Discipline: bind.Reservation, NextSlot: 1e12})
	grid.SetManager(bind.Manager{Cluster: 1, Discipline: bind.Reservation, NextSlot: 1e12})

	_, err := b.Select(context.Background(), Request{Dag: testDAG(t), Backends: []string{"fake"}})
	var unsat *UnsatisfiableError
	if !errors.As(err, &unsat) {
		t.Fatalf("Select error = %v, want UnsatisfiableError", err)
	}
	last := unsat.Trace[len(unsat.Trace)-1]
	if last.Stage != StageSelect || last.FrontRank != 2 {
		t.Errorf("final attempt = %+v, want select failure at rank 2 (exhausted)", last)
	}
}

// maskBlindMoga is the real moga selector searching as if nothing were
// excluded, which lets a test hold the front still while binds fail: the
// state a live broker is in when a bind refusal teaches the probe nothing.
type maskBlindMoga struct{ *mogaSelector }

func (s maskBlindMoga) Name() string { return "blind" }

func (s maskBlindMoga) SelectFront(ctx context.Context, d *dag.DAG, sp *spec.Specification, _ map[platform.HostID]bool) ([]*platform.ResourceCollection, error) {
	return s.mogaSelector.SelectFront(ctx, d, sp, nil)
}

// A walk three or more ranks down the moga front is one search, not one per
// rank: the later ranks are indices into the front rank 0 came from, and each
// is the collection an independent search puts at that rank.
func TestFrontWalkSearchesOnce(t *testing.T) {
	stats := &moga.Stats{}
	b, p, grid := newTestBroker(t, func(c *Config) {
		c.Moga = &moga.Config{PopSize: 16, Generations: 6, Seed: 11, Stats: stats}
	})
	real := b.inv.selectors["moga"].(*mogaSelector)
	b.inv.selectors["blind"] = maskBlindMoga{real}
	req := Request{Dag: testDAG(t), Backends: []string{"blind"}}
	ladder, err := b.ladder(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := moga.Search(context.Background(), moga.Problem{Platform: p, Spec: ladder[0], Dag: req.Dag}, real.cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The walk's target is the first rank from 3 on that avoids some
	// cluster of every earlier rank. Those clusters are stalled, and
	// reported as already known stalled, so the earlier ranks' binds fail
	// and teach the probe nothing while the target's succeeds.
	clusters := func(rank int) map[int]bool {
		out := map[int]bool{}
		for _, id := range res.Front[rank].Hosts {
			out[p.Hosts[id].Cluster] = true
		}
		return out
	}
	target, stall := 0, map[int]bool{}
search:
	for target = 3; target < len(res.Front); target++ {
		keep := clusters(target)
		clear(stall)
		for r := 0; r < target; r++ {
			avoided := false
			for c := range clusters(r) {
				if !keep[c] {
					stall[c], avoided = true, true
				}
			}
			if !avoided {
				continue search
			}
		}
		break
	}
	if target == len(res.Front) {
		t.Fatalf("no rank of this %d-solution front can be walked to: the instance no longer forces a walk", len(res.Front))
	}
	known := map[platform.HostID]bool{}
	for c := range stall {
		grid.SetManager(bind.Manager{Cluster: c, Discipline: bind.Reservation, NextSlot: 1e12})
		for i := 0; i < p.Clusters[c].NumHosts; i++ {
			known[p.Clusters[c].FirstHost+platform.HostID(i)] = true
		}
	}
	b.SetExclusionProvider(func() map[platform.HostID]bool { return known })

	before := stats.Searches()
	out, err := b.Select(context.Background(), req)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if got := stats.Searches() - before; got != 1 {
		t.Errorf("walk to rank %d ran %d searches, want 1", target, got)
	}
	if len(out.Trace) != target+1 {
		t.Fatalf("trace = %+v, want one attempt per rank 0..%d", out.Trace, target)
	}
	for r, att := range out.Trace {
		wantStage := StageBind
		if r == target {
			wantStage = StageBound
		}
		if att.FrontRank != r || att.Stage != wantStage {
			t.Errorf("attempt %d = rank %d stage %s, want rank %d stage %s", r, att.FrontRank, att.Stage, r, wantStage)
		}
	}
	for i, h := range out.RC.Hosts {
		if h.ID != res.Front[target].Hosts[i] {
			t.Fatalf("bound hosts %v, want rank %d of an independent search %v", out.RC.Hosts, target, res.Front[target].Hosts)
		}
	}
	front, err := real.SelectFront(context.Background(), req.Dag, ladder[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	for r, rc := range front {
		for i, h := range rc.Hosts {
			if h.ID != res.Front[r].Hosts[i] {
				t.Fatalf("SelectFront rank %d = %v, search rank %d = %v", r, rc.Hosts, r, res.Front[r].Hosts)
			}
		}
	}
}
