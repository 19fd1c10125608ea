package broker

import (
	"context"
	"fmt"
	"sort"

	"rsgen/internal/dag"
	"rsgen/internal/moga"
	"rsgen/internal/platform"
	"rsgen/internal/spec"
)

// RungSelector is a Selector whose fallback ladder is its own ranked
// solution list — for moga, the knee-ranked Pareto front — rather than the
// clock-degraded specs of the request ladder. The broker binds rank 0 (the
// knee point) first and, when binding fails without teaching the stall probe
// anything new, walks to the next rank instead of abandoning the rung.
type RungSelector interface {
	Selector
	// SelectFront resolves the specification into every ranked solution,
	// best first. The DAG may be nil (the plain Selector path). Results are
	// deterministic in (d, sp, excluded), which is what lets the broker
	// walk one front by index instead of selecting again per rank.
	SelectFront(ctx context.Context, d *dag.DAG, sp *spec.Specification, excluded map[platform.HostID]bool) ([]*platform.ResourceCollection, error)
}

// rungWalk resolves the selections of one (rung, backend) attempt loop. A
// plain Selector selects afresh on every pick. A RungSelector's front is
// kept while the walk only advances in rank — it advances exactly when a
// bind failure changed nothing the front depends on, so rank r+1 is an
// index into the front rank r came from — and dropped by reselect, which
// the loop calls whenever the mask it selects under may have changed.
type rungWalk struct {
	sel   Selector
	rank  int
	front []*platform.ResourceCollection
}

func (w *rungWalk) pick(ctx context.Context, d *dag.DAG, sp *spec.Specification, excluded map[platform.HostID]bool) (*platform.ResourceCollection, error) {
	rs, ok := w.sel.(RungSelector)
	if !ok {
		return w.sel.Select(sp, excluded)
	}
	if w.front == nil {
		front, err := rs.SelectFront(ctx, d, sp, excluded)
		if err != nil {
			return nil, err
		}
		w.front = front
	}
	if w.rank >= len(w.front) {
		return nil, fmt.Errorf("%s: front exhausted (%d solutions, rank %d)", w.sel.Name(), len(w.front), w.rank)
	}
	return w.front[w.rank], nil
}

// advance moves to the next rank of the current front; false means the
// selector has no front to walk.
func (w *rungWalk) advance() bool {
	if _, ok := w.sel.(RungSelector); !ok {
		return false
	}
	w.rank++
	return true
}

func (w *rungWalk) reselect() { w.front = nil }

// mogaSelector adapts internal/moga's Pareto search to the Selector
// contract: one deterministic search per SelectFront call.
type mogaSelector struct {
	p   *platform.Platform
	cfg moga.Config
}

func (s *mogaSelector) Name() string { return "moga" }

func (s *mogaSelector) Select(sp *spec.Specification, excluded map[platform.HostID]bool) (*platform.ResourceCollection, error) {
	front, err := s.SelectFront(context.Background(), nil, sp, excluded)
	if err != nil {
		return nil, err
	}
	return front[0], nil
}

func (s *mogaSelector) SelectFront(ctx context.Context, d *dag.DAG, sp *spec.Specification, excluded map[platform.HostID]bool) ([]*platform.ResourceCollection, error) {
	res, err := moga.Search(ctx, moga.Problem{
		Platform: s.p,
		Spec:     sp,
		Dag:      d,
		Excluded: excluded,
	}, s.cfg)
	if err != nil {
		return nil, fmt.Errorf("moga: %w", err)
	}
	front := make([]*platform.ResourceCollection, len(res.Front))
	for r, sol := range res.Front {
		// The Selector contract forbids short collections: a masked-down
		// universe must fail the rung, not under-deliver.
		if len(sol.Hosts) < sp.RCSize {
			return nil, fmt.Errorf("moga: only %d eligible hosts for %d requested", len(sol.Hosts), sp.RCSize)
		}
		hosts := make([]platform.Host, len(sol.Hosts))
		for i, id := range sol.Hosts {
			hosts[i] = s.p.Hosts[id]
		}
		front[r] = platform.SubsetRC(s.p, hosts)
	}
	return front, nil
}

// knownBackends lists an inventory's registered backend names, sorted, for
// error messages.
func (inv *inventory) knownBackends() []string {
	names := make([]string, 0, len(inv.selectors))
	for n := range inv.selectors {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
