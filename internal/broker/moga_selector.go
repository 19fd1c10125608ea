package broker

import (
	"context"
	"errors"
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
	// walk one front by index instead of selecting again per rank, and what
	// lets moga answer from its memo the front an advise just searched: hit
	// reports such an answer.
	SelectFront(ctx context.Context, d *dag.DAG, sp *spec.Specification, excluded map[platform.HostID]bool) (front []*platform.ResourceCollection, hit bool, err error)
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

// pick returns the selection at the walk's rank; hit reports that it took a
// new front, and that the selector answered it from its memo.
func (w *rungWalk) pick(ctx context.Context, d *dag.DAG, sp *spec.Specification, excluded map[platform.HostID]bool) (rc *platform.ResourceCollection, hit bool, err error) {
	rs, ok := w.sel.(RungSelector)
	if !ok {
		rc, err = w.sel.Select(sp, excluded)
		return rc, false, err
	}
	if w.front == nil {
		if w.front, hit, err = rs.SelectFront(ctx, d, sp, excluded); err != nil {
			return nil, false, err
		}
	}
	if w.rank >= len(w.front) {
		return nil, hit, fmt.Errorf("%s: front exhausted (%d solutions, rank %d)", w.sel.Name(), len(w.front), w.rank)
	}
	return w.front[w.rank], hit, nil
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
// contract: one deterministic search per SelectFront call, answered from
// memo when Broker.Advise or an earlier selection already ran it. The memo
// belongs to the inventory: a new registration builds a new selector, so no
// search outlives the platform it ran on.
type mogaSelector struct {
	p    *platform.Platform
	cfg  moga.Config
	memo moga.Memo
}

func (s *mogaSelector) Name() string { return "moga" }

func (s *mogaSelector) Select(sp *spec.Specification, excluded map[platform.HostID]bool) (*platform.ResourceCollection, error) {
	front, _, err := s.SelectFront(context.Background(), nil, sp, excluded)
	if err != nil {
		return nil, err
	}
	return front[0], nil
}

// search is the one moga search entry point of an inventory: selections and
// advice both go through its memo.
func (s *mogaSelector) search(ctx context.Context, d *dag.DAG, sp *spec.Specification, excluded map[platform.HostID]bool, cfg moga.Config) (*moga.Result, bool, error) {
	return s.memo.Search(ctx, moga.Problem{Platform: s.p, Spec: sp, Dag: d, Excluded: excluded}, cfg)
}

func (s *mogaSelector) SelectFront(ctx context.Context, d *dag.DAG, sp *spec.Specification, excluded map[platform.HostID]bool) ([]*platform.ResourceCollection, bool, error) {
	res, hit, err := s.search(ctx, d, sp, excluded, s.cfg)
	if err != nil {
		return nil, false, fmt.Errorf("moga: %w", err)
	}
	front := make([]*platform.ResourceCollection, len(res.Front))
	for r, sol := range res.Front {
		// The Selector contract forbids short collections: a masked-down
		// universe must fail the rung, not under-deliver.
		if len(sol.Hosts) < sp.RCSize {
			return nil, false, fmt.Errorf("moga: only %d eligible hosts for %d requested", len(sol.Hosts), sp.RCSize)
		}
		hosts := make([]platform.Host, len(sol.Hosts))
		for i, id := range sol.Hosts {
			hosts[i] = s.p.Hosts[id]
		}
		front[r] = platform.SubsetRC(s.p, hosts)
	}
	return front, hit, nil
}

// Advise runs the search a backend=moga selection of the same DAG,
// specification and mask would run under cfg, without taking a lease. It
// searches the inventory registered now through that inventory's memo, so a
// selection that follows under the broker's Config.Moga budget binds this
// front's rank 0 without searching again, unless a lease, the inventory or
// the budget changed in between. hit reports an answer from the memo; the
// Result is shared and read-only.
func (b *Broker) Advise(ctx context.Context, d *dag.DAG, sp *spec.Specification, excluded map[platform.HostID]bool, cfg moga.Config) (res *moga.Result, hit bool, err error) {
	b.invMu.RLock()
	inv := b.inv
	b.invMu.RUnlock()
	if inv == nil {
		return nil, false, ErrNoInventory
	}
	sel, ok := inv.selectors["moga"].(*mogaSelector)
	if !ok {
		return nil, false, errors.New("broker: moga backend not registered (Config.Moga)")
	}
	return sel.search(ctx, d, sp, excluded, cfg)
}

// memoTag is the span detail suffix of a front answered from the memo.
func memoTag(hit bool) string {
	if hit {
		return " memo=hit"
	}
	return ""
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
