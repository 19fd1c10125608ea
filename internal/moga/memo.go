package moga

import (
	"context"
	"math"
	"slices"
	"sync"

	"rsgen/internal/dag"
	"rsgen/internal/platform"
)

// memoEntries is how many completed searches a Memo keeps. A Memo serves
// the advise→select handoff: the select that binds the front an advise has
// just shown repeats that advise's search. Only the few searches in flight
// between such pairs need to be held, not a corpus of DAGs, so the capacity
// is a small constant rather than a knob.
const memoEntries = 8

// Memo remembers the last few completed searches, so a search whose inputs
// equal an earlier one's is answered with that search's Result instead of
// being run again. The search is deterministic in its inputs, so the answer
// is the Result a fresh search would return. The match is exact: the memo
// compares every input the search reads, DAG content included, and never
// trusts a hash alone. A Memo is safe for concurrent use; the zero value is
// empty, and a nil *Memo remembers nothing.
type Memo struct {
	mu   sync.Mutex
	ring [memoEntries]memoEntry
	next int // the slot the next completed search overwrites
}

type memoEntry struct {
	in  memoKey
	res *Result
}

// memoKey is everything a search's Result is a function of: the platform,
// the hosts the mask and the memory floor leave eligible, the two other
// specification fields the search reads, the budget and seed after
// withDefaults, and the DAG. Workers and Stats are left out because they
// never change the Result (FuzzSearchWorkers).
type memoKey struct {
	p         *platform.Platform
	elig      hostSet
	rcSize    int
	heuristic string
	pop, gens int
	maxEvals  int
	seed      uint64
	dag       *dag.DAG
}

func newMemoKey(pr Problem, cfg Config, elig hostSet) memoKey {
	return memoKey{
		p: pr.Platform, elig: elig, rcSize: pr.Spec.RCSize, heuristic: pr.Spec.Heuristic,
		pop: cfg.PopSize, gens: cfg.Generations, maxEvals: cfg.MaxEvaluations, seed: cfg.Seed,
		dag: pr.Dag,
	}
}

func (k *memoKey) equal(o *memoKey) bool {
	return k.p == o.p && k.rcSize == o.rcSize && k.heuristic == o.heuristic &&
		k.pop == o.pop && k.gens == o.gens && k.maxEvals == o.maxEvals && k.seed == o.seed &&
		slices.Equal(k.elig, o.elig) && sameDAG(k.dag, o.dag)
}

// sameDAG reports whether a and b have the same tasks and edges, costs
// compared bit for bit: the content Fingerprint hashes. The fingerprint only
// rules pairs out. The memo is shared by every client and its answers bind
// leases, so a crafted 64-bit collision must not be served another DAG's
// front.
func sameDAG(a, b *dag.DAG) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.Fingerprint() != b.Fingerprint() {
		return false
	}
	return slices.EqualFunc(a.Tasks(), b.Tasks(), func(x, y dag.Task) bool {
		return x.ID == y.ID && x.Name == y.Name && math.Float64bits(x.Cost) == math.Float64bits(y.Cost)
	}) && slices.EqualFunc(a.Edges(), b.Edges(), func(x, y dag.Edge) bool {
		return x.From == y.From && x.To == y.To && math.Float64bits(x.Cost) == math.Float64bits(y.Cost)
	})
}

// Search is the package's Search answered from the memo when a completed
// search had the same inputs; hit reports that it was. A hit counts in
// cfg.Stats as a memo hit, not as a search. Only completed searches are
// remembered: an error, the context's included, is never served later. The
// returned Result may be shared with other callers and must not be
// modified.
func (m *Memo) Search(ctx context.Context, pr Problem, cfg Config) (res *Result, hit bool, err error) {
	cfg = cfg.withDefaults()
	elig, err := eligible(pr)
	if err != nil {
		return nil, false, err
	}
	key := newMemoKey(pr, cfg, elig)
	if res := m.lookup(&key); res != nil {
		// A fresh search checks the context before its first generation.
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		if cfg.Stats != nil {
			cfg.Stats.hit(res)
		}
		return res, true, nil
	}
	res, err = search(ctx, pr, cfg, elig)
	if err != nil {
		return nil, false, err
	}
	m.store(&key, res)
	return res, false, nil
}

func (m *Memo) lookup(k *memoKey) *Result {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.find(k)
}

// store files a completed search in the oldest slot, unless a concurrent
// search with the same inputs already filed it.
func (m *Memo) store(k *memoKey, res *Result) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.find(k) != nil {
		return
	}
	m.ring[m.next] = memoEntry{in: *k, res: res}
	m.next = (m.next + 1) % memoEntries
}

// find returns the Result filed under k, or nil; m.mu must be held.
func (m *Memo) find(k *memoKey) *Result {
	for i := range m.ring {
		if e := &m.ring[i]; e.res != nil && e.in.equal(k) {
			return e.res
		}
	}
	return nil
}
