package eval

import (
	"container/list"
	"math"
	"sync"
	"sync/atomic"

	"rsgen/internal/sched"
)

// Key identifies a memoizable evaluation point: Dags folds the dag.Key of
// each DAG instance, in order, and the other fields are every knob that
// affects the result. A hit is served on key equality alone. The serving
// path's alternatives sweeps put client DAGs into DefaultCache, which is why
// the DAGs enter through their per-process seeded Key, which no client can
// aim at another DAG's entry, and not through their Fingerprint. Points with
// an explicit RC have no stable identity and are never cached.
type Key struct {
	Dags          uint64
	Size          int
	Heuristic     sched.Heuristic // the value: Random{Seed: 1} and {Seed: 2} differ
	ClockGHz      uint64          // float bits
	Heterogeneity uint64
	BandwidthMbps uint64
	SCR           uint64
	Seed          uint64
}

// keyOf builds the cache key for a point; ok is false for uncacheable
// points (explicit RC).
func keyOf(p Point) (Key, bool) {
	if p.RC != nil {
		return Key{}, false
	}
	p = p.withDefaults()
	h := uint64(fnvOffset)
	h = mix64(h, uint64(len(p.Dags)))
	for _, d := range p.Dags {
		h = mix64(h, d.Key())
	}
	return Key{
		Dags:          h,
		Size:          p.Size,
		Heuristic:     p.Heuristic,
		ClockGHz:      math.Float64bits(p.ClockGHz),
		Heterogeneity: math.Float64bits(p.Heterogeneity),
		BandwidthMbps: math.Float64bits(p.BandwidthMbps),
		SCR:           math.Float64bits(p.SCR),
		Seed:          p.Seed,
	}, true
}

const (
	fnvOffset = 0xCBF29CE484222325
	fnvPrime  = 0x100000001B3
)

// mix64 folds v into h, FNV-1a style, one byte at a time.
func mix64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v >> (8 * i) & 0xFF)) * fnvPrime
	}
	return h
}

// DefaultCacheEntries bounds DefaultCache. One entry is a Key + Result
// (~120 B) plus its recency link, so the default cap costs a few MB.
const DefaultCacheEntries = 1 << 16

// DefaultCache is the process-wide memoization cache shared by every
// evaluation path that does not bring its own. Sharing is what lets the
// validation search hit the sweep's sizes and the threshold family re-read
// its curves for free.
var DefaultCache = NewLRU[Key, Result](DefaultCacheEntries)

// LRU is a bounded memo with exact least-recently-used eviction, safe for
// concurrent use. It backs both memos of the repository: DefaultCache, whose
// hits are exactly what Evaluate returned, and the service's response cache,
// whose hits are the exact bytes written to the first client — so a hit
// never changes observable output, only wall-clock time. Stored values are
// shared with every reader and must not be mutated.
//
// One mutex guards it: Get refreshes recency, so it writes too. A lookup is
// short next to the evaluation it saves, and the experiment suite takes the
// same wall time and CPU under one lock as under 64 stripes (DESIGN.md
// "Evaluation memo").
type LRU[K comparable, V any] struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[K]*list.Element

	evictions atomic.Uint64 // entries dropped by the capacity bound
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

// NewLRU returns an empty LRU holding at most max entries (at least one).
func NewLRU[K comparable, V any](max int) *LRU[K, V] {
	if max < 1 {
		max = 1
	}
	return &LRU[K, V]{max: max, ll: list.New(), items: make(map[K]*list.Element)}
}

// Get returns the value stored under key and refreshes its recency.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// Put stores val under key as the most recently used entry, replacing the
// value of an existing key and otherwise evicting the least recently used
// entry at capacity.
func (c *LRU[K, V]) Put(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry[K, V]).val = val
		return
	}
	for c.ll.Len() >= c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[K, V]).key)
		c.evictions.Add(1)
	}
	c.items[key] = c.ll.PushFront(&lruEntry[K, V]{key: key, val: val})
}

// Evictions returns the cumulative number of capacity evictions.
func (c *LRU[K, V]) Evictions() uint64 { return c.evictions.Load() }

// Len returns the number of stored entries.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Clear drops every entry; the eviction count is kept.
func (c *LRU[K, V]) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.items)
}
