package eval

import (
	"math"
	"sync"

	"rsgen/internal/sched"
)

// Key identifies a memoizable evaluation point: the combined dag.Key of the
// DAG instances plus every knob that affects the result. A hit is served on
// key equality alone, and the serving path's alternatives sweeps put client
// DAGs into DefaultCache, so the DAGs enter through their seeded Key, which
// no client can aim at another DAG's entry, not their Fingerprint. Points
// with an explicit RC have no stable identity and are never cached.
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
// (~120 B), so the default cap costs at most a few MB.
const DefaultCacheEntries = 1 << 16

// DefaultCache is the process-wide memoization cache shared by every
// evaluation path that does not bring its own. Sharing is what lets the
// validation search hit the sweep's sizes and the threshold family re-read
// its curves for free.
var DefaultCache = NewCache(DefaultCacheEntries)

// Cache memoizes evaluation results. It is safe for concurrent use. A hit
// returns the exact Result a previous Evaluate produced, so caching never
// changes observable output — only wall-clock time.
//
// The cache is striped into shards keyed by a hash of the Key, so parallel
// evaluation workers (internal/eval's pool fans out across GOMAXPROCS) do
// not serialize on a single lock. Small caches use a single shard so the
// capacity bound stays exact; large caches split the capacity evenly and
// enforce it per shard, which preserves the global bound to within the
// arbitrary-eviction semantics already documented on Put.
type Cache struct {
	shards []cacheShard
	mask   uint64

	// flight tracks cacheable points currently being evaluated so
	// concurrent identical requests wait for the leader's result instead
	// of recomputing it — the service-layer single-flight discipline
	// pushed down to the evaluation engine, where concurrent sweeps from
	// different requests overlap on shared points.
	flight Flight[Key, Result]
}

type cacheShard struct {
	mu  sync.RWMutex
	max int
	m   map[Key]Result
	_   [24]byte // soften false sharing between adjacent shards
}

// minEntriesPerShard is the smallest per-shard capacity worth striping for;
// below it lock contention is cheaper than a sloppy capacity bound.
const minEntriesPerShard = 1 << 10

// NewCache returns a cache bounded to max entries (max <= 0 uses
// DefaultCacheEntries). At capacity an arbitrary entry is evicted per
// insert.
func NewCache(max int) *Cache {
	if max <= 0 {
		max = DefaultCacheEntries
	}
	n := 1
	for n < 64 && max/(n*2) >= minEntriesPerShard {
		n *= 2
	}
	c := &Cache{shards: make([]cacheShard, n), mask: uint64(n - 1)}
	for i := range c.shards {
		per := max / n
		if i < max%n {
			per++
		}
		c.shards[i] = cacheShard{max: per, m: make(map[Key]Result)}
	}
	return c
}

// shardOf hashes every field of the key down to a shard.
func (c *Cache) shardOf(key Key) *cacheShard {
	h := mix64(uint64(fnvOffset), key.Dags)
	h = mix64(h, uint64(key.Size))
	if key.Heuristic != nil {
		name := key.Heuristic.Name()
		for i := 0; i < len(name); i++ {
			h = (h ^ uint64(name[i])) * fnvPrime
		}
	}
	h = mix64(h, key.ClockGHz)
	h = mix64(h, key.Heterogeneity)
	h = mix64(h, key.BandwidthMbps)
	h = mix64(h, key.SCR)
	h = mix64(h, key.Seed)
	return &c.shards[h&c.mask]
}

// Get returns the memoized result for key, if present.
func (c *Cache) Get(key Key) (Result, bool) {
	s := c.shardOf(key)
	s.mu.RLock()
	r, ok := s.m[key]
	s.mu.RUnlock()
	return r, ok
}

// Put stores a result, evicting an arbitrary entry if the cache is full.
func (c *Cache) Put(key Key, r Result) {
	s := c.shardOf(key)
	s.mu.Lock()
	if _, exists := s.m[key]; !exists && len(s.m) >= s.max {
		for k := range s.m {
			delete(s.m, k)
			break
		}
	}
	s.m[key] = r
	s.mu.Unlock()
}

// Len returns the number of memoized results.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// Clear drops every memoized result.
func (c *Cache) Clear() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.m = make(map[Key]Result)
		s.mu.Unlock()
	}
}
