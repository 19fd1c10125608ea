package service

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// responseCache is a bounded LRU over fully rendered response bodies. The
// value stored is the exact byte slice written to the first client, so a
// hit is byte-identical to the original response by construction (the
// cache-determinism contract in DESIGN.md §Serving). Entries are never
// mutated after Put; readers share the slice.
type responseCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	evictions atomic.Uint64 // entries dropped by the capacity bound
}

type cacheEntry struct {
	key  string
	body []byte
}

func newResponseCache(max int) *responseCache {
	if max < 1 {
		max = 1
	}
	return &responseCache{
		max:   max,
		ll:    list.New(),
		items: make(map[string]*list.Element, max),
	}
}

// Get returns the cached body and refreshes its recency.
func (c *responseCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// Put stores a body, evicting the least recently used entry at capacity.
func (c *responseCache) Put(key string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).body = body
		return
	}
	for c.ll.Len() >= c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
		c.evictions.Add(1)
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, body: body})
}

// Evictions returns the cumulative number of capacity evictions.
func (c *responseCache) Evictions() uint64 { return c.evictions.Load() }

// Len returns the number of cached responses.
func (c *responseCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
