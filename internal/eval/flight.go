package eval

import (
	"context"
	"sync"
)

// Flight deduplicates concurrent computations of one key: the first caller
// to Join a key leads — it computes and must Finish — and every caller that
// joins before then follows, waiting for the leader's outcome instead of
// recomputing it. Finish retires the key before it wakes the followers, so a
// caller arriving afterwards leads a new flight (or, where the leader cached
// its value, hits that cache first). The leader's computation runs under
// whatever context the leader chooses; a follower's Wait honours only its
// own. What a follower does about a failed leader is its caller's policy,
// not Flight's. The zero value is ready for use.
type Flight[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*FlightCall[V]
}

// FlightCall is one in-flight computation.
type FlightCall[V any] struct {
	done chan struct{} // closed once val and err are final
	val  V
	err  error
}

// Join returns the in-flight call for key, creating one if absent; leader
// reports whether the caller must run the computation and then Finish.
func (f *Flight[K, V]) Join(key K) (call *FlightCall[V], leader bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.m[key]; ok {
		return c, false
	}
	if f.m == nil {
		f.m = make(map[K]*FlightCall[V])
	}
	c := &FlightCall[V]{done: make(chan struct{})}
	f.m[key] = c
	return c, true
}

// Finish publishes the leader's outcome and retires the key.
func (f *Flight[K, V]) Finish(key K, c *FlightCall[V], val V, err error) {
	c.val, c.err = val, err
	f.mu.Lock()
	delete(f.m, key)
	f.mu.Unlock()
	close(c.done)
}

// Wait blocks until the leader has finished (nil) or ctx is done (its
// error, the call still in flight).
func (c *FlightCall[V]) Wait(ctx context.Context) error {
	select {
	case <-c.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Result is the leader's outcome; valid once Wait has returned nil.
func (c *FlightCall[V]) Result() (V, error) { return c.val, c.err }
