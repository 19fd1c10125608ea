package service

import (
	"context"
	"sync"
)

// flight deduplicates concurrent computations of one response: the first
// caller to Join a key leads — it computes and must Finish — and every
// caller that joins before then follows, waiting for the leader's bytes
// instead of recomputing them. Finish retires the key before it wakes the
// followers, so a caller arriving afterwards leads a new flight, or hits the
// response cache the leader filled first. The leader computes under the
// server's context (one client disconnecting cannot fail the rest); a
// follower's Wait honours only its own request context. A follower of a
// failed leader computes independently (resolveSpec), so one poisoned
// leader cannot fail the whole group. The zero value is ready for use.
//
// This is the repository's one single-flight: concurrent identical work
// arrives as concurrent identical requests, so it is deduplicated here,
// where the unit of work is a whole response, and not again in the
// evaluation engine below it.
type flight struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

// flightCall is one in-flight computation.
type flightCall struct {
	done chan struct{} // closed once val and err are final
	val  []byte
	err  error
}

// Join returns the in-flight call for key, creating one if absent; leader
// reports whether the caller must run the computation and then Finish.
func (f *flight) Join(key string) (call *flightCall, leader bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.m[key]; ok {
		return c, false
	}
	if f.m == nil {
		f.m = make(map[string]*flightCall)
	}
	c := &flightCall{done: make(chan struct{})}
	f.m[key] = c
	return c, true
}

// Finish publishes the leader's outcome and retires the key.
func (f *flight) Finish(key string, c *flightCall, val []byte, err error) {
	c.val, c.err = val, err
	f.mu.Lock()
	delete(f.m, key)
	f.mu.Unlock()
	close(c.done)
}

// Wait blocks until the leader has finished (nil) or ctx is done (its
// error, the call still in flight).
func (c *flightCall) Wait(ctx context.Context) error {
	select {
	case <-c.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Result is the leader's outcome; valid once Wait has returned nil.
func (c *flightCall) Result() ([]byte, error) { return c.val, c.err }
