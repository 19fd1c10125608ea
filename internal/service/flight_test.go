package service

import (
	"context"
	"net/http"
	"sync"
	"testing"
	"time"

	"rsgen/internal/eval"
)

// TestFlightLeaderCancellationFallsBack parks a leader until its compute
// deadline has passed (the deadline is the server-side form of mid-flight
// cancellation), lets a follower join while the leader is in flight, and
// asserts the follower recovers by evaluating independently instead of
// inheriting the leader's failure or deadlocking. Run under -race via the
// race target.
func TestFlightLeaderCancellationFallsBack(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Timeout = 30 * time.Millisecond })
	leaderIn := make(chan struct{})
	var hookOnce sync.Once
	s.computeHook = func() {
		hookOnce.Do(func() {
			close(leaderIn)
			// Outlive the 30ms compute deadline; the post-hook ctx.Err()
			// check then fails the leader with DeadlineExceeded.
			time.Sleep(120 * time.Millisecond)
		})
	}

	leaderDone := make(chan int, 1)
	go func() {
		w := post(s, specBody(""))
		leaderDone <- w.Code
	}()
	<-leaderIn // leader holds the flight entry and is now doomed

	// Identical request joins as a follower, waits out the leader's
	// failure, and must fall back to its own evaluation (fresh deadline).
	w := post(s, specBody(""))
	if w.Code != http.StatusOK {
		t.Fatalf("follower after leader cancellation: %d: %s", w.Code, w.Body.String())
	}
	if code := <-leaderDone; code != http.StatusGatewayTimeout {
		t.Errorf("leader status = %d, want 504", code)
	}
	if got := s.metrics.flightFallbacks.Load(); got != 1 {
		t.Errorf("flight fallbacks = %d, want 1", got)
	}

	// The fallback cached its bytes: a replay is a plain hit.
	w2 := post(s, specBody(""))
	if w2.Code != http.StatusOK || w2.Header().Get("X-Cache") != "hit" {
		t.Errorf("replay after fallback: %d, X-Cache %q", w2.Code, w2.Header().Get("X-Cache"))
	}
	if w2.Body.String() != w.Body.String() {
		t.Error("replayed bytes differ from the fallback's")
	}
}

// TestFlightLateFollower pins the group's retire-on-finish semantics: a
// caller arriving after the leader finished never observes the dead call —
// it starts a new flight (or, at the HTTP layer, hits the cache).
func TestFlightLateFollower(t *testing.T) {
	var g eval.Flight[string, []byte]
	c1, leader := g.Join("k")
	if !leader {
		t.Fatal("first join not leader")
	}
	g.Finish("k", c1, []byte("body"), nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c1.Wait(ctx); err != nil {
		t.Fatalf("finished call still in flight: %v", err)
	}
	if body, err := c1.Result(); string(body) != "body" || err != nil {
		t.Fatalf("finished call's result = %q, %v", body, err)
	}
	c2, leader := g.Join("k")
	if !leader {
		t.Fatal("join after finish must lead a new flight, not follow the retired one")
	}
	if c2 == c1 {
		t.Fatal("join after finish returned the retired call")
	}
	g.Finish("k", c2, nil, nil)
}

// TestFlightLateFollowerAfterFailedLeader: when the leader failed (so
// nothing was cached), a later identical request must recompute fresh and
// succeed rather than replaying the failure.
func TestFlightLateFollowerAfterFailedLeader(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Timeout = 20 * time.Millisecond })
	var hookOnce sync.Once
	s.computeHook = func() {
		hookOnce.Do(func() { time.Sleep(80 * time.Millisecond) })
	}
	if w := post(s, specBody("")); w.Code != http.StatusGatewayTimeout {
		t.Fatalf("doomed leader: %d, want 504", w.Code)
	}
	// Arrives strictly after the failed flight retired: fresh leader, fast
	// hook, success.
	w := post(s, specBody(""))
	if w.Code != http.StatusOK {
		t.Fatalf("request after failed flight: %d: %s", w.Code, w.Body.String())
	}
	if got := s.metrics.flightFallbacks.Load(); got != 0 {
		t.Errorf("flight fallbacks = %d, want 0 (nobody was waiting)", got)
	}
}
