package eval

import (
	"context"
	"errors"
	"testing"
	"time"
)

var errLeaderFailed = errors.New("leader failed")

// installLeader manually joins the flight for p's key, simulating an
// in-flight leader so follower behavior is deterministic (no goroutine
// races over who computes first).
func installLeader(t *testing.T, c *Cache, p Point) (Key, *FlightCall[Result]) {
	t.Helper()
	key, ok := keyOf(p)
	if !ok {
		t.Fatal("test point is not cacheable")
	}
	f, leader := c.flight.Join(key)
	if !leader {
		t.Fatal("flight already occupied")
	}
	return key, f
}

// waitForDedup blocks until a follower has joined the flight (visible as a
// DedupWaits increment over before), so the leader can publish knowing the
// follower is parked on the done channel rather than still en route.
func waitForDedup(t *testing.T, before Stats) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for Snapshot().Sub(before).DedupWaits == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower never joined the in-flight evaluation")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDedupFollowerSharesLeaderResult(t *testing.T) {
	cache := NewCache(0)
	pool := &Pool{Cache: cache}
	p := testPoints(t, []int{4})[0]
	key, f := installLeader(t, cache, p)

	before := Snapshot()
	type res struct {
		r   Result
		err error
	}
	done := make(chan res, 1)
	go func() {
		r, err := pool.Evaluate(p)
		done <- res{r, err}
	}()

	// Compute the leader's result out of band and publish it once the
	// follower is parked on the flight.
	waitForDedup(t, before)
	want, err := Evaluate(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	cache.Put(key, want)
	cache.flight.Finish(key, f, want, nil)

	got := <-done
	if got.err != nil {
		t.Fatal(got.err)
	}
	if got.r != want {
		t.Errorf("follower result %+v differs from leader's %+v", got.r, want)
	}
	delta := Snapshot().Sub(before)
	if delta.DedupWaits != 1 {
		t.Errorf("DedupWaits = %d, want 1", delta.DedupWaits)
	}
	if delta.CacheMisses != 0 {
		t.Errorf("CacheMisses = %d, want 0 (the follower must not recompute)", delta.CacheMisses)
	}
}

func TestDedupFollowerFallsBackWhenLeaderFails(t *testing.T) {
	cache := NewCache(0)
	pool := &Pool{Cache: cache}
	p := testPoints(t, []int{4})[0]
	key, f := installLeader(t, cache, p)

	before := Snapshot()
	done := make(chan error, 1)
	var follower Result
	go func() {
		var err error
		follower, err = pool.Evaluate(p)
		done <- err
	}()
	waitForDedup(t, before)
	cache.flight.Finish(key, f, Result{}, errLeaderFailed)

	if err := <-done; err != nil {
		t.Fatalf("follower should evaluate independently after leader failure, got %v", err)
	}
	want, err := Evaluate(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if follower != want {
		t.Errorf("fallback result %+v, want %+v", follower, want)
	}
	delta := Snapshot().Sub(before)
	if delta.DedupWaits != 1 || delta.CacheMisses != 1 {
		t.Errorf("stats = %+v, want 1 dedup wait then 1 independent miss", delta)
	}
}

func TestDedupFollowerHonorsContext(t *testing.T) {
	cache := NewCache(0)
	ctx, cancel := context.WithCancel(context.Background())
	pool := &Pool{Cache: cache, Ctx: ctx}
	p := testPoints(t, []int{4})[0]
	key, f := installLeader(t, cache, p)
	defer cache.flight.Finish(key, f, Result{}, errLeaderFailed)

	done := make(chan error, 1)
	go func() {
		_, err := pool.Evaluate(p)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower did not observe cancellation")
	}
}

func TestDedupSerialPathUnaffected(t *testing.T) {
	// A single worker never overlaps identical points, so dedup must not
	// change the serial stats contract (the Workers=1 counts asserted by
	// TestCacheHitReturnsIdenticalResult).
	cache := NewCache(0)
	pool := &Pool{Workers: 1, Cache: cache}
	before := Snapshot()
	if _, err := pool.EvaluateAll(testPoints(t, []int{4, 4})); err != nil {
		t.Fatal(err)
	}
	delta := Snapshot().Sub(before)
	if delta.DedupWaits != 0 || delta.CacheMisses != 1 || delta.CacheHits != 1 {
		t.Errorf("serial stats = %+v, want 1 miss + 1 hit, no dedup waits", delta)
	}
}
