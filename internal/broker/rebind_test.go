package broker

import (
	"context"
	"errors"
	"testing"
	"time"

	"rsgen/internal/obs"
	"rsgen/internal/platform"
	"rsgen/internal/spec"
)

func mkHosts(ids ...platform.HostID) []platform.Host {
	hs := make([]platform.Host, len(ids))
	for i, id := range ids {
		hs[i] = platform.Host{ID: id, ClockGHz: 2.0}
	}
	return hs
}

func TestMemStoreSwap(t *testing.T) {
	s := NewMemStore()
	now := time.Unix(1000, 0)
	old, err := s.Acquire(mkHosts(0, 1), time.Minute, now, LeaseMeta{Rung: 0, Backend: "vgdl"})
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	other, err := s.Acquire(mkHosts(5), time.Minute, now, LeaseMeta{Rung: 0, Backend: "vgdl"})
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}

	// Conflict with a foreign lease must fail and leave the old lease held.
	if _, err := s.Swap(old.ID, mkHosts(5, 6), now, LeaseMeta{Rung: 1, Backend: "vgdl"}); err == nil {
		t.Fatal("Swap onto a foreign-held host succeeded")
	}
	if _, held := s.Lookup(old.ID, now); !held {
		t.Fatal("failed Swap released the old lease")
	}
	if _, held := s.Lookup(other.ID, now); !held {
		t.Fatal("failed Swap disturbed an unrelated lease")
	}

	// A valid swap may reuse the old lease's own hosts, preserves the
	// original expiry, and frees the hosts it no longer covers.
	nu, err := s.Swap(old.ID, mkHosts(1, 2, 3), now, LeaseMeta{Rung: 1, Backend: "classad"})
	if err != nil {
		t.Fatalf("Swap: %v", err)
	}
	if nu.ID == old.ID {
		t.Error("swap reused the old lease ID")
	}
	if !nu.Expires.Equal(old.Expires) {
		t.Errorf("swap expiry %v, want the original %v", nu.Expires, old.Expires)
	}
	if nu.Rung != 1 || nu.Backend != "classad" {
		t.Errorf("swap recorded rung %d backend %q", nu.Rung, nu.Backend)
	}
	if _, held := s.Lookup(old.ID, now); held {
		t.Error("old lease still resolves after swap")
	}
	if _, err := s.Acquire(mkHosts(0), time.Minute, now, LeaseMeta{Rung: 0, Backend: "vgdl"}); err != nil {
		t.Errorf("host dropped by the swap is still held: %v", err)
	}
	if _, err := s.Acquire(mkHosts(2), time.Minute, now, LeaseMeta{Rung: 0, Backend: "vgdl"}); err == nil {
		t.Error("host covered by the replacement lease was acquirable")
	}

	// Swapping a gone lease is ErrLeaseGone.
	if _, err := s.Swap(old.ID, mkHosts(7), now, LeaseMeta{Rung: 0, Backend: "vgdl"}); !errors.Is(err, ErrLeaseGone) {
		t.Errorf("swap of a gone lease: err = %v, want ErrLeaseGone", err)
	}
}

func TestRebindSwapsDownTheLadder(t *testing.T) {
	b, p, _ := newTestBroker(t, nil)
	out, err := b.Select(context.Background(), Request{
		Dag:                  testDAG(t),
		Options:              spec.Options{ClockGHz: 3.0},
		AlternativeClocks:    []float64{2.0},
		AlternativeTolerance: 1.0,
	})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if out.Rung != 0 {
		t.Fatalf("setup: optimal rung should win, got %d", out.Rung)
	}
	origin := out.Lease.ID

	// Declare every cluster fast enough for the optimal rung stalled, the
	// way the reconciler would after downtime events.
	stalled := make(map[platform.HostID]bool)
	for _, h := range p.Hosts {
		if h.ClockGHz >= 3.0 {
			stalled[h.ID] = true
		}
	}
	re, err := b.Rebind(context.Background(), origin, Request{
		Dag:                  testDAG(t),
		Options:              spec.Options{ClockGHz: 3.0},
		AlternativeClocks:    []float64{2.0},
		AlternativeTolerance: 1.0,
	}, stalled)
	if err != nil {
		t.Fatalf("Rebind: %v", err)
	}
	if re.Rung < 1 {
		t.Errorf("rebind stayed on rung %d, want a fallback rung", re.Rung)
	}
	if re.Lease.ID == origin {
		t.Error("rebind did not mint a new lease")
	}
	if !re.Lease.Expires.Equal(out.Lease.Expires) {
		t.Errorf("rebind expiry %v, want the original %v", re.Lease.Expires, out.Lease.Expires)
	}
	for _, id := range re.Lease.Hosts {
		if stalled[id] {
			t.Errorf("rebound lease includes stalled host %d", id)
		}
	}
	if _, held := b.Lease(origin); held {
		t.Error("origin lease still resolves after rebind")
	}
	if _, held := b.Lease(re.Lease.ID); !held {
		t.Error("replacement lease does not resolve")
	}
	if st := b.LeaseStats(); st.ActiveLeases != 1 {
		t.Errorf("lease stats %+v after rebind, want exactly one active lease", st)
	}

	// Rebinding the now-gone origin reports ErrLeaseGone.
	if _, err := b.Rebind(context.Background(), origin, Request{Dag: testDAG(t)}, nil); !errors.Is(err, ErrLeaseGone) {
		t.Errorf("rebind of swapped-away lease: err = %v, want ErrLeaseGone", err)
	}
}

func TestRebindUnsatisfiableKeepsLease(t *testing.T) {
	b, p, _ := newTestBroker(t, nil)
	out, err := b.Select(context.Background(), Request{
		Dag:     testDAG(t),
		Options: spec.Options{ClockGHz: 2.0},
	})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	// Mask the whole platform: no rung can be satisfied, and the original
	// lease must survive untouched for a retry next cycle.
	stalled := make(map[platform.HostID]bool, p.NumHosts())
	for _, h := range p.Hosts {
		stalled[h.ID] = true
	}
	_, err = b.Rebind(context.Background(), out.Lease.ID, Request{
		Dag:     testDAG(t),
		Options: spec.Options{ClockGHz: 2.0},
	}, stalled)
	var unsat *UnsatisfiableError
	if !errors.As(err, &unsat) {
		t.Fatalf("err = %v, want *UnsatisfiableError", err)
	}
	if _, held := b.Lease(out.Lease.ID); !held {
		t.Error("failed rebind lost the original lease")
	}
}

func TestSelectSeedsExclusionProvider(t *testing.T) {
	b, p, _ := newTestBroker(t, nil)
	// The provider masks every fast cluster, so even without bind failures
	// the optimal 3.0 GHz rung cannot select and the ladder falls through.
	b.SetExclusionProvider(func() map[platform.HostID]bool {
		m := make(map[platform.HostID]bool)
		for _, h := range p.Hosts {
			if h.ClockGHz >= 3.0 {
				m[h.ID] = true
			}
		}
		return m
	})
	out, err := b.Select(context.Background(), Request{
		Dag:                  testDAG(t),
		Options:              spec.Options{ClockGHz: 3.0},
		AlternativeClocks:    []float64{2.0},
		AlternativeTolerance: 1.0,
	})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if out.Rung < 1 {
		t.Errorf("selection won rung %d despite the exclusions, want a fallback", out.Rung)
	}
	for _, id := range out.Lease.Hosts {
		if p.Host(id).ClockGHz >= 3.0 {
			t.Errorf("host %d belongs to an excluded cluster", id)
		}
	}
}

// slowSelector is a backend whose every selection takes `takes` of the
// injected clock: the stand-in for a 25 ms moga search or a bind backoff
// between a rebind iteration's first clock read and its commit.
type slowSelector struct {
	Selector
	now   *time.Time
	takes time.Duration
}

func (s slowSelector) Select(sp *spec.Specification, excluded map[platform.HostID]bool) (*platform.ResourceCollection, error) {
	rc, err := s.Selector.Select(sp, excluded)
	*s.now = s.now.Add(s.takes)
	return rc, err
}

// A rebind commits against the clock as it reads at the commit, not as it
// read when the iteration began: a lease whose TTL runs out in between is
// abandoned (never swapped late), and a replacement that does go in is
// stamped — BoundAt and the retired lease's rebound observation alike — no
// earlier than the moment its bind returned.
func TestRebindCommitsOnTheCommitClock(t *testing.T) {
	for _, tc := range []struct {
		name     string
		takes    time.Duration // how long the rebind's selection runs
		wantGone bool          // the minute-long lease expired meanwhile
	}{
		{"lease outlives the selection", 10 * time.Second, false},
		{"lease expires during the selection", 2 * time.Minute, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
			now := start
			b, _, _ := newTestBroker(t, func(c *Config) { c.Now = func() time.Time { return now } })
			var sink obsCollector
			b.SetObservationSink(sink.record)
			req := Request{Dag: testDAG(t), Options: spec.Options{ClockGHz: 2.0}, TTL: time.Minute}
			out, err := b.Select(context.Background(), req)
			if err != nil {
				t.Fatalf("Select: %v", err)
			}
			b.inv.selectors["slow"] = slowSelector{b.inv.selectors["vgdl"], &now, tc.takes}
			req.Backends = []string{"slow"}
			re, err := b.Rebind(context.Background(), out.Lease.ID, req, nil)
			bindReturned := start.Add(tc.takes)

			if tc.wantGone {
				if !errors.Is(err, ErrLeaseGone) {
					t.Fatalf("Rebind of a lease that expired mid-flight: out %+v, err %v; want ErrLeaseGone", re, err)
				}
				if st := b.LeaseStats(); st.ActiveLeases != 0 || st.LeasedHosts != 0 {
					t.Errorf("lease table %+v after the abandoned rebind, want empty (nothing resurrected)", st)
				}
				got := sink.all()
				if len(got) != 1 || got[0].EndReason != obs.EndExpired || got[0].LeaseID != out.Lease.ID {
					t.Errorf("observations %+v, want only the origin's expiry", got)
				}
				return
			}
			if err != nil {
				t.Fatalf("Rebind: %v", err)
			}
			if re.Lease.BoundAt.Before(bindReturned) {
				t.Errorf("replacement BoundAt %v is earlier than the bind's return at %v", re.Lease.BoundAt, bindReturned)
			}
			got := sink.all()
			if len(got) != 1 || got[0].EndReason != obs.EndRebound {
				t.Fatalf("observations %+v, want one rebound", got)
			}
			if got[0].Time.Before(bindReturned) {
				t.Errorf("rebound observation at %v is earlier than the bind's return at %v", got[0].Time, bindReturned)
			}
			if want := tc.takes.Seconds(); got[0].ObservedSeconds != want {
				t.Errorf("retired lease observed %v s, want the %v s it was held", got[0].ObservedSeconds, want)
			}
		})
	}
}
