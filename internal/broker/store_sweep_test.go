package broker

import (
	"slices"
	"sort"
	"testing"
	"time"

	"rsgen/internal/platform"
	"rsgen/internal/xrand"
)

// The store skips its lease-table scan until the clock reaches the earliest
// deadline. This drives acquires, swaps, releases, replays and reads under
// an injected clock that crosses many deadlines — exactly on the second as
// often as past it — and after every step requires what a scan on every call
// would give: a lease is gone as soon as !Expires.After(now), a zero now
// never sweeps, and TakeExpired hands back each sweep's leases before any
// later sweep's.
func TestSweepSkipsUntilEarliestDeadline(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := xrand.New(seed)
		s := NewMemStore()
		now := time.Unix(1_700_000_000, 0)
		live := map[string]time.Time{} // the reference model: ID → deadline
		var expiredTotal uint64
		nextHost := platform.HostID(0)
		freshHosts := func() []platform.Host {
			nextHost += 2
			return mkHosts(nextHost-2, nextHost-1)
		}
		liveIDs := func() []string {
			ids := make([]string, 0, len(live))
			for id := range live {
				ids = append(ids, id)
			}
			sort.Strings(ids)
			return ids
		}

		for step := 0; step < 400; step++ {
			swept := true
			switch op := rng.Intn(10); {
			case op < 3:
				ttl := time.Duration(1+rng.Intn(8)) * time.Second
				l, err := s.Acquire(freshHosts(), ttl, now, LeaseMeta{})
				if err != nil {
					t.Fatalf("seed %d step %d: acquire: %v", seed, step, err)
				}
				live[l.ID] = now.Add(ttl)
			case op < 4 && len(live) > 0:
				ids := liveIDs()
				id := ids[rng.Intn(len(ids))]
				if wantOK := live[id].After(now); s.Release(id, now) != wantOK {
					t.Fatalf("seed %d step %d: release %s at %v (deadline %v): want %v", seed, step, id, now, live[id], wantOK)
				}
				if live[id].After(now) {
					delete(live, id)
				}
			case op < 5 && len(live) > 0:
				ids := liveIDs()
				id := ids[rng.Intn(len(ids))]
				l, err := s.Swap(id, freshHosts(), now, LeaseMeta{})
				if wantOK := live[id].After(now); (err == nil) != wantOK {
					t.Fatalf("seed %d step %d: swap %s: %v, want ok=%v", seed, step, id, err, wantOK)
				}
				if err == nil {
					live[l.ID] = live[id] // the replacement inherits the deadline
					delete(live, id)
				}
			case op < 6:
				// Replay path: an acquire record applied from a log,
				// possibly due earlier than everything held, must lower the
				// bound too.
				l := &Lease{ID: "restored-" + time.Duration(step).String(), Expires: now.Add(time.Duration(rng.Intn(4)) * time.Second)}
				for _, h := range freshHosts() {
					l.Hosts = append(l.Hosts, h.ID)
				}
				s.Apply(&Record{Op: OpAcquire, Lease: l})
				live[l.ID] = l.Expires
				swept = false
			case op < 7:
				// A zero clock reads without sweeping.
				if got := s.Stats(time.Time{}).ActiveLeases; got != len(live) {
					t.Fatalf("seed %d step %d: unswept stats hold %d leases, model %d", seed, step, got, len(live))
				}
				swept = false
			case op < 8:
				s.Leased(now)
			default:
				now = now.Add(time.Duration(rng.Intn(3)) * time.Second)
				s.Sweep(now)
			}
			if !swept {
				continue
			}

			var wantExpired []string
			for id, deadline := range live {
				if !deadline.After(now) {
					wantExpired = append(wantExpired, id)
					delete(live, id)
				}
			}
			sort.Strings(wantExpired)
			expiredTotal += uint64(len(wantExpired))
			var gotExpired []string
			for _, l := range s.TakeExpired() {
				gotExpired = append(gotExpired, l.ID)
			}
			sort.Strings(gotExpired)
			if !slices.Equal(gotExpired, wantExpired) {
				t.Fatalf("seed %d step %d at %v: expired %v, want %v", seed, step, now, gotExpired, wantExpired)
			}
			st := s.Stats(now)
			if st.ActiveLeases != len(live) || st.LeasedHosts != 2*len(live) || st.ExpiredTotal != expiredTotal {
				t.Fatalf("seed %d step %d: stats %+v, model %d live / %d expired", seed, step, st, len(live), expiredTotal)
			}
			for _, id := range liveIDs() {
				if _, ok := s.Lookup(id, now); !ok {
					t.Fatalf("seed %d step %d: live lease %s not found", seed, step, id)
				}
			}
		}
	}
}
