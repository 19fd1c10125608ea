package durable

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"rsgen/internal/broker"
	"rsgen/internal/platform"
)

// recordingWAL passes every append through and keeps the record it framed.
type recordingWAL struct {
	walFile
	recs []*broker.Record
}

func (w *recordingWAL) Write(p []byte) (int, error) {
	var rec broker.Record
	if err := json.Unmarshal(p[recordHeaderBytes:], &rec); err != nil {
		return 0, err
	}
	w.recs = append(w.recs, &rec)
	return w.walFile.Write(p)
}

// TestLockstepWithMemStore drives crash_window_test.go's seeded sessions on
// a durable store, in rounds separated by re-registrations, and repeats
// every call the store journaled on a MemStore. After every operation the
// two must agree on lease IDs, on the table, and on the errors of calls
// that must fail; and Open on a copy of the state directory at the same
// clock must give the live table back.
func TestLockstepWithMemStore(t *testing.T) {
	rec, p := testInventory()
	hostsOf := func(ids []platform.HostID) []platform.Host {
		hs := make([]platform.Host, len(ids))
		for i, id := range ids {
			hs[i] = p.Host(id)
		}
		return hs
	}
	for seed := uint64(1); seed <= 4; seed++ {
		compactEvery := []int{1 << 20, 16}[seed%2]
		now := time.Date(2026, 9, 1, 8, 0, 0, 0, time.UTC)
		clock := func() time.Time { return now }
		s, err := Open(t.TempDir(), Options{NoSync: true, CompactEvery: compactEvery, Now: clock})
		if err != nil {
			t.Fatal(err)
		}
		w := &recordingWAL{walFile: s.wal}
		s.wal = w
		mem := broker.NewMemStore()

		// mirror repeats on mem every call journaled since the last check.
		mirror := func() {
			for _, r := range w.recs {
				l := r.Lease
				var got *broker.Lease
				var err error
				switch r.Op {
				case broker.OpAcquire:
					got, err = mem.Acquire(hostsOf(l.Hosts), l.Expires.Sub(l.BoundAt), l.BoundAt, broker.LeaseMeta{Rung: l.Rung, Backend: l.Backend})
				case broker.OpSwap:
					got, err = mem.Swap(r.LeaseID, hostsOf(l.Hosts), l.BoundAt, broker.LeaseMeta{Rung: l.Rung, Backend: l.Backend})
				case broker.OpRelease:
					if !mem.Release(r.LeaseID, now) {
						t.Fatalf("seed %d: MemStore refused release of %s", seed, r.LeaseID)
					}
					continue
				default:
					t.Fatalf("seed %d: unexpected %s record mid-session", seed, r.Op)
				}
				if err != nil || !reflect.DeepEqual(got, l) {
					t.Fatalf("seed %d: MemStore %s gave %+v, %v; durable journaled %+v", seed, r.Op, got, err, l)
				}
			}
			w.recs = w.recs[:0]
		}
		// mustFailAlike makes calls that must fail on both stores and
		// compares their errors; failing, they change nothing.
		mustFailAlike := func(leases []*broker.Lease) {
			meta := broker.LeaseMeta{Backend: "vgdl"}
			_, e1 := s.Swap("lease-none", p.Hosts[:1], now, meta)
			_, e2 := mem.Swap("lease-none", p.Hosts[:1], now, meta)
			if !errors.Is(e1, broker.ErrLeaseGone) || e2 == nil || e1.Error() != e2.Error() {
				t.Fatalf("seed %d: swap of a gone lease: durable %v, MemStore %v", seed, e1, e2)
			}
			if s.Release("lease-none", now) || mem.Release("lease-none", now) {
				t.Fatalf("seed %d: release of an unknown lease succeeded", seed)
			}
			if len(leases) == 0 {
				return
			}
			taken := hostsOf(leases[0].Hosts[:1])
			_, e1 = s.Acquire(taken, time.Hour, now, meta)
			_, e2 = mem.Acquire(taken, time.Hour, now, meta)
			if e1 == nil || e2 == nil || e1.Error() != e2.Error() {
				t.Fatalf("seed %d: acquire of a held host: durable %v, MemStore %v", seed, e1, e2)
			}
			if len(leases) > 1 {
				_, e1 = s.Swap(leases[1].ID, taken, now, meta)
				_, e2 = mem.Swap(leases[1].ID, taken, now, meta)
				if e1 == nil || e2 == nil || e1.Error() != e2.Error() {
					t.Fatalf("seed %d: swap onto a held host: durable %v, MemStore %v", seed, e1, e2)
				}
			}
		}

		for round := uint64(0); round < 2; round++ {
			gen, err := s.RegisterInventory(rec, now)
			if err != nil {
				t.Fatal(err)
			}
			if mgen, _ := mem.RegisterInventory(rec, now); mgen != gen {
				t.Fatalf("seed %d: generation %d durable, %d MemStore", seed, gen, mgen)
			}
			w.recs = w.recs[:0]
			runSession(t, s, p, seed<<8|round, compactEvery, &now, func(*session) {
				mirror()
				live, ref := s.mem.Snapshot(now), mem.Snapshot(now)
				if !reflect.DeepEqual(live, ref) {
					t.Fatalf("seed %d: durable state %+v, MemStore %+v", seed, live, ref)
				}
				mustFailAlike(live.Leases)
				if len(w.recs) != 0 {
					t.Fatalf("seed %d: failing calls journaled %d records", seed, len(w.recs))
				}

				r := open(t, machineCrash(t, s, walFileSize(t, s)), clock)
				back := r.mem.Snapshot(now)
				crash(r)
				if back.Generation != live.Generation || back.NextID != live.NextID || !reflect.DeepEqual(back.Leases, live.Leases) {
					t.Fatalf("seed %d: replay gives generation %d, next ID %d, %v; live %d, %d, %v",
						seed, back.Generation, back.NextID, back.Leases, live.Generation, live.NextID, live.Leases)
				}
			})
		}
		crash(s)
	}
}
