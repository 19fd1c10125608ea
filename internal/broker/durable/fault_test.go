package durable

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"rsgen/internal/broker"
	"rsgen/internal/platform"
)

// faultyWAL wraps the live log and fails its next Write or Sync on cue.
type faultyWAL struct {
	walFile
	// writeErr fails the next Write; with torn set, half the frame lands
	// first, as a short write leaves it.
	writeErr error
	torn     bool
	// syncErr fails the next Sync.
	syncErr error
	// beforeWrite runs once, inside the next Write.
	beforeWrite func()
}

func (f *faultyWAL) Write(p []byte) (int, error) {
	if hook := f.beforeWrite; hook != nil {
		f.beforeWrite = nil
		hook()
	}
	if err := f.writeErr; err != nil {
		f.writeErr = nil
		n := 0
		if f.torn {
			n, _ = f.walFile.Write(p[:len(p)/2])
		}
		return n, err
	}
	return f.walFile.Write(p)
}

func (f *faultyWAL) Sync() error {
	if err := f.syncErr; err != nil {
		f.syncErr = nil
		return err
	}
	return f.walFile.Sync()
}

// requireHeld fails unless every acknowledged lease is in table with its
// hosts and deadline, only the acknowledged leases are, and no host is in
// two of them.
func requireHeld(t *testing.T, stage string, table map[string]*broker.Lease, acked ...broker.Lease) {
	t.Helper()
	holder := map[int64]string{}
	for id, l := range table {
		for _, h := range l.Hosts {
			if other, taken := holder[int64(h)]; taken {
				t.Fatalf("%s: host %d in both %s and %s", stage, h, other, id)
			}
			holder[int64(h)] = id
		}
	}
	for _, want := range acked {
		got, ok := table[want.ID]
		if !ok || !reflect.DeepEqual(got.Hosts, want.Hosts) || !got.Expires.Equal(want.Expires) {
			t.Fatalf("%s: acknowledged lease %s is %+v, want %+v", stage, want.ID, got, want)
		}
	}
	if len(table) != len(acked) {
		t.Fatalf("%s: %d leases held, %d acknowledged: %v", stage, len(table), len(acked), table)
	}
}

// A swap whose append fails while a concurrent Acquire asks for the hosts
// the swap would free: every call that succeeded must be held afterwards,
// live and after recovery, no host may be in two leases, and the failed
// swap must leave the old lease exactly as it was.
func TestFailedSwapAppendKeepsConcurrentAcquire(t *testing.T) {
	rec, p := testInventory()
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	s := open(t, t.TempDir(), clock)
	defer crash(s)
	if _, err := s.RegisterInventory(rec, now); err != nil {
		t.Fatal(err)
	}
	old, err := s.Acquire(p.Hosts[0:2], time.Hour, now, broker.LeaseMeta{Backend: "vgdl"})
	if err != nil {
		t.Fatal(err)
	}
	before, _ := s.Lookup(old.ID, now)

	type result struct {
		l   *broker.Lease
		err error
	}
	done := make(chan result, 1)
	f := &faultyWAL{walFile: s.wal, writeErr: errors.New("injected write failure")}
	f.beforeWrite = func() {
		go func() {
			l, err := s.Acquire(p.Hosts[0:2], time.Hour, now, broker.LeaseMeta{Backend: "vgdl"})
			done <- result{l, err}
		}()
		// Hold the swap's append until the acquire holds the old hosts in
		// memory (when the swap freed them before journaling) or they stay
		// masked (when it did not, and the acquire queues behind the swap).
		for deadline := time.Now().Add(2 * time.Second); !s.Leased(now)[p.Hosts[0].ID] && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}
	s.wal = f
	if _, err := s.Swap(old.ID, p.Hosts[2:4], now, broker.LeaseMeta{Backend: "vgdl", Rung: 1}); err == nil {
		t.Fatal("Swap succeeded over a failing append")
	}
	got := <-done

	after, held := s.Lookup(old.ID, now)
	if !held || !reflect.DeepEqual(after, before) {
		t.Fatalf("old lease after the failed swap %+v (held %v), want %+v", after, held, before)
	}
	acked := []broker.Lease{before}
	if got.err == nil {
		acked = append(acked, *got.l)
	}
	requireHeld(t, "live", heldLeases(s), acked...)
	r := open(t, machineCrash(t, s, walFileSize(t, s)), clock)
	defer crash(r)
	requireHeld(t, "recovered", heldLeases(r), acked...)
}

// While a record is being journaled, a grant's hosts are already masked
// from selection, and the lease a release targets is not reclaimed by a
// concurrent read's sweep, so it ends once: released, not also expired.
func TestInFlightRecordMasksAndPins(t *testing.T) {
	rec, p := testInventory()
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	later := now.Add(time.Hour)
	s := open(t, t.TempDir(), func() time.Time { return now })
	defer crash(s)
	if _, err := s.RegisterInventory(rec, now); err != nil {
		t.Fatal(err)
	}
	l, err := s.Acquire(p.Hosts[0:2], time.Minute, now, broker.LeaseMeta{Backend: "vgdl"})
	if err != nil {
		t.Fatal(err)
	}
	f := &faultyWAL{walFile: s.wal}
	s.wal = f

	var masked map[platform.HostID]bool
	f.beforeWrite = func() { masked = s.Leased(now) }
	l2, err := s.Acquire(p.Hosts[2:4], time.Minute, now, broker.LeaseMeta{Backend: "vgdl"})
	if err != nil {
		t.Fatal(err)
	}
	if !masked[p.Hosts[2].ID] || !masked[p.Hosts[3].ID] {
		t.Errorf("hosts of a grant being journaled were selectable: mask %v", masked)
	}

	var pinned bool
	f.beforeWrite = func() { _, pinned = s.Lookup(l.ID, later) }
	if !s.Release(l.ID, now) {
		t.Fatal("Release failed")
	}
	if !pinned {
		t.Error("a sweep reclaimed the lease a release was journaling")
	}
	var ended []string
	for _, e := range s.TakeExpired() {
		ended = append(ended, e.ID)
	}
	if !reflect.DeepEqual(ended, []string{l2.ID}) {
		t.Errorf("expired %v, want only %s", ended, l2.ID)
	}
}

// An Acquire hit by a short write, then one that succeeds: the torn half
// frame must not stay mid-log, where replay would stop and lose the second,
// acknowledged lease.
func TestShortWriteIsCutBack(t *testing.T) {
	rec, p := testInventory()
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	s := open(t, t.TempDir(), clock)
	defer crash(s)
	if _, err := s.RegisterInventory(rec, now); err != nil {
		t.Fatal(err)
	}
	s.wal = &faultyWAL{walFile: s.wal, writeErr: errors.New("injected short write"), torn: true}
	if _, err := s.Acquire(p.Hosts[0:2], time.Hour, now, broker.LeaseMeta{Backend: "vgdl"}); err == nil {
		t.Fatal("Acquire succeeded over a short write")
	}
	l, err := s.Acquire(p.Hosts[2:4], time.Hour, now, broker.LeaseMeta{Backend: "vgdl"})
	if err != nil {
		t.Fatal(err)
	}
	requireHeld(t, "live", heldLeases(s), *l)
	r := open(t, machineCrash(t, s, walFileSize(t, s)), clock)
	defer crash(r)
	if rec := r.Recovery(); rec.TornTailBytes != 0 || rec.LeasesRecovered != 1 {
		t.Errorf("recovery %+v: want no torn tail and 1 lease", rec)
	}
	requireHeld(t, "recovered", heldLeases(r), *l)
}

// An Acquire whose fsync fails, then one that succeeds: the failed
// record must not stay in the log for the second grant's fsync to make
// durable, resurrecting a lease no client was given.
func TestFailedSyncIsCutBack(t *testing.T) {
	rec, p := testInventory()
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	s, err := Open(t.TempDir(), Options{Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer crash(s)
	if _, err := s.RegisterInventory(rec, now); err != nil {
		t.Fatal(err)
	}
	s.wal = &faultyWAL{walFile: s.wal, syncErr: errors.New("injected fsync failure")}
	if _, err := s.Acquire(p.Hosts[0:2], time.Hour, now, broker.LeaseMeta{Backend: "vgdl"}); err == nil {
		t.Fatal("Acquire succeeded over a failing fsync")
	}
	l, err := s.Acquire(p.Hosts[2:4], time.Hour, now, broker.LeaseMeta{Backend: "vgdl"})
	if err != nil {
		t.Fatal(err)
	}
	requireHeld(t, "live", heldLeases(s), *l)
	r := open(t, machineCrash(t, s, walFileSize(t, s)), clock)
	defer crash(r)
	requireHeld(t, "recovered", heldLeases(r), *l)
}
