package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"rsgen/internal/broker"
	"rsgen/internal/platform"
	"rsgen/internal/xrand"
)

// machineCrash leaves in a fresh directory what a crash of the machine, not
// just the process, can leave of s's state directory: the snapshot (written
// atomically and fsynced) and the WAL cut at cut bytes. Cutting at
// s.syncedSize is the worst case — every byte past the last fsync lost.
func machineCrash(t *testing.T, s *Store, cut int64) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range []string{snapName, walName} {
		data, err := os.ReadFile(filepath.Join(s.dir, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if name == walName {
			data = data[:cut]
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// walFileSize stats the live log.
func walFileSize(t *testing.T, s *Store) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(s.dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// heldLeases returns the store's lease table by ID, without sweeping.
func heldLeases(s *Store) map[string]*broker.Lease {
	out := map[string]*broker.Lease{}
	for _, l := range s.mem.Snapshot(time.Time{}).Leases {
		out[l.ID] = l
	}
	return out
}

// session is the reference model the crash-window tests check recovery
// against: the leases a client was promised and has not given back, and the
// released ones whose release record no fsync has covered yet.
type session struct {
	live     map[string]*broker.Lease // acknowledged, not released, swapped away or expired
	lostable map[string]*broker.Lease // released since the last fsync
	records  int                      // WAL records since the last compaction
}

// granted notes a record that was fsynced before it was acknowledged: it
// carried every earlier release to disk with it.
func (m *session) granted(compactEvery int) {
	clear(m.lostable)
	m.appended(compactEvery)
}

// appended counts one WAL record; the compaction it may trigger snapshots
// memory, released leases gone, and so covers every release too.
func (m *session) appended(compactEvery int) {
	if m.records++; m.records >= compactEvery {
		m.records = 0
		clear(m.lostable)
	}
}

// runSession drives a seeded sequence of acquire / release / swap / sweep
// against s, two clients drawing from the same few hosts so they contend,
// under a clock that outruns some TTLs. After every operation check sees
// the store, the model and the current time.
func runSession(t *testing.T, s *Store, p *platform.Platform, seed uint64, compactEvery int, now *time.Time, check func(m *session)) {
	t.Helper()
	rng := xrand.New(seed)
	m := &session{live: map[string]*broker.Lease{}, lostable: map[string]*broker.Lease{}, records: 1} // the inventory record
	pool := p.Hosts[:10]
	twoHosts := func() []platform.Host {
		i := rng.Intn(len(pool) - 1)
		return []platform.Host{pool[i], pool[i+1]}
	}
	someLive := func() string {
		ids := make([]string, 0, len(m.live))
		for id := range m.live {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		if len(ids) == 0 {
			return "lease-none"
		}
		return ids[rng.Intn(len(ids))]
	}
	for step := 0; step < 120; step++ {
		*now = now.Add(time.Duration(rng.Intn(1500)) * time.Millisecond)
		for id, l := range m.live {
			if !l.Expires.After(*now) {
				delete(m.live, id)
			}
		}
		switch op := rng.Intn(10); {
		case op < 4:
			ttl := time.Duration(3+rng.Intn(20)) * time.Second
			if l, err := s.Acquire(twoHosts(), ttl, *now, broker.LeaseMeta{Backend: "vgdl"}); err == nil {
				m.live[l.ID] = l
				m.granted(compactEvery)
			}
		case op < 7:
			id := someLive()
			if s.Release(id, *now) {
				m.lostable[id] = m.live[id]
				delete(m.live, id)
				m.appended(compactEvery)
			}
		case op < 9:
			id := someLive()
			if l, err := s.Swap(id, twoHosts(), *now, broker.LeaseMeta{Backend: "vgdl", Rung: 1}); err == nil {
				delete(m.live, id)
				m.live[l.ID] = l
				m.granted(compactEvery)
			}
		default:
			s.Sweep(*now)
			clear(m.lostable)
			if !s.opts.NoSync {
				if size := walFileSize(t, s); s.syncedSize != size || s.unsynced != 0 {
					t.Fatalf("seed %d step %d: after Sweep synced offset %d, %d unsynced, file holds %d bytes", seed, step, s.syncedSize, s.unsynced, size)
				}
			}
		}
		check(m)
	}
}

// TestMachineCrashInsideReleaseWindow is the durability contract of the
// deferred release fsync, over seeded sessions with a machine crash staged
// after every operation: (i) no recovered host is in two leases; (ii) every
// acknowledged acquire or swap not since released is recovered, hosts and
// deadline intact; (iii) the only other leases recovered are those whose
// release no fsync had covered — all of them, when the log is cut at the
// synced offset — and each dies at its TTL; (iv) a grant or a Sweep leaves
// nothing unsynced, and Close leaves the synced offset at the file size.
func TestMachineCrashInsideReleaseWindow(t *testing.T) {
	rec, p := testInventory()
	resurrected := 0
	for seed := uint64(1); seed <= 12; seed++ {
		compactEvery := []int{1 << 20, 16}[seed%2]
		now := time.Date(2026, 9, 1, 8, 0, 0, 0, time.UTC)
		s, err := Open(t.TempDir(), Options{CompactEvery: compactEvery, Now: func() time.Time { return now }})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RegisterInventory(rec, now); err != nil {
			t.Fatal(err)
		}
		cuts := xrand.New(seed ^ 0xc0ffee)
		runSession(t, s, p, seed, compactEvery, &now, func(m *session) {
			if got := int(s.met.walUnsynced.Load()); got != s.unsynced || (len(m.lostable) == 0) != (s.unsynced == 0) {
				t.Fatalf("seed %d: %d unsynced records (gauge %d), model has %d lostable releases", seed, s.unsynced, got, len(m.lostable))
			}
			// The worst case, then any cut inside the window (torn frames
			// included).
			for _, cut := range []int64{s.syncedSize, s.syncedSize + int64(cuts.Intn(int(s.walSize-s.syncedSize)+1))} {
				r, err := Open(machineCrash(t, s, cut), Options{NoSync: true, Now: func() time.Time { return now }})
				if err != nil {
					t.Fatalf("seed %d: recovery at cut %d: %v", seed, cut, err)
				}
				got := heldLeases(r)
				holder := map[platform.HostID]string{}
				for id, l := range got {
					for _, h := range l.Hosts {
						if other, taken := holder[h]; taken {
							t.Fatalf("seed %d cut %d: host %d recovered in both %s and %s", seed, cut, h, other, id)
						}
						holder[h] = id
					}
				}
				for id, want := range m.live {
					if l, ok := got[id]; !ok || !reflect.DeepEqual(l.Hosts, want.Hosts) || !l.Expires.Equal(want.Expires) {
						t.Fatalf("seed %d cut %d: acknowledged lease %s recovered as %+v, want %+v", seed, cut, id, l, want)
					}
				}
				for id, l := range got {
					if _, promised := m.live[id]; promised {
						continue
					}
					want, lost := m.lostable[id]
					if !lost || !reflect.DeepEqual(l.Hosts, want.Hosts) {
						t.Fatalf("seed %d cut %d: recovered lease %+v was neither promised nor released inside the window", seed, cut, l)
					}
					resurrected++
					if _, held := r.Lookup(id, l.Expires); held {
						t.Fatalf("seed %d cut %d: resurrected lease %s outlives its TTL", seed, cut, id)
					}
				}
				if cut == s.syncedSize {
					for id, l := range m.lostable {
						if _, back := got[id]; !back && l.Expires.After(now) {
							t.Fatalf("seed %d: release of %s survived a cut at the synced offset", seed, id)
						}
					}
				}
				crash(r)
			}
		})
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if size := walFileSize(t, s); s.syncedSize != size || s.unsynced != 0 {
			t.Fatalf("seed %d: after Close synced offset %d, %d unsynced, file holds %d bytes", seed, s.syncedSize, s.unsynced, size)
		}
	}
	if resurrected == 0 {
		t.Fatal("no session lost a release: the crash window was never exercised")
	}
}

// TestNoSyncSessionIdentical pins that the deferred fsync changes nothing
// but the fsyncs: the same session leaves the same lease table and the same
// WAL bytes with and without NoSync, and a NoSync store counts no syncs and
// no unsynced records.
func TestNoSyncSessionIdentical(t *testing.T) {
	rec, p := testInventory()
	run := func(noSync bool) (*Store, []byte) {
		now := time.Date(2026, 9, 1, 8, 0, 0, 0, time.UTC)
		s, err := Open(t.TempDir(), Options{NoSync: noSync, Now: func() time.Time { return now }})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RegisterInventory(rec, now); err != nil {
			t.Fatal(err)
		}
		runSession(t, s, p, 5, 1<<20, &now, func(*session) {})
		wal, err := os.ReadFile(filepath.Join(s.dir, walName))
		if err != nil {
			t.Fatal(err)
		}
		return s, wal
	}
	synced, syncedWAL := run(false)
	unsynced, unsyncedWAL := run(true)
	defer crash(synced)
	defer crash(unsynced)
	if !bytes.Equal(syncedWAL, unsyncedWAL) {
		t.Errorf("WAL bytes differ: %d with fsync, %d with NoSync", len(syncedWAL), len(unsyncedWAL))
	}
	if a, b := heldLeases(synced), heldLeases(unsynced); !reflect.DeepEqual(a, b) {
		t.Errorf("lease tables differ:\nfsync:  %v\nNoSync: %v", a, b)
	}
	if n := unsynced.met.walSyncs.Load(); n != 0 || unsynced.unsynced != 0 || unsynced.met.walUnsynced.Load() != 0 {
		t.Errorf("NoSync store reports %d syncs, %d unsynced records", n, unsynced.unsynced)
	}
	if synced.met.walSyncs.Load() == 0 {
		t.Error("syncing store counted no fsyncs")
	}
	var exp bytes.Buffer
	synced.MetricsRegistry().Expose(&exp)
	for _, family := range []string{"rsgend_store_wal_syncs_total", "rsgend_store_wal_unsynced_records"} {
		if !bytes.Contains(exp.Bytes(), []byte("\n"+family+" ")) {
			t.Errorf("exposition lacks %s:\n%s", family, exp.String())
		}
	}
}

// BenchmarkDurableSession is what one lease costs the durable store: an
// acquire and a release on a real directory with fsync on.
func BenchmarkDurableSession(b *testing.B) {
	rec, p := testInventory()
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	now := time.Now()
	if _, err := s.RegisterInventory(rec, now); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := s.Acquire(p.Hosts[:12], time.Minute, now, broker.LeaseMeta{Backend: "vgdl"})
		if err != nil {
			b.Fatal(err)
		}
		if !s.Release(l.ID, now) {
			b.Fatal("release failed")
		}
	}
}
