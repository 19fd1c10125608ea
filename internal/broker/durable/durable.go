// Package durable is the write-ahead-log + snapshot implementation of
// broker.Store: the same lease-table state machine as broker.MemStore,
// journaled to a state directory so rsgend restarts rebind-safe — leases
// acquired before a crash are honored (their hosts stay masked) after the
// process comes back, and the registered inventory plus its generation
// survive with them.
//
// Layout of the state directory:
//
//	wal.log      append-only mutation log (length-prefixed, CRC-checked
//	             records; see wal.go for the frame format)
//	snapshot.db  one framed record holding the full state at the last
//	             compaction, written atomically (tmp + rename)
//
// Every mutation runs validate → journal → apply → compact-if-due under one
// committer lock, so a snapshot never holds a record the log lacks, every
// record in the log has been applied, and nothing is ever undone. A record
// that grants hosts (inventory, acquire, swap) is fsynced before it is
// applied and acknowledged (its hosts masked from selection meanwhile); a
// failed append is cut back off the log and never applied. A release is
// appended without an fsync of its own: it rides the next grant's fsync (a
// later record in the same file), the next Sweep, or Close. Losing one — to
// a failed append or to a machine crash inside that window — merely
// resurrects the lease until its TTL passes, and can never double-bind a
// host: recovery replays a prefix of the log, so an acknowledged grant
// implies every release written before it is on disk too. After
// CompactEvery appends the store folds the WAL into a fresh snapshot and
// truncates the log; Close flushes a final snapshot so a graceful drain
// restarts with an empty WAL.
//
// Recovery (Open) is: load the snapshot if present, replay the WAL over it
// through the same apply the live path uses (recorded IDs and timestamps),
// truncate any torn or corrupt tail, then expire every lease whose TTL
// passed while the process was down (wall-clock comparison — the lease
// deadlines are absolute timestamps).
package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"rsgen/internal/broker"
	"rsgen/internal/obs"
	"rsgen/internal/platform"
)

const (
	walName  = "wal.log"
	snapName = "snapshot.db"

	// snapshotVersion is bumped when the snapshot or WAL wire form changes
	// incompatibly; Open rejects snapshots from a newer version instead of
	// misreading them.
	snapshotVersion = 1
)

// walFile is the log as the store writes it: an *os.File, or in tests one
// that fails on cue.
type walFile interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Close() error
}

// snapshotFile is the JSON payload of the single snapshot record.
type snapshotFile struct {
	Version int `json:"version"`
	broker.SnapshotState
}

// Options parameterize a durable store; the zero value is production-safe.
type Options struct {
	// CompactEvery folds the WAL into a snapshot after this many appended
	// records; 0 defaults to 1024. The count survives restarts as the
	// number of records replayed.
	CompactEvery int
	// NoSync skips every fsync — after appends, in Sweep, of snapshots
	// (tests only: a crash of the machine, not just the process, may then
	// lose acknowledged records).
	NoSync bool
	// Now is the clock used for recovery-time TTL expiry and compaction
	// sweeps (tests); nil defaults to time.Now.
	Now func() time.Time
	// Logger receives durability warnings the store otherwise swallows
	// (e.g. a release whose WAL append failed); nil discards them.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.CompactEvery == 0 {
		o.CompactEvery = 1024
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.Logger == nil {
		o.Logger = obs.Nop
	}
	return o
}

// Store is the durable broker.Store: the in-memory state machine with the
// journal between each mutation's prepare and its apply; see the package
// comment for the write and recovery protocols.
type Store struct {
	mem  *broker.MemStore
	dir  string
	opts Options
	met  *metrics

	// mu is the committer lock. Every mutation holds it from prepare to
	// apply, and compaction and Close hold it too, so a compaction never
	// sees a prepared record that is not applied yet: each record is inside
	// the snapshot or survives in the fresh WAL.
	mu         sync.Mutex
	wal        walFile
	walRecords int
	closed     bool
	// wedged fails every append after one that could not be cut back off
	// the log, until a compaction truncates it.
	wedged error
	// walSize is the log's length; syncedSize is its length at the last
	// fsync, so the bytes in between — unsynced records, all of them
	// releases — are what a machine crash can take. Under NoSync nothing
	// is ever synced: syncedSize moves only with truncation and unsynced
	// stays 0.
	walSize, syncedSize int64
	unsynced            int

	recovery broker.RecoveryInfo
	recInv   *broker.InventoryRecord
}

// Open loads (or initializes) a state directory and runs crash recovery:
// snapshot, WAL replay, torn-tail truncation, wall-clock TTL expiry. The
// returned store is ready to back a broker.New.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("durable: empty state directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	s := &Store{dir: dir, opts: opts.withDefaults(), met: newMetrics()}
	s.recovery.Durable = true
	snap, err := s.loadSnapshot()
	if err != nil {
		return nil, err
	}
	s.mem = broker.LoadMemStore(snap, s.journal)
	if err := s.replayWAL(); err != nil {
		return nil, err
	}
	// Expire whatever leases' TTLs ran out while the process was down.
	live := s.mem.Snapshot(time.Time{})
	s.recovery.LeasesRecovered = len(live.Leases)
	after := s.mem.Stats(s.opts.Now())
	s.recovery.LeasesExpired = len(live.Leases) - after.ActiveLeases
	s.recInv = live.Inventory
	s.recovery.InventoryRecovered = s.recInv != nil
	s.met.setRecovery(s.recovery)
	return s, nil
}

// loadSnapshot reads the last compaction snapshot; the zero state when
// there is none.
func (s *Store) loadSnapshot() (*broker.SnapshotState, error) {
	var snap snapshotFile
	data, err := os.ReadFile(filepath.Join(s.dir, snapName))
	if errors.Is(err, os.ErrNotExist) {
		return &snap.SnapshotState, nil
	}
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	payloads, _, scanErr := scanRecords(bytes.NewReader(data))
	if len(payloads) == 0 {
		// A snapshot is written atomically (tmp + rename), so a torn one
		// means tampering or disk corruption, not a crash; refuse to guess.
		return nil, fmt.Errorf("durable: snapshot %s unreadable: %v", snapName, scanErr)
	}
	if err := json.Unmarshal(payloads[0], &snap); err != nil {
		return nil, fmt.Errorf("durable: snapshot %s: %w", snapName, err)
	}
	if snap.Version > snapshotVersion {
		return nil, fmt.Errorf("durable: snapshot version %d newer than supported %d", snap.Version, snapshotVersion)
	}
	s.recovery.SnapshotLoaded = true
	return &snap.SnapshotState, nil
}

// replayWAL applies every intact record and truncates the torn tail.
func (s *Store) replayWAL() error {
	f, err := os.OpenFile(filepath.Join(s.dir, walName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	payloads, good, scanErr := scanRecords(f)
	replayed := 0
	for _, p := range payloads {
		var rec broker.Record
		if err := json.Unmarshal(p, &rec); err != nil {
			// The frame's CRC passed but the payload is not one of ours:
			// treat it like a corrupt tail and stop replaying here.
			scanErr = errCorruptRecord
			break
		}
		s.mem.Apply(&rec)
		replayed++
	}
	if replayed < len(payloads) {
		// Recompute the clean prefix up to the last applied record.
		good = 0
		for _, p := range payloads[:replayed] {
			good += int64(recordHeaderBytes) + int64(len(p))
		}
	}
	s.recovery.RecordsReplayed = replayed
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("durable: %w", err)
	}
	if good < fi.Size() {
		s.recovery.TornTailBytes = fi.Size() - good
		if err := f.Truncate(good); err != nil {
			f.Close()
			return fmt.Errorf("durable: truncating torn wal tail: %w", err)
		}
		if !s.opts.NoSync {
			if err := f.Sync(); err != nil {
				f.Close()
				return fmt.Errorf("durable: %w", err)
			}
		}
	} else if scanErr != nil && !errors.Is(scanErr, errCorruptRecord) {
		f.Close()
		return fmt.Errorf("durable: scanning wal: %w", scanErr)
	}
	if _, err := f.Seek(good, 0); err != nil {
		f.Close()
		return fmt.Errorf("durable: %w", err)
	}
	s.wal = f
	s.walRecords = replayed
	s.walSize, s.syncedSize = good, good
	return nil
}

// journal runs between each mutation's prepare and its apply, under s.mu
// (broker.LoadMemStore). A release's failed append is swallowed —
// counted in its own series, warned with the lease ID — so it still
// applies (see Release); append already counted the raw error.
func (s *Store) journal(rec *broker.Record) error {
	err := s.append(rec)
	if err != nil && rec.Op == broker.OpRelease {
		s.met.walSwallowed.Inc()
		s.opts.Logger.Warn("wal append failed on release; the lease will resurrect after a crash until its TTL passes",
			"lease_id", rec.LeaseID, "error", err)
		return nil
	}
	return err
}

// endCommit ends a mutation begun by taking s.mu, its record journaled and
// applied or refused: a due compaction runs, then the lock is let go. A
// failed compaction must not fail the mutation; the next one retries.
func (s *Store) endCommit() {
	if !s.closed && s.walRecords >= s.opts.CompactEvery {
		if err := s.compactLocked(); err != nil {
			s.met.snapshotErrors.Inc()
		}
	}
	s.mu.Unlock()
}

// append journals one record under s.mu. Every op but a release is fsynced
// (per Options) before append returns, which also makes every earlier
// release durable; a release only leaves the log dirty for the next sync to
// pick up. A failed write or fsync cuts the log back to its length before
// the append: a torn frame left mid-log would end every later replay there,
// and a whole one would ride the next fsync to disk though nothing applied
// it.
func (s *Store) append(rec *broker.Record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if s.closed {
		return errors.New("durable: store is closed")
	}
	if s.wedged != nil {
		s.met.appendErrors.Inc()
		return s.wedged
	}
	start := time.Now()
	size := s.walSize
	n, err := appendRecord(s.wal, payload)
	s.walSize += int64(n)
	if err == nil && !s.opts.NoSync {
		if rec.Op == broker.OpRelease {
			s.unsynced++
			s.met.walUnsynced.Set(int64(s.unsynced))
		} else {
			err = s.syncLocked()
		}
	}
	s.met.appendSeconds.Observe(time.Since(start))
	if err != nil {
		s.met.appendErrors.Inc()
		s.walSize = size
		_, serr := s.wal.Seek(size, io.SeekStart)
		if cut := errors.Join(serr, s.wal.Truncate(size)); cut != nil {
			s.wedged = fmt.Errorf("durable: wal not cut back after a failed append: %w", cut)
		}
		return fmt.Errorf("durable: wal append: %w", err)
	}
	s.met.walRecords.Inc()
	s.met.walBytes.Add(uint64(n))
	s.walRecords++
	return nil
}

// syncLocked fsyncs the WAL and records that nothing in it is exposed any
// more. Callers skip it under NoSync.
func (s *Store) syncLocked() error {
	if err := s.wal.Sync(); err != nil {
		return err
	}
	s.met.walSyncs.Inc()
	s.syncedSize, s.unsynced = s.walSize, 0
	s.met.walUnsynced.Set(0)
	return nil
}

// Compact folds the WAL into a fresh snapshot immediately (operational
// escape hatch; the store normally compacts itself every CompactEvery
// appends and on Close).
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("durable: store is closed")
	}
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	start := time.Now()
	payload, err := json.Marshal(snapshotFile{snapshotVersion, *s.mem.Snapshot(s.opts.Now())})
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	var buf bytes.Buffer
	if _, err := appendRecord(&buf, payload); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	// Atomic replace: tmp + fsync + rename, so a crash mid-compaction
	// leaves either the old snapshot or the new one, never a torn file.
	tmp := filepath.Join(s.dir, snapName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	_, err = f.Write(buf.Bytes())
	if err == nil && !s.opts.NoSync {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("durable: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: %w", err)
	}
	if !s.opts.NoSync {
		if d, err := os.Open(s.dir); err == nil {
			_ = d.Sync()
			d.Close()
		}
	}
	// The snapshot covers everything the WAL holds: truncate it.
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("durable: truncating wal after snapshot: %w", err)
	}
	if _, err := s.wal.Seek(0, 0); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	s.walSize, s.syncedSize, s.wedged = 0, 0, nil
	if !s.opts.NoSync {
		if err := s.syncLocked(); err != nil {
			return fmt.Errorf("durable: %w", err)
		}
	}
	s.walRecords = 0
	s.met.snapshots.Inc()
	s.met.snapshotBytes.Set(int64(buf.Len()))
	s.met.snapshotSeconds.Observe(time.Since(start))
	return nil
}

// Close flushes a final snapshot (so the next open replays nothing) and
// releases the WAL handle. The store must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.compactLocked()
	s.closed = true
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- broker.Store ---

// RegisterInventory persists the inventory record and the bumped
// generation; the lease table is cleared (the old hosts no longer exist).
func (s *Store) RegisterInventory(rec *broker.InventoryRecord, now time.Time) (uint64, error) {
	s.mu.Lock()
	defer s.endCommit()
	return s.mem.RegisterInventory(rec, now)
}

// Generation returns the inventory epoch.
func (s *Store) Generation() uint64 { return s.mem.Generation() }

// Acquire journals the lease, fsynced, before it holds it. A journal
// failure fails the acquisition with nothing held: a lease the store cannot
// promise to remember across a crash is never handed out (handing it out
// and forgetting it would double-bind the hosts after a restart).
func (s *Store) Acquire(hosts []platform.Host, ttl time.Duration, now time.Time, meta broker.LeaseMeta) (*broker.Lease, error) {
	s.mu.Lock()
	defer s.endCommit()
	return s.mem.Acquire(hosts, ttl, now, meta)
}

// Release journals the release best-effort, without an fsync of its own
// (see the package comment), and frees the lease whatever the journal did:
// an unpersisted release resurrects the lease after a crash until its TTL
// passes — conservative, never unsafe. journal counts and warns a
// swallowed failure.
func (s *Store) Release(id string, now time.Time) bool {
	s.mu.Lock()
	defer s.endCommit()
	return s.mem.Release(id, now)
}

// Swap journals old and new as one swap record before it replaces the
// lease, so recovery never holds both leases or neither. A journal failure
// fails the swap with nothing applied: the caller keeps the old lease.
func (s *Store) Swap(oldID string, hosts []platform.Host, now time.Time, meta broker.LeaseMeta) (*broker.Lease, error) {
	s.mu.Lock()
	defer s.endCommit()
	return s.mem.Swap(oldID, hosts, now, meta)
}

// Lookup returns a copy of a live lease.
func (s *Store) Lookup(id string, now time.Time) (broker.Lease, bool) { return s.mem.Lookup(id, now) }

// Sweep reclaims expired leases. Expiry is never journaled: lease
// deadlines are absolute, so recovery re-derives every expiry against the
// wall clock. It also fsyncs a log that holds unsynced releases, which makes
// the broker's sweep interval the longest an idle store leaves a release
// exposed to a machine crash; a failed sync leaves the log dirty for the
// next call and counts like any other release the disk may not hold.
func (s *Store) Sweep(now time.Time) uint64 {
	s.mu.Lock()
	if !s.closed && s.unsynced > 0 {
		if err := s.syncLocked(); err != nil {
			s.met.walSwallowed.Inc()
			s.opts.Logger.Warn("wal sync failed in sweep; unsynced releases will resurrect their leases after a machine crash until their TTLs pass",
				"unsynced_records", s.unsynced, "error", err)
		}
	}
	s.mu.Unlock()
	return s.mem.Sweep(now)
}

// Leased returns the currently leased host set.
func (s *Store) Leased(now time.Time) map[platform.HostID]bool { return s.mem.Leased(now) }

// TakeExpired drains the TTL-reclaimed leases accumulated since the last
// call. Expiry is never journaled (recovery re-derives it), so the drain is
// a pure in-memory handoff; leases whose TTL ran out while the process was
// down land here too, after Open's recovery sweep.
func (s *Store) TakeExpired() []*broker.Lease { return s.mem.TakeExpired() }

// Stats sweeps and reports occupancy.
func (s *Store) Stats(now time.Time) broker.LeaseStats { return s.mem.Stats(now) }

// RecoveredInventory returns the inventory crash recovery restored (nil
// when the directory held none).
func (s *Store) RecoveredInventory() *broker.InventoryRecord { return s.recInv }

// Recovery reports what crash recovery found at Open.
func (s *Store) Recovery() broker.RecoveryInfo { return s.recovery }
