package broker

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"rsgen/internal/bind"
	"rsgen/internal/platform"
)

// InventoryRecord is the serializable form of a registered inventory: the
// platform itself plus every cluster's manager. It is what a Store persists
// and what crash recovery hands back to Broker.New, which re-materializes
// the selection backends (selectors are derived state and never persisted).
type InventoryRecord struct {
	Platform *platform.Platform `json:"platform"`
	Managers []bind.Manager     `json:"managers"`
}

// Grid rebuilds the binding layer from the persisted managers.
func (r *InventoryRecord) Grid() *bind.Grid {
	g := bind.DedicatedGrid(r.Platform)
	for _, m := range r.Managers {
		g.SetManager(m)
	}
	return g
}

// NewInventoryRecord captures a live platform + grid pair in persistable
// form.
func NewInventoryRecord(p *platform.Platform, grid *bind.Grid) *InventoryRecord {
	managers := make([]bind.Manager, grid.NumClusters())
	for i := range managers {
		managers[i] = grid.Manager(i)
	}
	return &InventoryRecord{Platform: p, Managers: managers}
}

// RecoveryInfo reports what a Store's crash recovery found at open time.
// The zero value (Durable false) is the in-memory store's answer: nothing
// was recovered because nothing is ever persisted.
type RecoveryInfo struct {
	// Durable reports whether a persistent store backs the broker.
	Durable bool `json:"durable"`
	// SnapshotLoaded reports whether a compaction snapshot was restored.
	SnapshotLoaded bool `json:"snapshot_loaded,omitempty"`
	// RecordsReplayed counts WAL records applied after the snapshot.
	RecordsReplayed int `json:"records_replayed,omitempty"`
	// TornTailBytes counts trailing WAL bytes dropped because their record
	// was torn (partial write) or failed its CRC.
	TornTailBytes int64 `json:"torn_tail_bytes,omitempty"`
	// LeasesRecovered counts leases live after replay, before TTL expiry.
	LeasesRecovered int `json:"leases_recovered,omitempty"`
	// LeasesExpired counts recovered leases dropped because their TTL
	// passed while the process was down.
	LeasesExpired int `json:"leases_expired,omitempty"`
	// InventoryRecovered reports whether a registered inventory survived.
	InventoryRecovered bool `json:"inventory_recovered,omitempty"`
}

// SnapshotState is a point-in-time copy of a store's full mutable state:
// what a durable store writes at compaction and restores at open.
type SnapshotState struct {
	Generation   uint64
	NextID       uint64
	ExpiredTotal uint64
	Inventory    *InventoryRecord
	Leases       []*Lease
}

// Store owns the broker's mutable state: the registered inventory record,
// the inventory generation (a monotonic epoch bumped on every
// registration), and the host-lease table. Implementations must be safe
// for concurrent use.
//
// MemStore is the zero-overhead in-memory fast path;
// internal/broker/durable adds a write-ahead log + snapshot around the
// same state machine so the state survives a crash.
type Store interface {
	// RegisterInventory replaces the inventory, drops every lease (their
	// hosts no longer exist), and returns the bumped generation. An error
	// means the registration could not be made durable and was not applied
	// logically consistently; callers should retry.
	RegisterInventory(rec *InventoryRecord, now time.Time) (uint64, error)
	// Generation returns the current inventory epoch (0 before any
	// registration).
	Generation() uint64
	// Acquire atomically leases every host or none, stamping BoundAt and
	// the meta annotations onto the lease. An error is either a lost
	// acquisition race (a host already held) or, for durable stores, a
	// persistence failure — in both cases no lease is held afterwards.
	Acquire(hosts []platform.Host, ttl time.Duration, now time.Time, meta LeaseMeta) (*Lease, error)
	// Release frees a lease's hosts; false for unknown or expired IDs.
	Release(id string, now time.Time) bool
	// Swap atomically replaces lease oldID with a fresh lease over hosts,
	// preserving oldID's expiry deadline (a transparent rebind must not
	// extend the client's TTL). It fails with ErrLeaseGone when oldID is no
	// longer held (released or expired — a gone lease is never resurrected)
	// and with a conflict error when a new host is held by another lease;
	// either way the old lease is untouched on failure. Durable stores
	// journal the swap as one record so recovery sees the old lease or the
	// new one, never both and never neither.
	Swap(oldID string, hosts []platform.Host, now time.Time, meta LeaseMeta) (*Lease, error)
	// TakeExpired drains the leases reclaimed by TTL expiry since the last
	// call (bounded; see maxExpiredPending). The broker turns them into
	// end-of-lease observations.
	TakeExpired() []*Lease
	// Lookup returns a copy of a live lease; ok is false for unknown or
	// expired IDs.
	Lookup(id string, now time.Time) (Lease, bool)
	// Sweep reclaims expired leases, returning the total ever expired.
	Sweep(now time.Time) uint64
	// Leased returns the currently leased host set (the selection mask).
	Leased(now time.Time) map[platform.HostID]bool
	// Stats sweeps and reports occupancy.
	Stats(now time.Time) LeaseStats
	// RecoveredInventory returns the inventory restored by crash recovery,
	// nil when there is none. Broker.New materializes selectors from it
	// without clearing the recovered leases.
	RecoveredInventory() *InventoryRecord
	// Recovery reports what crash recovery found.
	Recovery() RecoveryInfo
	// Close flushes and releases any persistent resources.
	Close() error
}

// MemStore is the in-memory Store: the broker's original maps behind the
// Store interface. It is both the production fast path (no -state-dir) and
// the state machine durable stores journal around — the Restore* methods
// exist for their replay path and skip sweeping and ID allocation.
type MemStore struct {
	mu         sync.Mutex
	byHost     map[platform.HostID]string // host → holding lease ID
	byID       map[string]*Lease
	nextID     uint64
	expired    uint64 // total leases reclaimed by TTL expiry
	generation uint64
	inv        *InventoryRecord
	// earliest is a lower bound on every held lease's deadline, meaningful
	// while byID is non-empty: lowered whenever a lease enters the table,
	// recomputed by each full sweep. Releases leave it alone (a stale low
	// bound only costs one scan that finds nothing), so sweepLocked can
	// return without touching the table until the clock reaches it.
	earliest time.Time
	// expiredPending holds TTL-reclaimed leases until TakeExpired drains
	// them (bounded by maxExpiredPending, oldest dropped first).
	expiredPending []*Lease
}

// maxExpiredPending bounds the undrained expired-lease queue so a broker
// that never drains it (no observation sink configured) cannot grow it
// without bound.
const maxExpiredPending = 4096

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{
		byHost: make(map[platform.HostID]string),
		byID:   make(map[string]*Lease),
	}
}

// sweepLocked reclaims every lease that expired at or before now. A zero
// now skips the sweep (recovery-time accounting reads).
func (s *MemStore) sweepLocked(now time.Time) {
	if now.IsZero() || len(s.byID) == 0 || now.Before(s.earliest) {
		return
	}
	var earliest time.Time
	for id, l := range s.byID {
		if !l.Expires.After(now) {
			for _, h := range l.Hosts {
				delete(s.byHost, h)
			}
			delete(s.byID, id)
			s.expired++
			s.expiredPending = append(s.expiredPending, l)
		} else if earliest.IsZero() || l.Expires.Before(earliest) {
			earliest = l.Expires
		}
	}
	s.earliest = earliest
	if drop := len(s.expiredPending) - maxExpiredPending; drop > 0 {
		s.expiredPending = append([]*Lease(nil), s.expiredPending[drop:]...)
	}
}

// TakeExpired drains the TTL-reclaimed leases accumulated since the last
// call.
func (s *MemStore) TakeExpired() []*Lease {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.expiredPending
	s.expiredPending = nil
	return out
}

// RegisterInventory replaces the inventory, bumps the generation, and drops
// every lease.
func (s *MemStore) RegisterInventory(rec *InventoryRecord, now time.Time) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.generation++
	s.inv = rec
	s.byHost = make(map[platform.HostID]string)
	s.byID = make(map[string]*Lease)
	return s.generation, nil
}

// Generation returns the inventory epoch.
func (s *MemStore) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.generation
}

// InventoryRecord returns the currently registered inventory record (nil
// before registration).
func (s *MemStore) InventoryRecord() *InventoryRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inv
}

// Sweep reclaims expired leases and reports how many are gone in total.
func (s *MemStore) Sweep(now time.Time) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked(now)
	return s.expired
}

// Leased returns the currently leased host set: the exclusion mask for the
// next selection attempt.
func (s *MemStore) Leased(now time.Time) map[platform.HostID]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked(now)
	out := make(map[platform.HostID]bool, len(s.byHost))
	for h := range s.byHost {
		out[h] = true
	}
	return out
}

// Acquire atomically leases every host or none: if any host is already held
// (a concurrent session won the race between selection and acquisition) the
// whole acquisition fails and the caller re-selects with a fresh mask.
func (s *MemStore) Acquire(hosts []platform.Host, ttl time.Duration, now time.Time, meta LeaseMeta) (*Lease, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked(now)
	for _, h := range hosts {
		if holder, ok := s.byHost[h.ID]; ok {
			return nil, fmt.Errorf("broker: host %d already leased by %s", h.ID, holder)
		}
	}
	s.nextID++
	l := newLease(fmt.Sprintf("lease-%08d", s.nextID), now.Add(ttl), now, meta, hosts)
	s.holdLocked(l)
	return l, nil
}

// holdLocked enters a lease into both maps and lowers the earliest-deadline
// bound to cover it.
func (s *MemStore) holdLocked(l *Lease) {
	if len(s.byID) == 0 || l.Expires.Before(s.earliest) {
		s.earliest = l.Expires
	}
	for _, h := range l.Hosts {
		s.byHost[h] = l.ID
	}
	s.byID[l.ID] = l
}

// newLease assembles a lease from an acquisition's parts: the host IDs are
// copied and sorted, BoundAt is stamped from now, and the meta annotations
// ride along verbatim.
func newLease(id string, expires, now time.Time, meta LeaseMeta, hosts []platform.Host) *Lease {
	l := &Lease{
		ID:                  id,
		Hosts:               make([]platform.HostID, len(hosts)),
		Expires:             expires,
		Rung:                meta.Rung,
		Backend:             meta.Backend,
		BoundAt:             now,
		PredictedTurnAround: meta.PredictedTurnAround,
		FrontRank:           meta.FrontRank,
		Fingerprint:         meta.Fingerprint,
		Heuristic:           meta.Heuristic,
		HourlyUSD:           meta.HourlyUSD,
		Watts:               meta.Watts,
	}
	for i, h := range hosts {
		l.Hosts[i] = h.ID
	}
	sort.Slice(l.Hosts, func(i, j int) bool { return l.Hosts[i] < l.Hosts[j] })
	return l
}

// Release frees a lease's hosts; ok is false for unknown (or already
// expired) lease IDs.
func (s *MemStore) Release(id string, now time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked(now)
	return s.releaseLocked(id)
}

// Swap atomically replaces lease oldID with a fresh lease over hosts. The
// new lease inherits the old deadline; on any failure the old lease remains
// exactly as it was.
func (s *MemStore) Swap(oldID string, hosts []platform.Host, now time.Time, meta LeaseMeta) (*Lease, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked(now)
	old, ok := s.byID[oldID]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrLeaseGone, oldID)
	}
	s.releaseLocked(oldID)
	for _, h := range hosts {
		if holder, ok := s.byHost[h.ID]; ok {
			s.restoreLeaseLocked(old)
			return nil, fmt.Errorf("broker: host %d already leased by %s", h.ID, holder)
		}
	}
	s.nextID++
	l := newLease(fmt.Sprintf("lease-%08d", s.nextID), old.Expires, now, meta, hosts)
	s.holdLocked(l)
	return l, nil
}

// Lookup returns a copy of a live lease (the hosts slice is cloned so
// callers can hold it without racing the table).
func (s *MemStore) Lookup(id string, now time.Time) (Lease, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked(now)
	l, ok := s.byID[id]
	if !ok {
		return Lease{}, false
	}
	cp := *l
	cp.Hosts = append([]platform.HostID(nil), l.Hosts...)
	return cp, true
}

func (s *MemStore) releaseLocked(id string) bool {
	l, ok := s.byID[id]
	if !ok {
		return false
	}
	for _, h := range l.Hosts {
		delete(s.byHost, h)
	}
	delete(s.byID, id)
	return true
}

// Stats sweeps and reports occupancy.
func (s *MemStore) Stats(now time.Time) LeaseStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked(now)
	st := LeaseStats{
		ActiveLeases: len(s.byID),
		LeasedHosts:  len(s.byHost),
		ExpiredTotal: s.expired,
	}
	for _, l := range s.byID {
		if l.BoundAt.IsZero() {
			continue // pre-annotation lease: no bind timestamp to report
		}
		if st.OldestBoundAt.IsZero() || l.BoundAt.Before(st.OldestBoundAt) {
			st.OldestBoundAt = l.BoundAt
		}
	}
	return st
}

// RecoveredInventory is nil: an in-memory store never recovers anything.
func (s *MemStore) RecoveredInventory() *InventoryRecord { return nil }

// Recovery is the zero RecoveryInfo: nothing persisted, nothing recovered.
func (s *MemStore) Recovery() RecoveryInfo { return RecoveryInfo{} }

// Close is a no-op.
func (s *MemStore) Close() error { return nil }

// Snapshot copies the full state under one lock acquisition, sweeping
// expired leases first unless now is zero. Durable stores call it at
// compaction time; the lease slice is sorted by ID so snapshots of equal
// states are byte-equal once serialized.
func (s *MemStore) Snapshot(now time.Time) *SnapshotState {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked(now)
	st := &SnapshotState{
		Generation:   s.generation,
		NextID:       s.nextID,
		ExpiredTotal: s.expired,
		Inventory:    s.inv,
		Leases:       make([]*Lease, 0, len(s.byID)),
	}
	for _, l := range s.byID {
		st.Leases = append(st.Leases, l)
	}
	sort.Slice(st.Leases, func(i, j int) bool { return st.Leases[i].ID < st.Leases[j].ID })
	return st
}

// RestoreSnapshot installs a snapshot wholesale, replacing the current
// state (durable-store recovery, step one).
func (s *MemStore) RestoreSnapshot(st *SnapshotState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.generation = st.Generation
	s.nextID = st.NextID
	s.expired = st.ExpiredTotal
	s.inv = st.Inventory
	s.byHost = make(map[platform.HostID]string)
	s.byID = make(map[string]*Lease)
	for _, l := range st.Leases {
		s.restoreLeaseLocked(l)
	}
}

// RestoreInventory replays an inventory registration: install the record,
// set the persisted generation, drop every lease (mirroring
// RegisterInventory's runtime semantics).
func (s *MemStore) RestoreInventory(rec *InventoryRecord, generation uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inv = rec
	if generation > s.generation {
		s.generation = generation
	}
	s.byHost = make(map[platform.HostID]string)
	s.byID = make(map[string]*Lease)
}

// RestoreLease replays an acquisition without sweeping or allocating an ID.
// Re-applying a record is idempotent (compaction can race an append, so a
// lease may appear in both the snapshot and the WAL): the incoming lease
// replaces any same-ID lease, and any other lease holding one of its hosts
// is evicted so the host↔lease maps stay consistent.
func (s *MemStore) RestoreLease(l *Lease) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.restoreLeaseLocked(l)
}

func (s *MemStore) restoreLeaseLocked(l *Lease) {
	s.releaseLocked(l.ID)
	for _, h := range l.Hosts {
		if other, ok := s.byHost[h]; ok {
			s.releaseLocked(other)
		}
	}
	s.holdLocked(l)
}

// RestoreRelease replays a release without sweeping; unknown IDs are
// ignored (the lease may have been dropped by a later snapshot already).
func (s *MemStore) RestoreRelease(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.releaseLocked(id)
}

// BumpNextID raises the ID allocator to at least n so recovered lease IDs
// are never reissued.
func (s *MemStore) BumpNextID(n uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n > s.nextID {
		s.nextID = n
	}
}
