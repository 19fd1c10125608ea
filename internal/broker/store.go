package broker

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
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
// what a durable store writes at compaction and resumes from at open.
type SnapshotState struct {
	Generation   uint64           `json:"generation"`
	NextID       uint64           `json:"next_id"`
	ExpiredTotal uint64           `json:"expired_total"`
	Inventory    *InventoryRecord `json:"inventory,omitempty"`
	Leases       []*Lease         `json:"leases,omitempty"`
}

// Record operations.
const (
	OpInventory = "inventory"
	OpAcquire   = "acquire"
	OpRelease   = "release"
	OpSwap      = "swap"
)

// Record is one store mutation, complete: the lease ID is allocated and
// every timestamp stamped before it exists, so applying it needs nothing
// but the record. Its JSON form is the durable store's WAL payload.
type Record struct {
	Op string `json:"op"`
	// Generation and Inventory accompany OpInventory.
	Generation uint64           `json:"generation,omitempty"`
	Inventory  *InventoryRecord `json:"inventory,omitempty"`
	// Lease accompanies OpAcquire; for OpSwap it is the replacement lease.
	Lease *Lease `json:"lease,omitempty"`
	// LeaseID accompanies OpRelease; for OpSwap it is the replaced lease.
	LeaseID string `json:"lease_id,omitempty"`
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
	// means the registration could not be made durable and was not applied;
	// callers should retry.
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
// the state machine durable stores journal: see commit, LoadMemStore and
// Apply.
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
	// journal, when set, runs between each mutation's prepare and apply;
	// inflight is the record it is writing. Meanwhile a grant's hosts stay
	// in the selection mask and the lease a release or swap targets is not
	// swept, so it ends exactly once.
	journal  func(*Record) error
	inflight *Record
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
		if !l.Expires.After(now) && (s.inflight == nil || s.inflight.LeaseID != id) {
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

// commit runs one mutation: prepare validates it and builds its complete
// record (nil: nothing to do) without changing state, applyLocked installs
// it, in one critical section — or, with a journal, the record is journaled
// in between, in flight with the lock released, and applied only if the
// journal accepts it. The zero Record means nothing was applied.
func (s *MemStore) commit(prepare func() (*Record, error)) (Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, err := prepare()
	if rec == nil {
		return Record{}, err
	}
	if s.journal != nil {
		s.inflight = rec
		s.mu.Unlock()
		err = s.journal(rec)
		s.mu.Lock()
		s.inflight = nil
		if err != nil {
			return Record{}, err
		}
	}
	s.applyLocked(rec)
	return *rec, nil
}

// Apply installs a record replayed from a log, with its recorded ID and
// timestamps.
func (s *MemStore) Apply(rec *Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applyLocked(rec)
}

// applyLocked is the one apply, live and replayed. Logs written before
// prepare and apply were one pipeline may repeat a lease the snapshot holds
// or grant a host ahead of the release that freed it: the incoming lease
// wins. Unknown ops are skipped, so an older binary keeps the rest.
func (s *MemStore) applyLocked(rec *Record) {
	switch rec.Op {
	case OpInventory:
		s.inv = rec.Inventory
		s.generation = max(s.generation, rec.Generation)
		s.byHost = make(map[platform.HostID]string)
		s.byID = make(map[string]*Lease)
	case OpRelease:
		s.releaseLocked(rec.LeaseID)
	case OpAcquire, OpSwap:
		l := rec.Lease
		if l == nil {
			return
		}
		s.releaseLocked(rec.LeaseID) // the swapped-out lease; "" for an acquire
		s.releaseLocked(l.ID)
		for _, h := range l.Hosts {
			if other, ok := s.byHost[h]; ok {
				s.releaseLocked(other)
			}
		}
		s.holdLocked(l)
		// A prepare names the next lease without taking the number, so a
		// refused grant leaves no gap; applying it takes the number.
		s.nextID = max(s.nextID, leaseSeq(l.ID))
	}
}

// leaseSeq extracts the allocation counter from a "lease-%08d" ID; 0 when
// the ID has another shape (the allocator then just never reuses it).
func leaseSeq(id string) uint64 {
	n, err := strconv.ParseUint(strings.TrimPrefix(id, "lease-"), 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// RegisterInventory replaces the inventory, bumps the generation, and drops
// every lease.
func (s *MemStore) RegisterInventory(rec *InventoryRecord, now time.Time) (uint64, error) {
	r, err := s.commit(func() (*Record, error) {
		return &Record{Op: OpInventory, Generation: s.generation + 1, Inventory: rec}, nil
	})
	return r.Generation, err
}

// Generation returns the inventory epoch.
func (s *MemStore) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.generation
}

// Sweep reclaims expired leases and reports how many are gone in total.
func (s *MemStore) Sweep(now time.Time) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked(now)
	return s.expired
}

// Leased returns the currently leased host set: the exclusion mask for the
// next selection attempt. The hosts of a grant still being journaled are
// in it already.
func (s *MemStore) Leased(now time.Time) map[platform.HostID]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked(now)
	out := make(map[platform.HostID]bool, len(s.byHost))
	for h := range s.byHost {
		out[h] = true
	}
	if s.inflight != nil && s.inflight.Lease != nil {
		for _, h := range s.inflight.Lease.Hosts {
			out[h] = true
		}
	}
	return out
}

// Acquire atomically leases every host or none: if any host is already held
// (a concurrent session won the race between selection and acquisition) the
// whole acquisition fails and the caller re-selects with a fresh mask.
func (s *MemStore) Acquire(hosts []platform.Host, ttl time.Duration, now time.Time, meta LeaseMeta) (*Lease, error) {
	rec, err := s.commit(func() (*Record, error) {
		s.sweepLocked(now)
		if err := s.freeLocked(hosts, ""); err != nil {
			return nil, err
		}
		return &Record{Op: OpAcquire, Lease: newLease(s.nextID+1, now.Add(ttl), now, meta, hosts)}, nil
	})
	return rec.Lease, err
}

// freeLocked fails unless every host is unheld or held by lease owner.
func (s *MemStore) freeLocked(hosts []platform.Host, owner string) error {
	for _, h := range hosts {
		if holder, ok := s.byHost[h.ID]; ok && holder != owner {
			return fmt.Errorf("broker: host %d already leased by %s", h.ID, holder)
		}
	}
	return nil
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

// newLease assembles a lease from an acquisition's parts: the ID is formed
// from seq, the host IDs are copied and sorted, BoundAt is stamped from now,
// and the meta annotations ride along verbatim.
func newLease(seq uint64, expires, now time.Time, meta LeaseMeta, hosts []platform.Host) *Lease {
	l := &Lease{
		ID:                  fmt.Sprintf("lease-%08d", seq),
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
	rec, _ := s.commit(func() (*Record, error) {
		s.sweepLocked(now)
		if _, ok := s.byID[id]; !ok {
			return nil, nil
		}
		return &Record{Op: OpRelease, LeaseID: id}, nil
	})
	return rec.Op != ""
}

// Swap atomically replaces lease oldID with a fresh lease over hosts. The
// new lease inherits the old deadline; on any failure the old lease remains
// exactly as it was.
func (s *MemStore) Swap(oldID string, hosts []platform.Host, now time.Time, meta LeaseMeta) (*Lease, error) {
	rec, err := s.commit(func() (*Record, error) {
		s.sweepLocked(now)
		old, ok := s.byID[oldID]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrLeaseGone, oldID)
		}
		if err := s.freeLocked(hosts, oldID); err != nil {
			return nil, err
		}
		return &Record{Op: OpSwap, LeaseID: oldID, Lease: newLease(s.nextID+1, old.Expires, now, meta, hosts)}, nil
	})
	return rec.Lease, err
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

// LoadMemStore resumes a store from a snapshot: its counters, then its
// inventory and leases applied as the records that put them there. A
// non-nil journal gets every later mutation's record between its prepare
// and its apply, and refuses the mutation by returning an error; mutations
// leave the lock while it runs, so the caller must serialize them.
func LoadMemStore(st *SnapshotState, journal func(*Record) error) *MemStore {
	s := NewMemStore()
	s.nextID, s.expired, s.journal = st.NextID, st.ExpiredTotal, journal
	s.applyLocked(&Record{Op: OpInventory, Generation: st.Generation, Inventory: st.Inventory})
	for _, l := range st.Leases {
		s.applyLocked(&Record{Op: OpAcquire, Lease: l})
	}
	return s
}
