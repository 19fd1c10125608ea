package durable

import (
	"rsgen/internal/broker"
	"rsgen/internal/obs"
)

// metrics is the rsgend_store_* family set. It lives on its own registry
// which the broker mounts into the service scrape only when the configured
// store actually is durable — the in-memory fast path keeps its exposition
// byte-identical to before persistence existed.
type metrics struct {
	reg *obs.Registry

	appendSeconds *obs.Histogram
	walRecords    *obs.Counter
	walBytes      *obs.Counter
	appendErrors  *obs.Counter
	walSwallowed  *obs.Counter
	walSyncs      *obs.Counter
	walUnsynced   *obs.Gauge

	snapshotSeconds *obs.Histogram
	snapshotBytes   *obs.Gauge
	snapshots       *obs.Counter
	snapshotErrors  *obs.Counter

	recoverySnapshot *obs.Gauge
	recoveryReplayed *obs.Gauge
	recoveryTorn     *obs.Gauge
	recoveryLeases   *obs.Gauge
	recoveryExpired  *obs.Gauge
}

func newMetrics() *metrics {
	reg := obs.NewRegistry()
	return &metrics{
		reg:           reg,
		appendSeconds: reg.Histogram("rsgend_store_wal_append_seconds", obs.DefBuckets),
		walRecords:    reg.Counter("rsgend_store_wal_records_total"),
		walBytes:      reg.Counter("rsgend_store_wal_bytes_total"),
		appendErrors:  reg.Counter("rsgend_store_wal_append_errors_total"),
		// Journal failures the store deliberately survives (a release whose
		// append failed, or a sweep that could not fsync the releases before
		// it): zero on a healthy disk, and the signal that leases will
		// resurrect after the next crash when it moves.
		walSwallowed: reg.Counter("rsgend_store_wal_swallowed_errors_total"),
		// Fsyncs of the log, and the records written since the last one
		// (releases, which ride the next sync): fsyncs per session and the
		// exposure to a machine crash, read off the scrape.
		walSyncs:    reg.Counter("rsgend_store_wal_syncs_total"),
		walUnsynced: reg.Gauge("rsgend_store_wal_unsynced_records"),

		snapshotSeconds: reg.Histogram("rsgend_store_snapshot_seconds", obs.DefBuckets),
		snapshotBytes:   reg.Gauge("rsgend_store_snapshot_bytes"),
		snapshots:       reg.Counter("rsgend_store_snapshots_total"),
		snapshotErrors:  reg.Counter("rsgend_store_snapshot_errors_total"),

		recoverySnapshot: reg.Gauge("rsgend_store_recovery_snapshot_loaded"),
		recoveryReplayed: reg.Gauge("rsgend_store_recovery_records_replayed"),
		recoveryTorn:     reg.Gauge("rsgend_store_recovery_torn_tail_bytes"),
		recoveryLeases:   reg.Gauge("rsgend_store_recovery_leases_recovered"),
		recoveryExpired:  reg.Gauge("rsgend_store_recovery_leases_expired"),
	}
}

// setRecovery publishes what Open's crash recovery found, once.
func (m *metrics) setRecovery(r broker.RecoveryInfo) {
	if r.SnapshotLoaded {
		m.recoverySnapshot.Set(1)
	}
	m.recoveryReplayed.Set(int64(r.RecordsReplayed))
	m.recoveryTorn.Set(r.TornTailBytes)
	m.recoveryLeases.Set(int64(r.LeasesRecovered))
	m.recoveryExpired.Set(int64(r.LeasesExpired))
}

// MetricsRegistry exposes the rsgend_store_* families; the broker mounts
// this into the service registry when it detects a store that has one.
func (s *Store) MetricsRegistry() *obs.Registry { return s.met.reg }
