package eval

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Package-wide counters, aggregated across every Pool and Evaluate call.
// They are monotone; take Snapshot deltas to meter one experiment.
var counters struct {
	points      atomic.Uint64
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
	rcBuildNS   atomic.Int64
	scheduleNS  atomic.Int64
}

func recordPoint()                   { counters.points.Add(1) }
func recordHit()                     { counters.cacheHits.Add(1) }
func recordMiss()                    { counters.cacheMisses.Add(1) }
func recordRCBuild(d time.Duration)  { counters.rcBuildNS.Add(int64(d)) }
func recordSchedule(d time.Duration) { counters.scheduleNS.Add(int64(d)) }

// Stats is a snapshot of the engine's lightweight counters: points actually
// evaluated, cache traffic, and cumulative wall time per evaluation stage
// (summed across workers, so a stage can exceed elapsed wall clock under
// parallelism).
type Stats struct {
	Points      uint64
	CacheHits   uint64
	CacheMisses uint64
	RCBuild     time.Duration
	Schedule    time.Duration
}

// Snapshot reads the current counter values.
func Snapshot() Stats {
	return Stats{
		Points:      counters.points.Load(),
		CacheHits:   counters.cacheHits.Load(),
		CacheMisses: counters.cacheMisses.Load(),
		RCBuild:     time.Duration(counters.rcBuildNS.Load()),
		Schedule:    time.Duration(counters.scheduleNS.Load()),
	}
}

// ResetStats zeroes every counter (tests and benchmarks).
func ResetStats() {
	counters.points.Store(0)
	counters.cacheHits.Store(0)
	counters.cacheMisses.Store(0)
	counters.rcBuildNS.Store(0)
	counters.scheduleNS.Store(0)
}

// Sub returns the counter deltas since an earlier snapshot.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Points:      s.Points - prev.Points,
		CacheHits:   s.CacheHits - prev.CacheHits,
		CacheMisses: s.CacheMisses - prev.CacheMisses,
		RCBuild:     s.RCBuild - prev.RCBuild,
		Schedule:    s.Schedule - prev.Schedule,
	}
}

// String renders a compact progress line, e.g.
// "184 pts, 36 hits/148 misses, sched 1.2s".
func (s Stats) String() string {
	return fmt.Sprintf("%d pts, %d hits/%d misses, sched %s",
		s.Points, s.CacheHits, s.CacheMisses, s.Schedule.Round(time.Millisecond))
}
