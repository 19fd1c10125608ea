package moga

import "sync/atomic"

// Stats accumulates search counters across the lifetime of a process; the
// service exposes them as the rsgend_moga_* metric family when the backend is
// enabled. All methods are safe for concurrent use.
type Stats struct {
	searches    atomic.Int64
	evaluations atomic.Int64
	generations atomic.Int64
	frontSize   atomic.Int64 // size of the most recent front
	memoHits    atomic.Int64
}

// hit records a search a Memo answered with r.
func (s *Stats) hit(r *Result) {
	s.memoHits.Add(1)
	s.frontSize.Store(int64(len(r.Front)))
}

func (s *Stats) record(r *Result) {
	s.searches.Add(1)
	s.evaluations.Add(int64(r.Evaluations))
	s.generations.Add(int64(r.Generations))
	s.frontSize.Store(int64(len(r.Front)))
}

// Searches returns the number of completed searches run; a search answered
// by a Memo counts as a memo hit instead.
func (s *Stats) Searches() int64 { return s.searches.Load() }

// Evaluations returns the total unique objective evaluations spent.
func (s *Stats) Evaluations() int64 { return s.evaluations.Load() }

// Generations returns the total generations run.
func (s *Stats) Generations() int64 { return s.generations.Load() }

// MemoHits returns the number of searches a Memo answered without running.
func (s *Stats) MemoHits() int64 { return s.memoHits.Load() }

// LastFrontSize returns the size of the most recently returned front, memo
// hits included.
func (s *Stats) LastFrontSize() int64 { return s.frontSize.Load() }
