//go:build race

package sched

// raceEnabled lets allocation tests skip under the race detector, which
// makes sync.Pool drop pooled states at random.
const raceEnabled = true
