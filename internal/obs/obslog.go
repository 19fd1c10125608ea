// ObsLog is the flight recorder's durable tail: an append-only JSONL file
// of observations under -obs-dir, size-capped with numbered rotation
// (observations.jsonl -> .1 -> .2 ...) and batched fsync so a steady churn
// of lease endings does not turn into one disk sync per request.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// obsLogName is the active segment's file name inside the log directory.
const obsLogName = "observations.jsonl"

// ObsLogOptions tunes the observation log; the zero value selects the
// defaults noted on each field.
type ObsLogOptions struct {
	// MaxBytes caps the active segment before rotation (default 8 MiB).
	MaxBytes int64
	// MaxFiles caps how many rotated segments are kept beyond the active
	// one (default 4); older segments are deleted.
	MaxFiles int
	// NoSync disables fsync entirely (tests).
	NoSync bool
}

func (o ObsLogOptions) withDefaults() ObsLogOptions {
	if o.MaxBytes <= 0 {
		o.MaxBytes = 8 << 20
	}
	if o.MaxFiles <= 0 {
		o.MaxFiles = 4
	}
	return o
}

// syncEvery batches fsync: the file is synced once per this many appends.
// Every append is still flushed to the OS, so only a machine crash — not a
// process crash — can lose the tail.
const syncEvery = 64

// ObsLog appends observations as JSONL. Safe for concurrent use.
type ObsLog struct {
	dir  string
	opts ObsLogOptions

	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	size    int64
	pending int // appends since the last fsync
	closed  bool
}

// OpenObsLog opens (creating if needed) the observation log in dir. An
// existing active segment is appended to, so restarts extend the history
// rather than truncating it.
func OpenObsLog(dir string, opts ObsLogOptions) (*ObsLog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("obslog: create dir: %w", err)
	}
	l := &ObsLog{dir: dir, opts: opts.withDefaults()}
	if err := l.openLocked(); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *ObsLog) openLocked() error {
	f, err := os.OpenFile(filepath.Join(l.dir, obsLogName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("obslog: open: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("obslog: stat: %w", err)
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	l.size = st.Size()
	return nil
}

// Path returns the active segment's path (for operators and tests).
func (l *ObsLog) Path() string { return filepath.Join(l.dir, obsLogName) }

// Append writes one observation as a JSONL line, rotating first when the
// active segment is full. The line is flushed to the OS before returning;
// fsync is batched per syncEvery.
func (l *ObsLog) Append(o Observation) error {
	line, err := json.Marshal(o)
	if err != nil {
		return fmt.Errorf("obslog: marshal: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("obslog: closed")
	}
	if l.size > 0 && l.size+int64(len(line))+1 > l.opts.MaxBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := l.w.Write(line); err != nil {
		return fmt.Errorf("obslog: write: %w", err)
	}
	if err := l.w.WriteByte('\n'); err != nil {
		return fmt.Errorf("obslog: write: %w", err)
	}
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("obslog: flush: %w", err)
	}
	l.size += int64(len(line)) + 1
	l.pending++
	if !l.opts.NoSync && l.pending >= syncEvery {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("obslog: sync: %w", err)
		}
		l.pending = 0
	}
	return nil
}

// rotateLocked shifts observations.jsonl -> .1 -> .2 ... dropping the
// oldest past MaxFiles, then reopens a fresh active segment.
func (l *ObsLog) rotateLocked() error {
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("obslog: rotate flush: %w", err)
	}
	if !l.opts.NoSync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("obslog: rotate sync: %w", err)
		}
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("obslog: rotate close: %w", err)
	}
	base := filepath.Join(l.dir, obsLogName)
	os.Remove(fmt.Sprintf("%s.%d", base, l.opts.MaxFiles))
	for i := l.opts.MaxFiles - 1; i >= 1; i-- {
		os.Rename(fmt.Sprintf("%s.%d", base, i), fmt.Sprintf("%s.%d", base, i+1))
	}
	if err := os.Rename(base, base+".1"); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("obslog: rotate rename: %w", err)
	}
	l.pending = 0
	return l.openLocked()
}

// Sync forces an fsync of the active segment.
func (l *ObsLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("obslog: closed")
	}
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("obslog: flush: %w", err)
	}
	if l.opts.NoSync {
		return nil
	}
	l.pending = 0
	return l.f.Sync()
}

// Close flushes, syncs and closes the log. Further appends fail.
func (l *ObsLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.w.Flush(); err != nil {
		l.f.Close()
		return fmt.Errorf("obslog: close flush: %w", err)
	}
	if !l.opts.NoSync {
		if err := l.f.Sync(); err != nil {
			l.f.Close()
			return fmt.Errorf("obslog: close sync: %w", err)
		}
	}
	return l.f.Close()
}
