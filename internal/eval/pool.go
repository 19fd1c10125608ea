package eval

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Pool evaluates points across a bounded set of worker goroutines. The zero
// value is ready to use: all cores, no deadline, memoization through
// DefaultCache.
//
// Determinism contract: EvaluateAll(points)[i] is exactly what
// Evaluate(ctx, points[i]) returns, for every worker count — workers only
// decide *when* a point is computed, never *what*. Error reporting is
// deterministic too: the error returned is the one the serial path would
// have hit first (lowest input index).
type Pool struct {
	// Workers bounds concurrency; 0 uses GOMAXPROCS, 1 forces the serial
	// path.
	Workers int
	// Ctx cancels outstanding work; nil defaults to context.Background().
	Ctx context.Context
	// Timeout, when positive, is a per-point deadline layered over Ctx.
	Timeout time.Duration
	// Cache memoizes results; nil means no memoization. Use DefaultPool
	// (or set Cache = DefaultCache) for the shared process-wide cache.
	Cache *Cache
}

// DefaultPool is a ready-to-use pool over all cores with the shared cache.
var DefaultPool = &Pool{Cache: DefaultCache}

func (pl *Pool) ctx() context.Context {
	if pl.Ctx != nil {
		return pl.Ctx
	}
	return context.Background()
}

func (pl *Pool) workers(n int) int {
	w := pl.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// Evaluate computes a single point through the pool's cache and deadline
// (no fan-out).
func (pl *Pool) Evaluate(p Point) (Result, error) {
	return pl.evalOne(pl.ctx(), p)
}

func (pl *Pool) evalOne(ctx context.Context, p Point) (Result, error) {
	if pl.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, pl.Timeout)
		defer cancel()
	}
	key, cacheable := Key{}, false
	if pl.Cache != nil {
		key, cacheable = keyOf(p)
	}
	if !cacheable {
		return Evaluate(ctx, p)
	}
	if r, hit := pl.Cache.Get(key); hit {
		recordHit()
		return r, nil
	}
	// In-flight dedup: one leader evaluates, concurrent identical points
	// wait for its result. Determinism is free — a shared Result is exactly
	// what the follower would have computed (the Workers=1-vs-8 identity
	// contract), so dedup only changes wall-clock time, like the cache.
	f, leader := pl.Cache.flight.Join(key)
	if leader {
		recordMiss()
		r, err := Evaluate(ctx, p)
		if err == nil {
			pl.Cache.Put(key, r)
		}
		pl.Cache.flight.Finish(key, f, r, err)
		return r, err
	}
	recordDedup()
	if err := f.Wait(ctx); err != nil {
		return Result{}, err
	}
	if r, err := f.Result(); err == nil {
		return r, nil
	}
	// The leader failed; evaluate independently so this caller reports its
	// own error (the leader's context may have differed).
	recordMiss()
	r, err := Evaluate(ctx, p)
	if err == nil {
		pl.Cache.Put(key, r)
	}
	return r, err
}

// Fan runs fn(i) for every i in [0, n) across at most workers goroutines
// (workers <= 0 uses GOMAXPROCS) and returns when all calls have finished.
// Indexes are issued in order, results land wherever fn writes them, and fn
// handles its own errors — the generic skeleton of EvaluateAll, exported so
// other fan-out consumers (the serving layer's batch endpoint) share the
// evaluation engine's worker discipline instead of growing their own.
func Fan(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// EvaluateAll evaluates every point and returns results indexed by input
// position. On error it returns the lowest-index failure, matching what a
// serial loop over the points would report; once a failure is observed no
// further points are started, though already-started points run to
// completion.
func (pl *Pool) EvaluateAll(points []Point) ([]Result, error) {
	n := len(points)
	results := make([]Result, n)
	if n == 0 {
		return results, nil
	}
	ctx := pl.ctx()
	if pl.workers(n) == 1 {
		for i, p := range points {
			r, err := pl.evalOne(ctx, p)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}

	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := pl.workers(n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				// An issued index is always evaluated to completion
				// (failure only stops issuing new ones): every index
				// below a failed one therefore records its own outcome,
				// which is what makes error reporting deterministic.
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				r, err := pl.evalOne(ctx, points[i])
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	// Indices are issued in order, so every index below a failed one was
	// fully evaluated: the first recorded error is the one the serial
	// path would have returned.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
