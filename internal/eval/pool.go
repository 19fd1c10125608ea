package eval

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rsgen/internal/sched"
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
	// Cache memoizes results; nil means no memoization. Set Cache =
	// DefaultCache for the shared process-wide cache.
	Cache *LRU[Key, Result]
}

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

// evalOne evaluates one point under the pool's deadline, through its cache
// when the point is cacheable: Get, else evaluate and Put. Two workers that
// meet on one uncached point both compute it and store the same Result;
// in-flight dedup lives at the response layer (internal/service), where
// concurrent identical requests actually occur.
func (pl *Pool) evalOne(ctx context.Context, p Point, plans map[planKey]*sched.Plan) (Result, error) {
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
		return evaluate(ctx, p, plans)
	}
	if r, hit := pl.Cache.Get(key); hit {
		recordHit()
		return r, nil
	}
	recordMiss()
	r, err := evaluate(ctx, p, plans)
	if err == nil {
		pl.Cache.Put(key, r)
	}
	return r, err
}

// Fan runs fn(i) for every i in [0, n) across at most workers goroutines
// (workers <= 0 uses GOMAXPROCS) and returns when all calls have finished.
// Indexes are issued in order, results land wherever fn writes them, and fn
// handles its own errors — the generic skeleton of EvaluateAll, exported so
// the serving layer's batch endpoint resolves its members under the
// evaluation engine's worker discipline. (That endpoint's DAG decodes run
// on goroutines of their own, because they start while the envelope walk is
// still finding members, before the member count is known.)
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
// position, compiling each distinct (DAG, heuristic) pair once for the
// call. On error it returns the lowest-index failure, matching what a
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
	plans := compilePlans(points)
	if pl.workers(n) == 1 {
		for i, p := range points {
			r, err := pl.evalOne(ctx, p, plans)
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
				r, err := pl.evalOne(ctx, points[i], plans)
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
