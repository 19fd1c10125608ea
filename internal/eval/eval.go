// Package eval is the shared parallel evaluation engine behind every
// empirical result in the repository. The primitive all of them build on —
// the knee curves of Chapter V, the heuristic decision surface of
// Chapter VI, and the Chapter IV/VII tables — is the same: evaluate the
// turn-around time (modeled scheduling time + makespan) of a set of DAG
// instances on a resource collection under one scheduling heuristic.
//
// The engine offers that primitive as a value type (Point) plus a pure
// function (Evaluate), and a bounded worker pool (Pool) that fans a slice
// of points across goroutines while preserving the determinism contract:
//
//   - Order preservation: Pool.EvaluateAll returns results indexed by input
//     position, and each point's arithmetic is identical to the serial
//     path, so output is bit-identical regardless of worker count or
//     goroutine scheduling order.
//   - Split seeds: heterogeneous resource collections draw their clock
//     rates from an xrand stream derived only from (Seed, size), never
//     from evaluation order, so parallel and serial runs see identical
//     platforms.
//   - Shared plans: one EvaluateAll call compiles each distinct (DAG,
//     heuristic) pair once into a sched.Plan its points share, and a plan
//     schedules exactly as a fresh one would.
//   - Memoization: a bounded LRU (DefaultCache) keyed by (dag.Key of each
//     DAG, RC size, heterogeneity, heuristic, clock, bandwidth, SCR, seed)
//     lets repeated evaluations — the knee sweep's revisited sizes, the
//     threshold family's re-reads, the validation search's overlap with
//     the sweep — return the stored Result instead of re-simulating. A
//     cached Result is exactly what Evaluate returned, so caching never
//     changes output. Concurrent evaluations of one uncached point are not
//     deduplicated: each computes the same Result.
//
// Cancellation is cooperative: the context is checked between task-graph
// schedules, so a stuck full-scale grid aborts at the next DAG boundary.
package eval

import (
	"context"
	"errors"
	"fmt"
	"time"

	"rsgen/internal/dag"
	"rsgen/internal/platform"
	"rsgen/internal/sched"
	"rsgen/internal/xrand"
)

// rcSeedLabel derives the per-size RNG stream for heterogeneous RC draws.
// The constant predates this package (it was knee's sweep label) and must
// not change: equal (Seed, size) must keep yielding the same platform.
const rcSeedLabel = 0xC0FFEE

// Point is one evaluation request: a set of same-configuration DAG
// instances and the resource condition to evaluate them under. Metrics are
// averaged over the DAGs.
type Point struct {
	// Dags are the instances to schedule; at least one is required.
	Dags []*dag.DAG
	// Size is the resource-collection size to build (ignored when RC is
	// set).
	Size int
	// RC, when non-nil, is an explicit resource collection to evaluate on
	// (the Chapter IV universe/TopHosts/VG schemes). Points with an
	// explicit RC are not memoizable.
	RC *platform.ResourceCollection
	// Heuristic schedules the DAGs; nil defaults to MCP.
	Heuristic sched.Heuristic
	// ClockGHz is the hosts' (mean) clock; 0 defaults to the 2.80 GHz
	// experimental hosts of §III.4.2.
	ClockGHz float64
	// Heterogeneity is the §V.4 clock spread: host clocks uniform in
	// ClockGHz·(1±Heterogeneity). 0 is homogeneous.
	Heterogeneity float64
	// BandwidthMbps is the uniform host-pair bandwidth; 0 defaults to the
	// 10 Gb/s reference.
	BandwidthMbps float64
	// SCR is the scheduler-clock-rate ratio of §V.7; 0 defaults to 1.
	SCR float64
	// Seed derives the RNG stream for heterogeneous RC draws.
	Seed uint64
}

func (p Point) withDefaults() Point {
	if p.Heuristic == nil {
		p.Heuristic = sched.MCP{}
	}
	if p.ClockGHz == 0 {
		p.ClockGHz = 2.8
	}
	if p.BandwidthMbps == 0 {
		p.BandwidthMbps = platform.ReferenceBandwidthMbps
	}
	if p.SCR == 0 {
		p.SCR = 1
	}
	return p
}

// rc materializes the point's resource collection. Heterogeneous draws are
// deterministic per (Seed, size), independent of evaluation order.
func (p Point) rc() *platform.ResourceCollection {
	if p.RC != nil {
		return p.RC
	}
	if p.Heterogeneity == 0 {
		return platform.HomogeneousRC(p.Size, p.ClockGHz, p.BandwidthMbps)
	}
	rng := xrand.NewFrom(p.Seed, rcSeedLabel, uint64(p.Size))
	return platform.HeterogeneousRC(p.Size, p.ClockGHz, p.Heterogeneity, p.BandwidthMbps, rng)
}

// Result is the evaluated point: mean metrics over the point's DAGs.
type Result struct {
	// Size is the evaluated RC size (the built size, or the explicit
	// RC's).
	Size int
	// TurnAround = SchedTime + Makespan, the §III.2.3 objective.
	TurnAround float64
	Makespan   float64
	SchedTime  float64
	// CostUSD is the mean resource cost of the run (RC held for the full
	// turn-around, §V.3.2.1).
	CostUSD float64
}

// Evaluate computes one point serially: materialize the RC, schedule every
// DAG, optionally replay through the simulator, and average the metrics.
// The context is checked between DAG schedules; a cancelled context aborts
// with its error.
func Evaluate(ctx context.Context, p Point) (Result, error) {
	return evaluate(ctx, p, nil)
}

// planKey identifies a compiled plan: a DAG and a heuristic value (every
// sched.Heuristic is comparable, and equal values schedule identically).
type planKey struct {
	d *dag.DAG
	h sched.Heuristic
}

// compilePlans compiles each distinct (DAG, heuristic) pair of points once.
// The map is complete before any point reads it, so it needs no lock.
func compilePlans(points []Point) map[planKey]*sched.Plan {
	plans := make(map[planKey]*sched.Plan)
	for _, p := range points {
		h := p.withDefaults().Heuristic
		for _, d := range p.Dags {
			if k := (planKey{d, h}); plans[k] == nil {
				plans[k] = sched.Compile(h, d)
			}
		}
	}
	return plans
}

// evaluate is Evaluate with the plans of an EvaluateAll call; a DAG without
// one there gets a plan of its own.
func evaluate(ctx context.Context, p Point, plans map[planKey]*sched.Plan) (Result, error) {
	p = p.withDefaults()
	if len(p.Dags) == 0 {
		return Result{}, errors.New("eval: point has no DAGs")
	}
	if p.RC == nil && p.Size < 1 {
		return Result{}, fmt.Errorf("eval: RC size %d < 1", p.Size)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	t0 := time.Now()
	rc := p.rc()
	recordRCBuild(time.Since(t0))

	res := Result{Size: rc.Size()}
	for _, d := range p.Dags {
		if err := ctx.Err(); err != nil {
			return Result{}, fmt.Errorf("eval: aborted: %w", err)
		}
		t1 := time.Now()
		plan := plans[planKey{d, p.Heuristic}]
		if plan == nil {
			plan = sched.Compile(p.Heuristic, d)
		}
		s, err := plan.Schedule(rc)
		recordSchedule(time.Since(t1))
		if err != nil {
			return Result{}, err
		}
		st := sched.SchedulingTime(s.Ops, p.SCR)
		ta := st + s.Makespan
		res.SchedTime += st
		res.Makespan += s.Makespan
		res.TurnAround += ta
		res.CostUSD += rc.Cost(ta)
	}
	n := float64(len(p.Dags))
	res.SchedTime /= n
	res.Makespan /= n
	res.TurnAround /= n
	res.CostUSD /= n
	recordPoint()
	return res, nil
}
