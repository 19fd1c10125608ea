// Package knee implements the resource-collection size prediction model of
// dissertation Chapter V: sweeping application turn-around time as a
// function of RC size, detecting the "knee" (the smallest RC size beyond
// which turn-around improves by less than a threshold), fitting the
// empirical surface log2(knee) = a·α + b·β + c per (DAG size, CCR) grid
// point, and interpolating between grid points to predict the best RC size
// for arbitrary DAGs.
package knee

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"rsgen/internal/dag"
	"rsgen/internal/eval"
	"rsgen/internal/sched"
)

// DefaultThreshold is the knee threshold of §V.2.2: the best RC size is the
// smallest size such that any bigger size improves turn-around by less than
// 0.1%.
const DefaultThreshold = 0.001

// Thresholds is the threshold family the model is trained for, enabling the
// performance/cost utility trade-off of §V.3.2.3.
var Thresholds = []float64{0.001, 0.005, 0.01, 0.02, 0.05, 0.10}

// SweepConfig fixes the resource conditions and scheduler for a knee sweep.
type SweepConfig struct {
	// Heuristic schedules the DAGs; nil defaults to MCP, the reference
	// heuristic of Chapter V.
	Heuristic sched.Heuristic
	// ClockGHz is the compute hosts' (mean) clock; 0 defaults to the
	// 2.80 GHz experimental hosts of §III.4.2.
	ClockGHz float64
	// Heterogeneity is the clock-rate heterogeneity of §V.4: host clocks
	// are uniform in ClockGHz·(1±Heterogeneity). 0 is homogeneous.
	Heterogeneity float64
	// BandwidthMbps is the uniform host-pair bandwidth; 0 defaults to the
	// 10 Gb/s reference (homogeneous-network model of §V.2).
	BandwidthMbps float64
	// SCR is the scheduler-clock-rate ratio of §V.7; 0 defaults to 1
	// (the 2.80 GHz reference scheduler).
	SCR float64
	// GridFactor controls RC-size sampling resolution: successive sweep
	// sizes grow by this factor (at least +1). 0 defaults to 1.08.
	GridFactor float64
	// MaxSize caps the sweep; 0 defaults to 10% above the widest DAG.
	MaxSize int
	// Seed derives the RNG streams for heterogeneous RC draws.
	Seed uint64
	// Workers bounds the evaluation pool's concurrency; 0 uses all cores,
	// 1 forces serial evaluation. Output is identical either way.
	Workers int
	// Timeout, when positive, is a per-evaluation-point deadline.
	Timeout time.Duration
	// Ctx cancels in-flight sweeps; nil defaults to context.Background().
	Ctx context.Context
	// NoCache disables memoization through eval.DefaultCache (benchmarks).
	NoCache bool
}

func (c SweepConfig) withDefaults() SweepConfig {
	if c.Heuristic == nil {
		c.Heuristic = sched.MCP{}
	}
	if c.GridFactor == 0 {
		c.GridFactor = 1.08
	}
	return c
}

// point translates the sweep's resource condition into an evaluation
// request at the given RC size.
func (c SweepConfig) point(dags []*dag.DAG, size int) eval.Point {
	return eval.Point{
		Dags:          dags,
		Size:          size,
		Heuristic:     c.Heuristic,
		ClockGHz:      c.ClockGHz,
		Heterogeneity: c.Heterogeneity,
		BandwidthMbps: c.BandwidthMbps,
		SCR:           c.SCR,
		Seed:          c.Seed,
	}
}

// pool builds the evaluation pool the sweep fans points through.
func (c SweepConfig) pool() *eval.Pool {
	pl := &eval.Pool{Workers: c.Workers, Ctx: c.Ctx, Timeout: c.Timeout}
	if !c.NoCache {
		pl.Cache = eval.DefaultCache
	}
	return pl
}

func fromResult(r eval.Result) Point {
	return Point{
		Size:       r.Size,
		TurnAround: r.TurnAround,
		Makespan:   r.Makespan,
		SchedTime:  r.SchedTime,
		CostUSD:    r.CostUSD,
	}
}

// Point is one sampled RC size on a turn-around curve. All time fields are
// means over the swept DAGs.
type Point struct {
	Size       int
	TurnAround float64
	Makespan   float64
	SchedTime  float64
	// CostUSD is the mean resource cost of the run at this size
	// (RC held for the full turn-around, §V.3.2.1).
	CostUSD float64
}

// Curve is turn-around versus RC size, sizes strictly increasing.
type Curve struct {
	Points []Point
}

// EvalSize schedules every DAG on an RC of the given size and returns the
// mean metrics, using the configured resource condition. It goes through
// the shared evaluation engine, so repeated sizes hit the memoization
// cache.
func EvalSize(dags []*dag.DAG, cfg SweepConfig, size int) (Point, error) {
	cfg = cfg.withDefaults()
	if size < 1 {
		return Point{}, fmt.Errorf("knee: RC size %d < 1", size)
	}
	rs, err := cfg.pool().EvaluateAll([]eval.Point{cfg.point(dags, size)})
	if err != nil {
		return Point{}, err
	}
	return fromResult(rs[0]), nil
}

// Sweep evaluates turn-around over a geometric grid of RC sizes from 1 to
// MaxSize (default: 10% above the widest DAG), producing the curve whose
// knee defines the best RC size (Figs. V-2/V-3).
func Sweep(dags []*dag.DAG, cfg SweepConfig) (Curve, error) {
	cfg = cfg.withDefaults()
	if len(dags) == 0 {
		return Curve{}, fmt.Errorf("knee: no DAGs to sweep")
	}
	maxSize := cfg.MaxSize
	if maxSize == 0 {
		w := 0
		for _, d := range dags {
			if dw := d.Width(); dw > w {
				w = dw
			}
		}
		maxSize = int(math.Ceil(float64(w)*1.1)) + 1
	}
	var points []eval.Point
	for size := 1; size <= maxSize; {
		points = append(points, cfg.point(dags, size))
		next := int(math.Ceil(float64(size) * cfg.GridFactor))
		if next <= size {
			next = size + 1
		}
		size = next
	}
	results, err := cfg.pool().EvaluateAll(points)
	if err != nil {
		return Curve{}, err
	}
	curve := Curve{Points: make([]Point, len(results))}
	for i, r := range results {
		curve.Points[i] = fromResult(r)
	}
	return curve, nil
}

// Best returns the size with minimal turn-around and that turn-around.
func (c Curve) Best() (int, float64) {
	best := -1
	bestT := math.Inf(1)
	for _, p := range c.Points {
		if p.TurnAround < bestT {
			best, bestT = p.Size, p.TurnAround
		}
	}
	return best, bestT
}

// Knee returns the best RC size under the §V.2.2 definition: the smallest
// sampled size whose turn-around is within threshold of everything a bigger
// RC could achieve — formally the smallest s with
// T(s) − min_{s' > s} T(s') < threshold · T(s).
func (c Curve) Knee(threshold float64) (int, float64) {
	n := len(c.Points)
	if n == 0 {
		return 0, math.NaN()
	}
	// minAfter[i] = min turn-around strictly after point i.
	minAfter := make([]float64, n)
	run := math.Inf(1)
	for i := n - 1; i >= 0; i-- {
		minAfter[i] = run
		if c.Points[i].TurnAround < run {
			run = c.Points[i].TurnAround
		}
	}
	for i, p := range c.Points {
		if p.TurnAround-minAfter[i] < threshold*p.TurnAround {
			return p.Size, p.TurnAround
		}
	}
	last := c.Points[n-1]
	return last.Size, last.TurnAround
}

// At returns the curve point at exactly the given size, or the nearest
// sampled size when absent.
func (c Curve) At(size int) Point {
	best := c.Points[0]
	bestDist := math.Abs(float64(best.Size - size))
	for _, p := range c.Points[1:] {
		if d := math.Abs(float64(p.Size - size)); d < bestDist {
			best, bestDist = p, d
		}
	}
	return best
}

// SearchCandidates returns the RC sizes probed by the actual-optimum search
// heuristic of Table V-3, seeded by the predicted size x: x itself,
// x ± 10%…50%, 2x, 2.5x, 3x, and the halving sequence x/2, x/4, … 1.
// Candidates are deduplicated, clamped to ≥ 1, and sorted ascending.
func SearchCandidates(predicted int) []int {
	if predicted < 1 {
		predicted = 1
	}
	x := float64(predicted)
	set := map[int]struct{}{predicted: {}}
	add := func(v float64) {
		i := int(math.Round(v))
		if i >= 1 {
			set[i] = struct{}{}
		}
	}
	for _, f := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
		add(x * (1 + f))
		add(x * (1 - f))
	}
	add(2 * x)
	add(2.5 * x)
	add(3 * x)
	for v := predicted / 2; v >= 1; v /= 2 {
		set[v] = struct{}{}
	}
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// SearchOptimalSize runs the Table V-3 heuristic: evaluate every candidate
// seeded by the predicted size and return the size with the best (smallest)
// turn-around, with the full evaluation per candidate. Candidates are
// evaluated through the pool; the ascending strict-< scan keeps the winner
// identical to the serial loop (smallest size on ties).
func SearchOptimalSize(dags []*dag.DAG, cfg SweepConfig, predicted int) (Point, error) {
	cfg = cfg.withDefaults()
	sizes := SearchCandidates(predicted)
	points := make([]eval.Point, len(sizes))
	for i, size := range sizes {
		points[i] = cfg.point(dags, size)
	}
	results, err := cfg.pool().EvaluateAll(points)
	if err != nil {
		return Point{}, err
	}
	best := Point{TurnAround: math.Inf(1)}
	for _, r := range results {
		if r.TurnAround < best.TurnAround {
			best = fromResult(r)
		}
	}
	return best, nil
}
