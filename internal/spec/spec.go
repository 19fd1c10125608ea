// Package spec implements the automatic resource specification generator of
// dissertation Chapter VII: it combines the size prediction model (Chapter
// V), the heuristic prediction model (Chapter VI), and observations about
// the resource environment into concrete resource specifications for the
// three resource selection systems the dissertation targets — vgES (vgDL),
// Condor (ClassAds), and SWORD (XML) — and produces alternative (degraded)
// specifications when the optimal request cannot be fulfilled (Figs.
// VII-6/VII-7).
package spec

import (
	"fmt"
	"math"
	"strings"

	"rsgen/internal/classad"
	"rsgen/internal/dag"
	"rsgen/internal/heurpred"
	"rsgen/internal/knee"
	"rsgen/internal/sched"
	"rsgen/internal/sword"
	"rsgen/internal/vgdl"
)

// Generator holds the trained prediction models.
type Generator struct {
	// Size is the trained size-model family (required).
	Size *knee.ModelSet
	// Heur is the trained heuristic model; nil defaults every prediction
	// to MCP, the Chapter V reference heuristic.
	Heur *heurpred.Model
	// SCR optionally rescales predicted sizes for a non-reference
	// scheduler clock (§V.7).
	SCR *knee.SCRModel
}

// Options tune one generation request.
type Options struct {
	// Threshold selects the knee-threshold model; 0 uses the 0.1%
	// default. Ignored when UtilityLambda > 0.
	Threshold float64
	// UtilityLambda, when positive, picks the threshold by the §V.3.2.3
	// utility trade-off (lambda units of relative cost per unit of
	// performance degradation).
	UtilityLambda float64
	// ClockGHz is the preferred host clock rate; 0 defaults to 3.0.
	ClockGHz float64
	// HeterogeneityTolerance is the acceptable clock-rate spread below
	// ClockGHz, as a fraction (0.3 ⇒ hosts from 70% of ClockGHz are
	// acceptable). The dissertation's Table VI-3 finds ≤ 0.3 costs only
	// a few percent; 0 requests homogeneous resources.
	HeterogeneityTolerance float64
	// MinMemoryMB is the per-host memory floor; 0 defaults to 1024.
	MinMemoryMB int
	// SCRValue is the scheduler-clock ratio the application will run
	// under; 0 means the 2.80 GHz reference (no adjustment).
	SCRValue float64
	// MixedParallel requests cluster-shaped resources instead of a bag of
	// individual hosts: the §III.1 future-work extension for
	// mixed-parallel applications whose DAG nodes are themselves
	// data-parallel. The vgDL becomes a ClusterOf (identical,
	// well-connected nodes), the SWORD group demands LAN-class intra-group
	// latency, and the ClassAd carries a WantsSingleCluster marker.
	MixedParallel bool
	// Heuristic, when non-empty, pins the scheduling heuristic instead of
	// predicting it (must name an implemented heuristic, e.g. "MCP").
	Heuristic string
}

func (o Options) withDefaults() Options {
	if o.ClockGHz == 0 {
		o.ClockGHz = 3.0
	}
	if o.MinMemoryMB == 0 {
		o.MinMemoryMB = 1024
	}
	return o
}

// Specification is one complete generated resource specification.
type Specification struct {
	// Heuristic is the predicted best scheduling heuristic.
	Heuristic string
	// RCSize is the predicted best resource collection size.
	RCSize int
	// MinClockGHz–MaxClockGHz is the acceptable clock range.
	MinClockGHz float64
	MaxClockGHz float64
	// MinMemoryMB is the per-host memory requirement.
	MinMemoryMB int
	// Threshold is the knee threshold the size came from.
	Threshold float64

	// MixedParallel marks a cluster-shaped request (§III.1 extension).
	MixedParallel bool

	// The three concrete specification languages (Figs. VII-3/4/5).
	VgDL     string
	ClassAd  string
	SwordXML string
}

// Generate produces the specification for one DAG.
func (g *Generator) Generate(d *dag.DAG, opts Options) (*Specification, error) {
	if g.Size == nil || len(g.Size.Models) == 0 {
		return nil, fmt.Errorf("spec: generator has no size model")
	}
	opts = opts.withDefaults()
	chars := d.Characteristics()

	var model *knee.Model
	switch {
	case opts.UtilityLambda > 0:
		model = g.Size.ChooseThreshold(opts.UtilityLambda)
	case opts.Threshold > 0:
		m, err := g.Size.ByThreshold(opts.Threshold)
		if err != nil {
			return nil, err
		}
		model = m
	default:
		model = g.Size.Default()
	}

	size := model.PredictSize(chars)
	if w := d.Width(); size > w {
		size = w // no schedule uses more hosts than the DAG width
	}
	if g.SCR != nil && opts.SCRValue > 0 {
		size = g.SCR.Adjust(size, opts.SCRValue)
		if w := d.Width(); size > w {
			size = w
		}
	}

	heur := "MCP"
	switch {
	case opts.Heuristic != "":
		h, err := sched.ByName(opts.Heuristic)
		if err != nil {
			return nil, fmt.Errorf("spec: %w", err)
		}
		heur = h.Name()
	case g.Heur != nil:
		h, err := g.Heur.Predict(chars)
		if err == nil && h != "" {
			heur = h
		}
	}

	s := &Specification{
		Heuristic:     heur,
		RCSize:        size,
		MinClockGHz:   opts.ClockGHz * (1 - opts.HeterogeneityTolerance),
		MaxClockGHz:   opts.ClockGHz,
		MinMemoryMB:   opts.MinMemoryMB,
		Threshold:     model.Threshold,
		MixedParallel: opts.MixedParallel,
	}
	s.VgDL = renderVgDL(s)
	s.ClassAd = renderClassAd(s, d)
	s.SwordXML = renderSword(s)
	return s, nil
}

// renderVgDL emits the Fig. VII-5 style vgDL: a TightBag of the predicted
// size with a clock floor, ranked by clock so the finder prefers faster
// hosts inside the tolerated range.
func renderVgDL(s *Specification) string {
	kind := vgdl.TightBag
	if s.MixedParallel {
		// Mixed-parallel applications need identical well-connected
		// nodes: one physical cluster.
		kind = vgdl.ClusterAgg
	}
	v := &vgdl.Spec{
		Name: "VG",
		Aggregates: []vgdl.Aggregate{{
			Kind:    kind,
			NodeVar: "nodes",
			Min:     s.RCSize,
			Max:     s.RCSize,
			Rank:    "Clock",
			Constraints: []vgdl.Constraint{
				{Attr: "Clock", Op: ">=", Value: fmt.Sprintf("%d", int(s.MinClockGHz*1000))},
				{Attr: "Memory", Op: ">=", Value: fmt.Sprintf("%d", s.MinMemoryMB)},
			},
		}},
	}
	return v.String()
}

// renderClassAd emits the Fig. VII-3 style job ClassAd: a parallel-universe
// request for MachineCount matching machines with the clock and memory
// floors, ranked by clock, with the predicted heuristic recorded for the
// launcher.
func renderClassAd(s *Specification, d *dag.DAG) string {
	ad := classad.NewAd()
	ad.SetStr("Type", "Job")
	ad.SetStr("Universe", "parallel")
	ad.SetStr("SchedulingHeuristic", s.Heuristic)
	ad.SetNum("MachineCount", float64(s.RCSize))
	ad.SetNum("DAGSize", float64(d.Size()))
	if s.MixedParallel {
		ad.SetBool("WantsSingleCluster", true)
	}
	req, _ := classad.ParseExpr(fmt.Sprintf(
		"other.Type == \"Machine\" && other.OpSys == \"LINUX\" && other.Clock >= %d && other.Memory >= %d",
		int(s.MinClockGHz*1000), s.MinMemoryMB))
	ad.Set("Requirements", req)
	rank, _ := classad.ParseExpr("other.Clock")
	ad.Set("Rank", rank)
	return ad.String()
}

// renderSword emits the Fig. VII-4 style SWORD XML: one group of the
// predicted size with clock and memory requirements, the intra-group
// latency range standing in for the TightBag's "good connectivity", and the
// dissertation's example budgets.
func renderSword(s *Specification) string {
	clock := sword.AtLeast(s.MinClockGHz*1000, s.MaxClockGHz*1000, 0.1)
	mem := sword.AtLeast(float64(s.MinMemoryMB), float64(s.MinMemoryMB)*2, 0.01)
	// "Good connectivity" as SWORD expresses it: desired ≤ 10 ms with a
	// penalty rate beyond, but no hard bound — large groups necessarily
	// span clusters, and SWORD's semantics are best-effort penalties.
	lat := sword.AtMost(10, math.Inf(1), 0.5)
	if s.MixedParallel {
		// LAN-class latency, required: the group must be one cluster.
		lat = sword.AtMost(0.5, 1, 0.5)
	}
	load := sword.AtMost(0.1, 0.5, 1.0)
	req := &sword.Request{
		DistQueryBudget: 30,
		OptimizerBudget: 100,
		Groups: []sword.Group{{
			Name:        "rc",
			NumMachines: s.RCSize,
			Clock:       &clock,
			FreeMem:     &mem,
			Latency:     &lat,
			CPULoad:     &load,
			OS:          &sword.ValuePenalty{Value: "Linux", Penalty: 0},
		}},
	}
	out, err := req.Encode()
	if err != nil {
		// The request is built from validated values; encoding cannot
		// fail except on programmer error.
		panic(fmt.Sprintf("spec: sword encode: %v", err))
	}
	return out
}

// Summary renders a one-screen human-readable digest.
func (s *Specification) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "heuristic:   %s\n", s.Heuristic)
	fmt.Fprintf(&b, "rc size:     %d hosts\n", s.RCSize)
	fmt.Fprintf(&b, "clock range: %.2f–%.2f GHz\n", s.MinClockGHz, s.MaxClockGHz)
	fmt.Fprintf(&b, "memory:      ≥ %d MB/host\n", s.MinMemoryMB)
	fmt.Fprintf(&b, "threshold:   %.1f%%\n", s.Threshold*100)
	return b.String()
}

// EquivalentSize finds, by direct evaluation, the smallest RC size at
// altClock whose turn-around matches (within tol, e.g. 0.02) what baseSize
// hosts at baseClock achieve — the Fig. VII-6/VII-7 question "how many
// slower hosts replace the fast ones?". It returns ok=false when no size
// does: past the threshold the growing scheduling time means slower hosts
// can never catch up, which is exactly the phenomenon Fig. VII-7 reports.
func EquivalentSize(dags []*dag.DAG, cfg knee.SweepConfig, baseSize int, baseClock, altClock, tol float64) (int, bool, error) {
	target, err := targetTurnAround(dags, cfg, baseSize, baseClock, tol)
	if err != nil {
		return 0, false, err
	}
	return equivalentSize(dags, cfg, baseSize, altClock, target)
}

// targetTurnAround is the turn-around an equivalent RC must reach: what
// baseSize hosts at baseClock achieve, relaxed by tol.
func targetTurnAround(dags []*dag.DAG, cfg knee.SweepConfig, baseSize int, baseClock, tol float64) (float64, error) {
	cfg.ClockGHz = baseClock
	base, err := knee.EvalSize(dags, cfg, baseSize)
	if err != nil {
		return 0, err
	}
	return base.TurnAround * (1 + tol), nil
}

// equivalentSize scans RC sizes at altClock upward from baseSize for the
// first whose turn-around reaches target.
func equivalentSize(dags []*dag.DAG, cfg knee.SweepConfig, baseSize int, altClock, target float64) (int, bool, error) {
	cfg.ClockGHz = altClock
	maxWidth := 0
	for _, d := range dags {
		if w := d.Width(); w > maxWidth {
			maxWidth = w
		}
	}
	limit := maxWidth * 2
	if limit < baseSize*4 {
		limit = baseSize * 4
	}
	runningMin := math.Inf(1)
	rising := 0
	for size := baseSize; size <= limit; size = nextSize(size) {
		p, err := knee.EvalSize(dags, cfg, size)
		if err != nil {
			return 0, false, err
		}
		if p.TurnAround <= target {
			return size, true, nil
		}
		if p.TurnAround < runningMin {
			runningMin = p.TurnAround
			rising = 0
		} else {
			rising++
			// The curve has bottomed out above the target: no RC of
			// slower hosts reaches the base turn-around.
			if rising >= 3 {
				return 0, false, nil
			}
		}
	}
	return 0, false, nil
}

func nextSize(s int) int {
	n := int(math.Ceil(float64(s) * 1.10))
	if n <= s {
		n = s + 1
	}
	return n
}

// Alternative is one degraded specification option.
type Alternative struct {
	ClockGHz float64
	RCSize   int
	// RelativeSize is RCSize / the base specification's size: the Fig.
	// VII-7 threshold ratio.
	RelativeSize float64
	Spec         *Specification
}

// Alternatives produces the ordered fallback list of §VII: when the base
// specification (RCSize hosts at ClockGHz) cannot be fulfilled, each
// successively slower clock class is offered with the (measured)
// equivalent RC size. tol is the acceptable turn-around slack of an
// alternative (0 defaults to 0.02); clock classes whose curve can never
// match the base turn-around within tol are omitted. The base point is
// evaluated once per call, whatever the number of clock classes.
func (g *Generator) Alternatives(d *dag.DAG, base *Specification, clockClasses []float64, cfg knee.SweepConfig, tol float64) ([]Alternative, error) {
	if tol == 0 {
		tol = 0.02
	}
	var out []Alternative
	dags := []*dag.DAG{d}
	target := math.NaN() // evaluated at the first slower clock class
	for _, clock := range clockClasses {
		if clock >= base.MaxClockGHz {
			continue
		}
		if math.IsNaN(target) {
			var err error
			if target, err = targetTurnAround(dags, cfg, base.RCSize, base.MaxClockGHz, tol); err != nil {
				return nil, err
			}
		}
		size, ok, err := equivalentSize(dags, cfg, base.RCSize, clock, target)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		alt := &Specification{
			Heuristic:   base.Heuristic,
			RCSize:      size,
			MinClockGHz: clock * (1 - (1 - base.MinClockGHz/base.MaxClockGHz)),
			MaxClockGHz: clock,
			MinMemoryMB: base.MinMemoryMB,
			Threshold:   base.Threshold,
		}
		alt.VgDL = renderVgDL(alt)
		alt.ClassAd = renderClassAd(alt, d)
		alt.SwordXML = renderSword(alt)
		out = append(out, Alternative{
			ClockGHz:     clock,
			RCSize:       size,
			RelativeSize: float64(size) / float64(base.RCSize),
			Spec:         alt,
		})
	}
	return out, nil
}
