package spec

import (
	"math"
	"strings"
	"testing"

	"rsgen/internal/classad"
	"rsgen/internal/dag"
	"rsgen/internal/eval"
	"rsgen/internal/heurpred"
	"rsgen/internal/knee"
	"rsgen/internal/platform"
	"rsgen/internal/sword"
	"rsgen/internal/vgdl"
	"rsgen/internal/xrand"
)

// trainModels builds small real models shared across tests.
func trainModels(t *testing.T) *Generator {
	t.Helper()
	size, err := knee.Train(knee.TrainConfig{
		Sizes:      []int{100, 300},
		CCRs:       []float64{0.01, 0.5},
		Alphas:     []float64{0.4, 0.6, 0.8},
		Betas:      []float64{0.1, 0.5, 1.0},
		Reps:       2,
		Density:    0.5,
		MeanCost:   40,
		Thresholds: []float64{0.001, 0.02},
		Seed:       21,
	})
	if err != nil {
		t.Fatal(err)
	}
	heur, err := heurpred.Train(heurpred.TrainConfig{
		Sizes:  []int{100, 300},
		CCRs:   []float64{0.1},
		Alphas: []float64{0.6},
		Betas:  []float64{0.5},
		Reps:   1,
		Seed:   22,
		Sweep:  knee.SweepConfig{MaxSize: 80},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &Generator{Size: size, Heur: heur}
}

func testDAG(t *testing.T) *dag.DAG {
	t.Helper()
	return dag.MustGenerate(dag.GenSpec{
		Size: 200, CCR: 0.1, Parallelism: 0.6, Density: 0.5, Regularity: 0.5, MeanCost: 40,
	}, xrand.New(33))
}

func TestGenerateProducesAllThreeLanguages(t *testing.T) {
	g := trainModels(t)
	d := testDAG(t)
	s, err := g.Generate(d, Options{ClockGHz: 3.0, HeterogeneityTolerance: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if s.RCSize < 1 || s.RCSize > d.Width() {
		t.Errorf("RC size %d outside [1, width %d]", s.RCSize, d.Width())
	}
	if s.Heuristic == "" {
		t.Error("no heuristic predicted")
	}
	if math.Abs(s.MinClockGHz-2.4) > 1e-9 || s.MaxClockGHz != 3.0 {
		t.Errorf("clock range %v–%v", s.MinClockGHz, s.MaxClockGHz)
	}

	// vgDL parses back and encodes the same size.
	v, err := vgdl.Parse(s.VgDL)
	if err != nil {
		t.Fatalf("generated vgDL does not parse: %v\n%s", err, s.VgDL)
	}
	if v.Aggregates[0].Min != s.RCSize || v.Aggregates[0].Max != s.RCSize {
		t.Errorf("vgDL range [%d:%d] ≠ size %d", v.Aggregates[0].Min, v.Aggregates[0].Max, s.RCSize)
	}

	// ClassAd parses back with the machine count and a requirements expr.
	ad, err := classad.Parse(s.ClassAd)
	if err != nil {
		t.Fatalf("generated ClassAd does not parse: %v\n%s", err, s.ClassAd)
	}
	if got := ad.EvalAttr("MachineCount", nil); got.Num != float64(s.RCSize) {
		t.Errorf("ClassAd MachineCount = %v", got.Num)
	}
	if _, ok := ad.Get("Requirements"); !ok {
		t.Error("ClassAd missing Requirements")
	}

	// SWORD XML decodes with one group of the right size.
	req, err := sword.Decode(s.SwordXML)
	if err != nil {
		t.Fatalf("generated SWORD XML does not decode: %v\n%s", err, s.SwordXML)
	}
	if len(req.Groups) != 1 || req.Groups[0].NumMachines != s.RCSize {
		t.Errorf("SWORD groups = %+v", req.Groups)
	}

	if sum := s.Summary(); !strings.Contains(sum, "rc size") {
		t.Errorf("summary missing fields: %s", sum)
	}
}

func TestGeneratedClassAdMatchesRealMachines(t *testing.T) {
	// End-to-end: the generated ClassAd must match qualifying machine ads
	// from a synthetic platform and reject others.
	g := trainModels(t)
	s, err := g.Generate(testDAG(t), Options{ClockGHz: 2.8, HeterogeneityTolerance: 0})
	if err != nil {
		t.Fatal(err)
	}
	ad, err := classad.Parse(s.ClassAd)
	if err != nil {
		t.Fatal(err)
	}
	p := platform.MustGenerate(platform.GenSpec{Clusters: 60, Year: 2006}, xrand.New(3))
	machines := classad.MachineAds(p)
	matched := classad.MatchBest(ad, machines, 0)
	for _, m := range matched {
		if m.EvalAttr("Clock", nil).Num < 2800 {
			t.Error("matched a machine below the clock floor")
		}
	}
	if len(matched) == 0 {
		t.Error("generated ClassAd matched no machines on a 2006 platform")
	}
}

func TestGeneratedVgDLResolvable(t *testing.T) {
	g := trainModels(t)
	s, err := g.Generate(testDAG(t), Options{ClockGHz: 2.0, HeterogeneityTolerance: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	v, err := vgdl.Parse(s.VgDL)
	if err != nil {
		t.Fatal(err)
	}
	p := platform.MustGenerate(platform.GenSpec{Clusters: 200, Year: 2006}, xrand.New(4))
	rc, err := vgdl.NewFinder(p).Find(v)
	if err != nil {
		t.Fatalf("vgES finder could not satisfy the generated spec: %v", err)
	}
	if rc.Size() != s.RCSize {
		t.Errorf("finder returned %d hosts, spec asked %d", rc.Size(), s.RCSize)
	}
}

func TestThresholdAndUtilityOptions(t *testing.T) {
	g := trainModels(t)
	d := testDAG(t)
	def, err := g.Generate(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if def.Threshold != 0.001 {
		t.Errorf("default threshold = %v", def.Threshold)
	}
	loose, err := g.Generate(d, Options{Threshold: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if loose.Threshold != 0.02 {
		t.Errorf("explicit threshold = %v", loose.Threshold)
	}
	// Looser thresholds never ask for more hosts.
	if loose.RCSize > def.RCSize {
		t.Errorf("2%% threshold size %d > 0.1%% size %d", loose.RCSize, def.RCSize)
	}
	if _, err := g.Generate(d, Options{Threshold: 0.77}); err == nil {
		t.Error("unknown threshold accepted")
	}
	util, err := g.Generate(d, Options{UtilityLambda: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range g.Size.Models {
		if m.Threshold == util.Threshold {
			found = true
		}
	}
	if !found {
		t.Errorf("utility chose threshold %v not in the trained family", util.Threshold)
	}
}

func TestGenerateWithoutModels(t *testing.T) {
	var g Generator
	if _, err := g.Generate(testDAG(t), Options{}); err == nil {
		t.Error("generator without size model succeeded")
	}
}

func TestSCRAdjustment(t *testing.T) {
	g := trainModels(t)
	g.SCR = &knee.SCRModel{Exponent: 0.5, BaseKnee: 10}
	d := testDAG(t)
	base, err := g.Generate(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := g.Generate(d, Options{SCRValue: 4})
	if err != nil {
		t.Fatal(err)
	}
	// SCR 4 with exponent 0.5 doubles the size (capped at width).
	want := base.RCSize * 2
	if w := d.Width(); want > w {
		want = w
	}
	if fast.RCSize != want {
		t.Errorf("SCR-adjusted size %d, want %d", fast.RCSize, want)
	}
}

func TestEquivalentSizeFasterNeedsFewer(t *testing.T) {
	d := testDAG(t)
	dags := []*dag.DAG{d}
	cfg := knee.SweepConfig{}
	// Equivalent of 20 hosts at 2.0 GHz in 3.5 GHz hosts must be ≤ 20
	// hosts... conversely the 2.0 GHz equivalent of 20×3.5 GHz must be
	// more than 20.
	size, ok, err := EquivalentSize(dags, cfg, 20, 3.5, 2.0, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Skip("no 2.0 GHz equivalent within the DAG's width (threshold reached)")
	}
	if size <= 20 {
		t.Errorf("slower hosts equivalent %d not above base 20", size)
	}
}

func TestEquivalentSizeImpossible(t *testing.T) {
	// A serial chain: makespan is clock-bound, so no number of slow hosts
	// matches fast hosts.
	tasks := make([]dag.Task, 30)
	var edges []dag.Edge
	for i := range tasks {
		tasks[i] = dag.Task{ID: dag.TaskID(i), Cost: 10}
		if i > 0 {
			edges = append(edges, dag.Edge{From: dag.TaskID(i - 1), To: dag.TaskID(i), Cost: 0.1})
		}
	}
	chain := dag.MustNew(tasks, edges)
	_, ok, err := EquivalentSize([]*dag.DAG{chain}, knee.SweepConfig{}, 2, 3.5, 2.0, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("slow hosts matched a clock-bound chain")
	}
}

func TestAlternatives(t *testing.T) {
	g := trainModels(t)
	d := testDAG(t)
	base, err := g.Generate(d, Options{ClockGHz: 3.5})
	if err != nil {
		t.Fatal(err)
	}
	alts, err := g.Alternatives(d, base, []float64{3.5, 3.0, 2.4}, knee.SweepConfig{}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range alts {
		if a.ClockGHz >= 3.5 {
			t.Errorf("alternative at base clock %v offered", a.ClockGHz)
		}
		if a.RCSize < base.RCSize {
			t.Errorf("alternative at %v GHz uses fewer hosts (%d) than base (%d)",
				a.ClockGHz, a.RCSize, base.RCSize)
		}
		if a.RelativeSize < 1 {
			t.Errorf("relative size %v < 1", a.RelativeSize)
		}
		if _, err := vgdl.Parse(a.Spec.VgDL); err != nil {
			t.Errorf("alternative vgDL invalid: %v", err)
		}
	}
}

// TestAlternativesEvaluateBaseOnce: without the memo every evaluation is a
// full schedule, so the points Alternatives spends over two slower clock
// classes must be the sum of what each class costs alone, less the one base
// point the two share.
func TestAlternativesEvaluateBaseOnce(t *testing.T) {
	g := trainModels(t)
	d := testDAG(t)
	base, err := g.Generate(d, Options{ClockGHz: 3.5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := knee.SweepConfig{NoCache: true, Workers: 1}
	points := func(clocks ...float64) uint64 {
		before := eval.Snapshot()
		if _, err := g.Alternatives(d, base, clocks, cfg, 0); err != nil {
			t.Fatal(err)
		}
		return eval.Snapshot().Sub(before).Points
	}
	a, b := points(3.0), points(2.4)
	if both := points(3.0, 2.4); both != a+b-1 {
		t.Errorf("clocks {3.0, 2.4} evaluated %d points, want %d + %d - 1 (one shared base point)", both, a, b)
	}
}
