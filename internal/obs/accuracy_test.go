package obs

import (
	"math"
	"strings"
	"testing"
)

func TestEWMAConverges(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Value() != 0 {
		t.Errorf("empty EWMA value %v, want 0", e.Value())
	}
	e.Add(10)
	if e.Value() != 10 {
		t.Errorf("first sample should seed: %v, want 10", e.Value())
	}
	for i := 0; i < 50; i++ {
		e.Add(2)
	}
	if math.Abs(e.Value()-2) > 1e-6 {
		t.Errorf("EWMA %v after a steady stream of 2s", e.Value())
	}
	if e.Count() != 51 {
		t.Errorf("count %d, want 51", e.Count())
	}
}

func TestQuantilesWindowed(t *testing.T) {
	q := NewQuantiles(4)
	if q.Query(0.5) != 0 {
		t.Errorf("empty quantile %v, want 0", q.Query(0.5))
	}
	for _, v := range []float64{1, 2, 3, 4} {
		q.Add(v)
	}
	if got := q.Query(0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := q.Query(1); got != 4 {
		t.Errorf("p1 = %v, want 4", got)
	}
	// Two more samples evict the two oldest: window is {3, 4, 10, 20}.
	q.Add(10)
	q.Add(20)
	if got := q.Query(0); got != 3 {
		t.Errorf("p0 after eviction = %v, want 3", got)
	}
	if got := q.Query(1); got != 20 {
		t.Errorf("p1 after eviction = %v, want 20", got)
	}
}

func TestPageHinkleyDetectsShift(t *testing.T) {
	d := NewPageHinkley(0.05, 2, 8)
	// A stable stream around 0 never fires.
	for i := 0; i < 50; i++ {
		if d.Add(0.01 * float64(i%3)) {
			t.Fatalf("drift detected on a stable stream at sample %d", i)
		}
	}
	// A sustained upward shift fires exactly once and latches.
	fired := 0
	for i := 0; i < 50; i++ {
		if d.Add(1.5) {
			fired++
		}
	}
	if fired != 1 {
		t.Errorf("detection fired %d times, want exactly once", fired)
	}
	if !d.Drifted() {
		t.Error("Drifted not latched after detection")
	}
	d.Reset()
	if d.Drifted() || d.Score() != 0 {
		t.Errorf("after Reset: drifted=%v score=%v", d.Drifted(), d.Score())
	}
}

func TestAccuracyRecordAndSnapshot(t *testing.T) {
	a := NewAccuracy()
	// Unscorable observation (no prediction): counted, not scored.
	a.Record(Observation{Backend: "vgdl", Heuristic: "MCP", EndReason: EndExpired, ObservedSeconds: 5})
	// Scorable: observed = predicted, log error 0.
	for i := 0; i < 10; i++ {
		a.Record(Observation{Backend: "vgdl", Heuristic: "MCP", EndReason: EndReleased,
			PredictedSeconds: 10, ObservedSeconds: 10})
	}
	snap := a.Snapshot()
	if snap.Observations != 11 || snap.Scored != 10 {
		t.Errorf("snapshot counts %d/%d, want 11/10", snap.Observations, snap.Scored)
	}
	if snap.LogErrorEWMA != 0 || snap.AbsLogErrorP50 != 0 {
		t.Errorf("perfect predictions should score 0: %+v", snap)
	}
	if snap.Drift {
		t.Error("drift on a perfect stream")
	}
}

func TestAccuracyDriftOnSlowCluster(t *testing.T) {
	a := NewAccuracy()
	drifted := false
	// Accurate baseline, then everything runs 4x slower than promised.
	for i := 0; i < 10; i++ {
		a.Record(Observation{Backend: "vgdl", EndReason: EndReleased,
			PredictedSeconds: 10, ObservedSeconds: 10})
	}
	for i := 0; i < 20 && !drifted; i++ {
		drifted = a.Record(Observation{Backend: "vgdl", EndReason: EndReleased,
			PredictedSeconds: 10, ObservedSeconds: 40})
	}
	if !drifted {
		t.Fatal("sustained 4x-slow stream never tripped the drift detector")
	}
	if !a.Snapshot().Drift {
		t.Error("snapshot does not report the latched drift")
	}
}

func TestAccuracyExposition(t *testing.T) {
	a := NewAccuracy()
	a.Record(Observation{Backend: "vgdl", Heuristic: "MCP", EndReason: EndReleased,
		PredictedSeconds: 10, ObservedSeconds: 20})
	a.Record(Observation{Backend: "moga", Heuristic: "MCP", EndReason: EndExpired})
	reg := NewRegistry()
	a.register(reg)
	var b strings.Builder
	reg.Expose(&b)
	out := b.String()
	for _, want := range []string{
		`rsgend_accuracy_observations_total{backend="moga",heuristic="MCP",end_reason="expired"} 1`,
		`rsgend_accuracy_observations_total{backend="vgdl",heuristic="MCP",end_reason="released"} 1`,
		"rsgend_accuracy_scored_total 1",
		`rsgend_accuracy_log_error_ewma{backend="vgdl",heuristic="MCP"}`,
		`rsgend_accuracy_abs_log_error{quantile="0.9"}`,
		"rsgend_model_drift 0",
		"rsgend_model_drift_score",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// One absurd client report must not latch the drift gauge, whichever way it
// errs and however long the honest stream before it (the outlier's pull on
// the Page-Hinkley score grows with the stream's length); a sustained
// slowdown after it still does.
func TestAccuracyDriftSurvivesOneAbsurdReport(t *testing.T) {
	for _, honest := range []int{8, 500} {
		for _, absurd := range []float64{1e300, 1e-300} {
			a := NewAccuracy()
			for i := 0; i < honest; i++ {
				a.Record(Observation{Backend: "vgdl", EndReason: EndReleased, PredictedSeconds: 10, ObservedSeconds: 10})
			}
			if a.Record(Observation{Backend: "vgdl", EndReason: EndReleased, PredictedSeconds: 10, ObservedSeconds: absurd}) {
				t.Errorf("observed_seconds %g after %d honest samples tripped the detector", absurd, honest)
			}
			for i := 0; i < honest; i++ {
				a.Record(Observation{Backend: "vgdl", EndReason: EndReleased, PredictedSeconds: 10, ObservedSeconds: 10})
			}
			snap := a.Snapshot()
			if snap.Drift || snap.DriftScore >= 2 {
				t.Errorf("observed_seconds %g after %d honest samples: drift=%v score=%v, want unlatched", absurd, honest, snap.Drift, snap.DriftScore)
			}
			if got := snap.AbsLogErrorP99; got > maxAbsLogError {
				t.Errorf("quantile sketch holds |ln ratio| %v, above the %v bound", got, maxAbsLogError)
			}
			drifted := false
			for i := 0; i < 20 && !drifted; i++ {
				drifted = a.Record(Observation{Backend: "vgdl", EndReason: EndReleased, PredictedSeconds: 10, ObservedSeconds: 40})
			}
			if !drifted {
				t.Errorf("after the outlier (%g, %d honest), a sustained 4x-slow stream no longer trips the detector", absurd, honest)
			}
		}
	}
}
