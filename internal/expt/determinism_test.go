package expt

import (
	"strings"
	"testing"

	"rsgen/internal/eval"
)

// TestParallelismDoesNotChangeOutput is the engine's determinism regression:
// the rendered tables of a knee sweep (fig-v-2), a heuristic comparison
// (tab-vi-2), six schemes on explicit cluster-network collections sharing
// one EvaluateAll's plans (fig-iv-6) and seven heuristics, Random{Seed}
// among them (ext-baselines), must be byte-identical between serial and
// 8-worker evaluation. The pool preserves input order, every point derives
// its randomness from split seeds, and a shared plan replays the same
// schedule for every caller, so worker count and goroutine scheduling must
// be invisible.
func TestParallelismDoesNotChangeOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two real experiments twice")
	}
	for _, id := range []string{"fig-v-2", "tab-vi-2", "fig-iv-6", "ext-baselines"} {
		var serial, parallel strings.Builder
		eval.DefaultCache.Clear() // force both runs to really evaluate
		if err := Run(id, Config{Seed: 3, Workers: 1}, &serial); err != nil {
			t.Fatalf("%s workers=1: %v", id, err)
		}
		eval.DefaultCache.Clear()
		if err := Run(id, Config{Seed: 3, Workers: 8}, &parallel); err != nil {
			t.Fatalf("%s workers=8: %v", id, err)
		}
		if serial.String() != parallel.String() {
			t.Errorf("%s: 8-worker output differs from serial.\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
				id, serial.String(), parallel.String())
		}
	}
}
