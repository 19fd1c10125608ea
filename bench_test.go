package rsgen_test

// Micro-benchmarks of the core machinery. The dissertation's tables and
// figures are regenerated (and timed per experiment) by cmd/experiments, and
// TestEveryExperimentRuns runs every id; the serving benchmark is
// `go run ./bench`.
//
//	go test -bench=. -benchmem

import (
	"testing"

	"rsgen"
	"rsgen/internal/sched"
)

func benchDAG(b *testing.B, size int) *rsgen.DAG {
	b.Helper()
	d, err := rsgen.GenerateDAG(rsgen.DAGSpec{
		Size: size, CCR: 0.1, Parallelism: 0.6, Density: 0.5, Regularity: 0.5, MeanCost: 40,
	}, rsgen.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func BenchmarkDAGGenerate1000(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = benchDAG(b, 1000)
	}
}

func BenchmarkDAGCharacteristics(b *testing.B) {
	d := benchDAG(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.Characteristics()
	}
}

func benchSchedule(b *testing.B, name string, hosts int) {
	d := benchDAG(b, 1000)
	rc := rsgen.HomogeneousRC(hosts, 2.8, 1000)
	h, err := rsgen.HeuristicByName(name)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Schedule(d, rc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScheduleMCP64(b *testing.B)    { benchSchedule(b, "MCP", 64) }
func BenchmarkScheduleMCP512(b *testing.B)   { benchSchedule(b, "MCP", 512) }
func BenchmarkScheduleGreedy64(b *testing.B) { benchSchedule(b, "Greedy", 64) }
func BenchmarkScheduleFCA64(b *testing.B)    { benchSchedule(b, "FCA", 64) }
func BenchmarkScheduleFCFS64(b *testing.B)   { benchSchedule(b, "FCFS", 64) }

func BenchmarkScheduleMCPUniverse(b *testing.B) {
	// MCP over a platform-scale universe (the Chapter IV stress case).
	d, err := rsgen.Montage1629(0.01)
	if err != nil {
		b.Fatal(err)
	}
	p, err := rsgen.GeneratePlatform(rsgen.PlatformSpec{Clusters: 150, Year: 2006}, rsgen.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	rc := rsgen.UniverseRC(p)
	h, _ := rsgen.HeuristicByName("MCP")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Schedule(d, rc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKneeSweep(b *testing.B) {
	d := benchDAG(b, 500)
	dags := []*rsgen.DAG{d}
	// NoCache: with memoization on, every iteration after the first would
	// be a pure cache hit and the benchmark would measure map lookups.
	cfg := rsgen.SweepConfig{NoCache: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rsgen.SweepTurnAround(dags, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalPool compares the serial evaluation path against the worker
// pool on the same knee sweep. On a multi-core machine the pooled variant
// should approach a GOMAXPROCS-fold speedup (the sweep's points are
// independent); on a single core it measures the pool's overhead. The
// determinism tests guarantee both variants produce identical curves.
func benchEvalPool(b *testing.B, workers int) {
	d := benchDAG(b, 500)
	dags := []*rsgen.DAG{d}
	cfg := rsgen.SweepConfig{Workers: workers, NoCache: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rsgen.SweepTurnAround(dags, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalPoolSerial(b *testing.B)   { benchEvalPool(b, 1) }
func BenchmarkEvalPoolAllCores(b *testing.B) { benchEvalPool(b, 0) }

func BenchmarkEvalPoolCached(b *testing.B) {
	// The memoized path: every size re-read from the shared cache.
	d := benchDAG(b, 500)
	dags := []*rsgen.DAG{d}
	cfg := rsgen.SweepConfig{}
	if _, err := rsgen.SweepTurnAround(dags, cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rsgen.SweepTurnAround(dags, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlatformGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := rsgen.GeneratePlatform(rsgen.PlatformSpec{Clusters: 200, Year: 2006}, rsgen.NewRNG(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpecGenerate(b *testing.B) {
	gen, err := rsgen.QuickGenerator(1)
	if err != nil {
		b.Fatal(err)
	}
	d := benchDAG(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen.Generate(d, rsgen.Options{ClockGHz: 3.0}); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benchmarks for the design choices DESIGN.md documents.

func benchMCPPrefix(b *testing.B, prefix int) {
	if prefix == 0 {
		prefix = -1 // MCP.Prefix < 0 means zero-length prefix (pure ALAP)
	}
	d := benchDAG(b, 1000)
	rc := rsgen.HomogeneousRC(64, 2.8, 1000)
	h := sched.MCP{Prefix: prefix}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Schedule(d, rc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationMCPPrefix0(b *testing.B) { benchMCPPrefix(b, 0) }
func BenchmarkAblationMCPPrefix4(b *testing.B) { benchMCPPrefix(b, 4) }
func BenchmarkAblationMCPPrefix8(b *testing.B) { benchMCPPrefix(b, 8) }

func benchGridFactor(b *testing.B, factor float64) {
	d := benchDAG(b, 500)
	dags := []*rsgen.DAG{d}
	cfg := rsgen.SweepConfig{GridFactor: factor, NoCache: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curve, err := rsgen.SweepTurnAround(dags, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if k, _ := curve.Knee(0.001); k < 1 {
			b.Fatal("no knee")
		}
	}
}

func BenchmarkAblationSweepGrid1_05(b *testing.B) { benchGridFactor(b, 1.05) }
func BenchmarkAblationSweepGrid1_08(b *testing.B) { benchGridFactor(b, 1.08) }
func BenchmarkAblationSweepGrid1_20(b *testing.B) { benchGridFactor(b, 1.20) }

func BenchmarkBaselineMinMin64(b *testing.B)     { benchSchedule(b, "MinMin", 64) }
func BenchmarkBaselineRoundRobin64(b *testing.B) { benchSchedule(b, "RoundRobin", 64) }
func BenchmarkBaselineRandom64(b *testing.B)     { benchSchedule(b, "Random", 64) }
