// Package rsgen is an implementation of "Automatic Resource Specification
// Generation for Resource Selection" (Huang, Casanova & Chien, SC 2007; UCSD
// dissertation 2007): given a workflow application (a weighted DAG), it
// predicts the best scheduling heuristic and the best resource-collection
// size, and generates concrete resource specifications for three resource
// selection systems — vgES (vgDL), Condor (ClassAds) and SWORD (XML) — plus
// alternative specifications when the optimal request cannot be fulfilled.
//
// The package is a façade over the implementation packages:
//
//   - DAG application model and generators (random, Montage);
//   - a synthetic multi-cluster LSDE platform with a wide-area topology;
//   - the scheduling heuristics the dissertation studies (MCP, Greedy, DLS,
//     FCA, FCFS) with a deterministic scheduling-cost model;
//   - the knee-based resource-collection size prediction model (Ch. V);
//   - the scheduling-heuristic prediction model (Ch. VI);
//   - the specification generator and selector substrates (Ch. VII).
//
// # Quick start
//
//	d, _ := rsgen.GenerateDAG(rsgen.DAGSpec{
//		Size: 1000, CCR: 0.1, Parallelism: 0.6,
//		Density: 0.5, Regularity: 0.5, MeanCost: 40,
//	}, rsgen.NewRNG(1))
//	gen, _ := rsgen.QuickGenerator(1)      // or train full-scale models
//	s, _ := gen.Generate(d, rsgen.Options{ClockGHz: 3.0})
//	fmt.Println(s.VgDL)                     // feed to a vgES-style finder
package rsgen

import (
	"fmt"
	"io"

	"rsgen/internal/bind"
	"rsgen/internal/classad"
	"rsgen/internal/dag"
	"rsgen/internal/heurpred"
	"rsgen/internal/knee"
	"rsgen/internal/monitor"
	"rsgen/internal/platform"
	"rsgen/internal/sched"
	"rsgen/internal/sim"
	"rsgen/internal/spec"
	"rsgen/internal/sword"
	"rsgen/internal/vgdl"
	"rsgen/internal/xrand"
)

// Application-model types (dissertation §III.1).
type (
	// DAG is a weighted task graph; see GenerateDAG, Montage1629,
	// Montage4469 and NewDAG.
	DAG = dag.DAG
	// Task is one non-preemptible unit of work (cost in reference-CPU
	// seconds).
	Task = dag.Task
	// Edge is a data dependency (cost in reference-bandwidth seconds).
	Edge = dag.Edge
	// TaskID indexes tasks within one DAG.
	TaskID = dag.TaskID
	// Characteristics are the eight §III.1.1 DAG characteristics.
	Characteristics = dag.Characteristics
	// DAGSpec parameterizes random DAG generation.
	DAGSpec = dag.GenSpec
	// MontageLevel describes one stage of a Montage workflow.
	MontageLevel = dag.MontageLevel
)

// Resource-model types (dissertation §III.2).
type (
	// Platform is a synthetic multi-cluster LSDE.
	Platform = platform.Platform
	// PlatformSpec parameterizes platform synthesis.
	PlatformSpec = platform.GenSpec
	// Host is one compute node.
	Host = platform.Host
	// ResourceCollection is the host set a selector hands a scheduler.
	ResourceCollection = platform.ResourceCollection
	// Network converts edge costs into host-pair transfer times.
	Network = platform.Network
	// UniformNetwork is the homogeneous-bandwidth model of §V.2.
	UniformNetwork = platform.UniformNetwork
)

// Scheduling types (dissertation §III.3, Ch. IV–V).
type (
	// Heuristic is a DAG scheduling algorithm; see Heuristics and
	// HeuristicByName. The interface is sealed: only the scheduler's own
	// heuristics implement it, and its values are comparable.
	Heuristic = sched.Heuristic
	// Schedule is a complete task→host mapping with timing and the
	// abstract scheduling-operation count.
	Schedule = sched.Schedule
)

// Prediction-model and generator types (dissertation Ch. V–VII).
type (
	// SizeModelSet is the trained RC-size model family over knee
	// thresholds.
	SizeModelSet = knee.ModelSet
	// SizeModel is one threshold's model.
	SizeModel = knee.Model
	// SizeTrainConfig is the size-model observation grid.
	SizeTrainConfig = knee.TrainConfig
	// SweepConfig fixes resource conditions for knee sweeps.
	SweepConfig = knee.SweepConfig
	// Curve is turn-around versus RC size.
	Curve = knee.Curve
	// HeuristicModel predicts the best scheduling heuristic.
	HeuristicModel = heurpred.Model
	// HeuristicTrainConfig is the heuristic-model observation grid.
	HeuristicTrainConfig = heurpred.TrainConfig
	// Generator combines the trained models into a specification
	// generator.
	Generator = spec.Generator
	// Options tune one specification request.
	Options = spec.Options
	// Specification is the generated resource specification in all three
	// target languages.
	Specification = spec.Specification
	// Alternative is one degraded fallback specification.
	Alternative = spec.Alternative
)

// RNG is the deterministic random source used across the library.
type RNG = xrand.RNG

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed uint64) *RNG { return xrand.New(seed) }

// NewDAG validates and builds a DAG from explicit tasks and edges.
func NewDAG(tasks []Task, edges []Edge) (*DAG, error) { return dag.New(tasks, edges) }

// GenerateDAG builds a random DAG matching the spec.
func GenerateDAG(s DAGSpec, rng *RNG) (*DAG, error) { return dag.Generate(s, rng) }

// Montage4469 builds the 4469-task Montage workflow (five-square-degree
// mosaic) with edge costs set for the given CCR.
func Montage4469(ccr float64) (*DAG, error) { return dag.Montage(dag.MontageLevels4469(), ccr, nil) }

// Montage1629 builds the 1629-task Montage workflow (three-square-degree
// mosaic).
func Montage1629(ccr float64) (*DAG, error) { return dag.Montage(dag.MontageLevels1629(), ccr, nil) }

// GeneratePlatform synthesizes a multi-cluster LSDE.
func GeneratePlatform(s PlatformSpec, rng *RNG) (*Platform, error) { return platform.Generate(s, rng) }

// UniverseRC wraps a whole platform as one resource collection (implicit
// selection).
func UniverseRC(p *Platform) *ResourceCollection { return platform.UniverseRC(p) }

// TopHostsRC returns the k fastest platform hosts (the naive abstraction of
// §IV.2.4.1).
func TopHostsRC(p *Platform, k int) *ResourceCollection { return platform.TopHostsRC(p, k) }

// HomogeneousRC builds an n-host uniform collection.
func HomogeneousRC(n int, clockGHz, bwMbps float64) *ResourceCollection {
	return platform.HomogeneousRC(n, clockGHz, bwMbps)
}

// HeterogeneousRC builds an n-host collection with clock rates uniform in
// clockGHz·(1±het).
func HeterogeneousRC(n int, clockGHz, het, bwMbps float64, rng *RNG) *ResourceCollection {
	return platform.HeterogeneousRC(n, clockGHz, het, bwMbps, rng)
}

// Heuristics returns every implemented scheduling heuristic.
func Heuristics() []Heuristic { return sched.All() }

// HeuristicByName returns MCP, Greedy, DLS, FCA or FCFS.
func HeuristicByName(name string) (Heuristic, error) { return sched.ByName(name) }

// SchedulingTime converts a schedule's abstract operation count into modeled
// seconds at the given scheduler-clock ratio (1 = the 2.80 GHz reference).
func SchedulingTime(ops, scr float64) float64 { return sched.SchedulingTime(ops, scr) }

// ValidateSchedule checks every schedule invariant (precedence with
// communication, host exclusivity, timing consistency).
func ValidateSchedule(d *DAG, rc *ResourceCollection, s *Schedule) error {
	return sim.Validate(d, rc, s)
}

// ExecuteSchedule replays a schedule on an independent simulator and returns
// the recomputed makespan and per-host utilization.
func ExecuteSchedule(d *DAG, rc *ResourceCollection, s *Schedule) (*sim.Result, error) {
	return sim.Execute(d, rc, s)
}

// TrainSizeModel runs the Chapter V observation-set procedure. Use
// DefaultSizeTrainConfig for the dissertation's full Table V-1 grid (very
// expensive) or a reduced grid for interactive use.
func TrainSizeModel(cfg SizeTrainConfig) (*SizeModelSet, error) { return knee.Train(cfg) }

// DefaultSizeTrainConfig is the full Table V-1 observation grid.
func DefaultSizeTrainConfig() SizeTrainConfig { return knee.DefaultTrainConfig() }

// TrainHeuristicModel runs the Chapter VI observation-set procedure.
func TrainHeuristicModel(cfg HeuristicTrainConfig) (*HeuristicModel, error) {
	return heurpred.Train(cfg)
}

// SweepTurnAround computes the turn-around vs RC-size curve whose knee
// defines the best RC size (Figs. V-2/V-3).
func SweepTurnAround(dags []*DAG, cfg SweepConfig) (Curve, error) { return knee.Sweep(dags, cfg) }

// QuickGenerator trains a compact but real model pair (seconds of CPU) and
// returns a ready-to-use specification generator. For production-quality
// models covering large DAGs, train with TrainSizeModel/TrainHeuristicModel
// on wider grids and assemble a Generator directly.
func QuickGenerator(seed uint64) (*Generator, error) {
	size, err := knee.Train(knee.TrainConfig{
		Sizes:      []int{100, 500, 1000},
		CCRs:       []float64{0.01, 0.3, 1.0},
		Alphas:     []float64{0.4, 0.6, 0.8},
		Betas:      []float64{0.1, 0.5, 1.0},
		Reps:       3,
		Density:    0.5,
		MeanCost:   40,
		Thresholds: knee.Thresholds,
		Seed:       seed,
	})
	if err != nil {
		return nil, err
	}
	heur, err := heurpred.Train(heurpred.TrainConfig{
		Sizes:  []int{100, 500, 1000},
		CCRs:   []float64{0.1, 0.5},
		Alphas: []float64{0.5, 0.7},
		Betas:  []float64{0.5},
		Reps:   2,
		Seed:   seed + 1,
	})
	if err != nil {
		return nil, err
	}
	return &Generator{Size: size, Heur: heur}, nil
}

// TinyGenerator trains a minimal model pair (about a second of CPU) —
// enough for smoke tests, service bring-up and demos, far too coarse for
// real predictions. Use QuickGenerator or the full training configs for
// anything that matters.
func TinyGenerator(seed uint64) (*Generator, error) {
	size, err := knee.Train(knee.TrainConfig{
		Sizes:      []int{50, 200},
		CCRs:       []float64{0.1, 0.5},
		Alphas:     []float64{0.4, 0.7},
		Betas:      []float64{0.2, 0.8},
		Reps:       1,
		Density:    0.5,
		MeanCost:   40,
		Thresholds: knee.Thresholds,
		Seed:       seed,
	})
	if err != nil {
		return nil, err
	}
	heur, err := heurpred.Train(heurpred.TrainConfig{
		Sizes:  []int{50, 200},
		CCRs:   []float64{0.1},
		Alphas: []float64{0.5},
		Betas:  []float64{0.5},
		Reps:   1,
		Seed:   seed + 1,
	})
	if err != nil {
		return nil, err
	}
	return &Generator{Size: size, Heur: heur}, nil
}

// SaveGenerator writes a trained generator as one versioned JSON artifact
// that serve mode (cmd/rsgend) and the CLI (-models) load without
// retraining. trainSeconds records the training cost the artifact
// amortizes; pass 0 when unknown.
func SaveGenerator(w io.Writer, g *Generator, trainSeconds float64) error {
	return spec.SaveGenerator(w, g, trainSeconds)
}

// LoadGenerator reads an artifact written by SaveGenerator and returns the
// generator plus the recorded training cost in seconds.
func LoadGenerator(r io.Reader) (*Generator, float64, error) {
	return spec.LoadGenerator(r)
}

// EquivalentSize finds the smallest RC size at altClock matching the
// turn-around of baseSize hosts at baseClock (the Fig. VII-7 downgrade
// threshold); ok is false when slower hosts can never catch up.
func EquivalentSize(dags []*DAG, cfg SweepConfig, baseSize int, baseClock, altClock, tol float64) (size int, ok bool, err error) {
	return spec.EquivalentSize(dags, cfg, baseSize, baseClock, altClock, tol)
}

// ResolveVgDL parses a vgDL specification and resolves it against a
// platform with the vgES-style finder, returning the selected resource
// collection.
func ResolveVgDL(p *Platform, src string) (*ResourceCollection, error) {
	s, err := vgdl.Parse(src)
	if err != nil {
		return nil, err
	}
	return vgdl.NewFinder(p).Find(s)
}

// MatchClassAd parses a job ClassAd, matches it against advertisement ads
// for every platform host (Condor matchmaking), and returns up to limit
// matched hosts as a resource collection (limit 0 returns a collection of
// all matches). It returns an error when nothing matches.
func MatchClassAd(p *Platform, adSrc string, limit int) (*ResourceCollection, error) {
	ad, err := classad.Parse(adSrc)
	if err != nil {
		return nil, err
	}
	matched := classad.MatchHosts(ad, p, limit, nil)
	if len(matched) == 0 {
		return nil, fmt.Errorf("rsgen: classad matched no machines")
	}
	hosts := make([]Host, len(matched))
	for i, h := range matched {
		hosts[i] = p.Hosts[h]
	}
	return platform.SubsetRC(p, hosts), nil
}

// SelectSword decodes a SWORD XML query and resolves it against a synthetic
// node directory built over the platform (seeded deterministically),
// returning the selected hosts as a resource collection.
func SelectSword(p *Platform, xmlSrc string, seed uint64) (*ResourceCollection, error) {
	req, err := sword.Decode(xmlSrc)
	if err != nil {
		return nil, err
	}
	dir := sword.NewDirectory(p, xrand.New(seed))
	sel, err := dir.Select(req)
	if err != nil {
		return nil, err
	}
	return platform.SubsetRC(p, sel.Hosts(req.Groups)), nil
}

// BaselineHeuristics returns the Pegasus-era baseline schedulers the paper
// names in §IV.1.2 — Random, RoundRobin and MinMin — for comparison runs.
func BaselineHeuristics() []Heuristic { return sched.Baselines() }

// ParallelChains builds an SCEC-style workflow of independent task chains
// (§V.3.4): for these, the optimal RC size equals the number of chains.
func ParallelChains(chains, length int, taskCost, edgeCost float64) (*DAG, error) {
	return dag.ParallelChains(chains, length, taskCost, edgeCost)
}

// EMANLike builds an EMAN-style compute-intensive workflow (§V.3.4): a
// light fan-out to width heavy tasks and back; the DAG width is the optimal
// RC size.
func EMANLike(width int, heavyCost, ccr float64) (*DAG, error) {
	return dag.EMANLike(width, heavyCost, ccr)
}

// SpaceShared splits every host of a collection into ways virtual
// processors at 1/ways of the clock rate — the §III.2.3 space-sharing
// model.
func SpaceShared(rc *ResourceCollection, ways int) (*ResourceCollection, error) {
	return platform.SpaceShared(rc, ways)
}

// Binding (§II.2.3) and monitoring (§II.2.6) substrate re-exports.
type (
	// BindingGrid is the GRAM-like binding layer: one local resource
	// manager per platform cluster.
	BindingGrid = bind.Grid
	// Binding is a successful acquisition with its availability delay.
	Binding = bind.Binding
	// Manager is one cluster's local resource manager.
	Manager = bind.Manager
	// Monitor watches a bound collection against expectations.
	Monitor = monitor.Monitor
	// MonitorEvent mutates a monitored host's state.
	MonitorEvent = monitor.Event
	// Violation is one detected expectation failure.
	Violation = monitor.Violation
)

// Manager disciplines (§II.2.3): immediate dedicated access, batch queues,
// and advance reservations.
const (
	Dedicated   = bind.Dedicated
	BatchQueue  = bind.BatchQueue
	Reservation = bind.Reservation
)

// NewBindingGrid assigns synthetic local resource managers to every cluster
// of the platform (⅓ dedicated, ⅓ batch-queued with exponential waits
// around meanQueueWait seconds, ⅓ reservation-based).
func NewBindingGrid(p *Platform, meanQueueWait float64, rng *RNG) *BindingGrid {
	return bind.NewGrid(p, meanQueueWait, rng)
}

// NewMonitor builds a vgMON-style monitor over a bound collection with the
// default expectations (host up, dedicated load, the collection's clock
// floor).
func NewMonitor(rc *ResourceCollection) (*Monitor, error) { return monitor.New(rc) }

// ResolveVgDLExcluding is ResolveVgDL with clusters the binding layer has
// flagged as stalled or refusing removed from consideration — the rebind
// loop of Chapter VII.
func ResolveVgDLExcluding(p *Platform, src string, excludedClusters []int) (*ResourceCollection, error) {
	s, err := vgdl.Parse(src)
	if err != nil {
		return nil, err
	}
	f := vgdl.NewFinder(p)
	f.Exclude(excludedClusters...)
	return f.Find(s)
}

// RescueImpact summarizes a mid-run host-failure recovery.
type RescueImpact = sim.RescueImpact

// Rescue re-plans a schedule after host failedHost dies at time t: finished
// work is kept, lost and pending tasks migrate to the survivors (§II.2.6's
// migration reaction). AssessRescueImpact additionally summarizes the
// damage.
func Rescue(d *DAG, rc *ResourceCollection, s *Schedule, failedHost int, t float64) (*Schedule, error) {
	return sim.Rescue(d, rc, s, failedHost, t)
}

// AssessRescueImpact runs Rescue and reports moved tasks and makespan loss.
func AssessRescueImpact(d *DAG, rc *ResourceCollection, s *Schedule, failedHost int, t float64) (*Schedule, RescueImpact, error) {
	return sim.AssessRescue(d, rc, s, failedHost, t)
}

// MeasureSchedulingTime runs the heuristic and returns the schedule plus
// the actual wall-clock seconds it took on this machine — the paper's
// original measurement methodology, for sanity-checking the deterministic
// cost model's asymptotics.
func MeasureSchedulingTime(h Heuristic, d *DAG, rc *ResourceCollection) (*Schedule, float64, error) {
	return sched.MeasuredSchedulingTime(h, d, rc)
}
