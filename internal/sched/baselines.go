package sched

// The dissertation motivates its heuristic study by what grid workflow
// systems actually deployed: "the Pegasus grid workflow framework implements
// only the simplistic random, round-robin, or min-min heuristics"
// (§IV.1.2). These three baselines are implemented here so the comparison
// the paper gestures at can be run directly; they are not part of the
// Chapter VI candidate set by default but are available through ByName and
// Baselines.

import (
	"math"

	"rsgen/internal/dag"
	"rsgen/internal/platform"
	"rsgen/internal/xrand"
)

// Baselines returns the three Pegasus-era baseline heuristics.
func Baselines() []Heuristic {
	return []Heuristic{Random{}, RoundRobin{}, MinMin{}}
}

// Random assigns each ready task (arrival order) to a uniformly random
// host. The stream is derived deterministically from the Seed field so
// experiments stay reproducible; the zero value uses seed 0.
type Random struct {
	Seed uint64
}

// Name implements Heuristic.
func (Random) Name() string { return "Random" }

// Schedule implements Heuristic.
func (r Random) Schedule(d *dag.DAG, rc *platform.ResourceCollection) (*Schedule, error) {
	return schedule(r, d, rc)
}

func (Random) compile(d *dag.DAG, o *order, sc *orderScratch) { sc.arrival(d, o) }

func (r Random) run(s *state, o *order) {
	rng := xrand.NewFrom(r.Seed, 0x52414E44)
	m := len(s.rc.Hosts)
	s.replay(o, func(v dag.TaskID) (int, float64) {
		h := rng.Intn(m)
		ready := s.readyTimes(v)
		start := s.free[h]
		if rr := ready.at(h); rr > start {
			start = rr
		}
		s.ops++ // one draw per task
		return h, start
	})
}

// RoundRobin assigns ready tasks (arrival order) to hosts cyclically,
// oblivious to load, clocks and communication.
type RoundRobin struct{}

// Name implements Heuristic.
func (RoundRobin) Name() string { return "RoundRobin" }

// Schedule implements Heuristic.
func (RoundRobin) Schedule(d *dag.DAG, rc *platform.ResourceCollection) (*Schedule, error) {
	return schedule(RoundRobin{}, d, rc)
}

func (RoundRobin) compile(d *dag.DAG, o *order, sc *orderScratch) { sc.arrival(d, o) }

func (RoundRobin) run(s *state, o *order) {
	m := len(s.rc.Hosts)
	next := 0
	s.replay(o, func(v dag.TaskID) (int, float64) {
		h := next
		next = (next + 1) % m
		ready := s.readyTimes(v)
		start := s.free[h]
		if rr := ready.at(h); rr > start {
			start = rr
		}
		s.ops++
		return h, start
	})
}

// MinMin is the classic batch heuristic (Maheswaran et al.): repeatedly,
// over all ready tasks, compute each task's minimum completion time over
// all hosts, then schedule the task whose minimum is smallest. Like DLS it
// re-evaluates ready×hosts every step, so its scheduling cost is high.
type MinMin struct{}

// Name implements Heuristic.
func (MinMin) Name() string { return "MinMin" }

// Schedule implements Heuristic.
func (MinMin) Schedule(d *dag.DAG, rc *platform.ResourceCollection) (*Schedule, error) {
	return schedule(MinMin{}, d, rc)
}

func (MinMin) compile(*dag.DAG, *order, *orderScratch) {}

func (MinMin) run(s *state, _ *order) {
	d, rc := s.d, s.rc
	s.ops += float64(d.Size() + d.NumEdges())
	n := d.Size()
	m := len(rc.Hosts)
	unmet := make([]int, n)
	var ready []dag.TaskID
	for v := 0; v < n; v++ {
		unmet[v] = len(d.Pred(dag.TaskID(v)))
		if unmet[v] == 0 {
			ready = append(ready, dag.TaskID(v))
		}
	}
	for len(ready) > 0 {
		bestI, bestH := -1, -1
		bestFin := math.Inf(1)
		bestStart := 0.0
		for i, v := range ready {
			cost := d.Task(v).Cost
			for h, r := range s.readyAll(v) {
				st := s.free[h]
				if r > st {
					st = r
				}
				fin := st + s.execTime(cost, h)
				if fin < bestFin || (fin == bestFin && (bestI == -1 || v < ready[bestI])) {
					bestI, bestH, bestFin, bestStart = i, h, fin, st
				}
			}
		}
		s.ops += float64(len(ready) * m)
		v := ready[bestI]
		ready[bestI] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		s.place(v, bestH, bestStart)
		for _, a := range d.Succ(v) {
			unmet[a.Task]--
			if unmet[a.Task] == 0 {
				ready = append(ready, a.Task)
			}
		}
	}
}
