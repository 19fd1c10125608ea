package sim

import (
	"math"
	"testing"
	"testing/quick"

	"rsgen/internal/dag"
	"rsgen/internal/platform"
	"rsgen/internal/sched"
	"rsgen/internal/xrand"
)

func TestEveryHeuristicProducesValidSchedules(t *testing.T) {
	specs := []dag.GenSpec{
		{Size: 80, CCR: 0.1, Parallelism: 0.5, Density: 0.5, Regularity: 0.5, MeanCost: 40},
		{Size: 120, CCR: 1.0, Parallelism: 0.7, Density: 0.3, Regularity: 0.8, MeanCost: 10},
		{Size: 60, CCR: 2.0, Parallelism: 0.3, Density: 1.0, Regularity: 0.1, MeanCost: 100},
	}
	rcs := []*platform.ResourceCollection{
		platform.HomogeneousRC(1, 1.5, 1000),
		platform.HomogeneousRC(8, 3.0, 1000),
		platform.HeterogeneousRC(12, 2.8, 0.3, 622, xrand.New(1)),
		// At or above the scheduler's 128-host gate, where MCP and Greedy
		// search a bucketed host index: per cluster on a platform's
		// cluster network, one bucket for Greedy on a uniform network.
		platform.UniverseRC(platform.MustGenerate(platform.GenSpec{Clusters: 8, Year: 2006}, xrand.New(2))),
		platform.HeterogeneousRC(200, 2.8, 0.6, 1000, xrand.New(3)),
	}
	for si, spec := range specs {
		d := dag.MustGenerate(spec, xrand.NewFrom(77, uint64(si)))
		for ri, rc := range rcs {
			for _, h := range sched.All() {
				s, err := h.Schedule(d, rc)
				if err != nil {
					t.Fatalf("spec %d rc %d %s: %v", si, ri, h.Name(), err)
				}
				if err := Validate(d, rc, s); err != nil {
					t.Errorf("spec %d rc %d %s: invalid schedule: %v", si, ri, h.Name(), err)
				}
				res, err := Execute(d, rc, s)
				if err != nil {
					t.Fatalf("spec %d rc %d %s: execute: %v", si, ri, h.Name(), err)
				}
				// Replay can only match or improve on the claimed
				// makespan (list schedules leave no useful slack, so
				// equality is expected; divergence means bookkeeping
				// bugs).
				if res.Makespan > s.Makespan+1e-6 {
					t.Errorf("spec %d rc %d %s: replay makespan %v > claimed %v",
						si, ri, h.Name(), res.Makespan, s.Makespan)
				}
				if res.Makespan < s.Makespan*0.5 {
					t.Errorf("spec %d rc %d %s: replay makespan %v wildly below claimed %v",
						si, ri, h.Name(), res.Makespan, s.Makespan)
				}
				if res.Utilization <= 0 || res.Utilization > 1+1e-9 {
					t.Errorf("spec %d rc %d %s: utilization %v", si, ri, h.Name(), res.Utilization)
				}
			}
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	spec := dag.GenSpec{Size: 50, CCR: 0.5, Parallelism: 0.5, Density: 0.5, Regularity: 0.5, MeanCost: 20}
	d := dag.MustGenerate(spec, xrand.New(9))
	rc := platform.HomogeneousRC(4, 1.5, 1000)
	base, err := sched.MCP{}.Schedule(d, rc)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(d, rc, base); err != nil {
		t.Fatalf("baseline invalid: %v", err)
	}

	clone := func() *sched.Schedule {
		s := &sched.Schedule{
			Host:     append([]int(nil), base.Host...),
			Start:    append([]float64(nil), base.Start...),
			Finish:   append([]float64(nil), base.Finish...),
			Makespan: base.Makespan,
			Ops:      base.Ops,
		}
		return s
	}

	t.Run("host out of range", func(t *testing.T) {
		s := clone()
		s.Host[3] = 99
		if err := Validate(d, rc, s); err == nil {
			t.Error("accepted out-of-range host")
		}
	})
	t.Run("finish mismatch", func(t *testing.T) {
		s := clone()
		s.Finish[3] += 5
		if err := Validate(d, rc, s); err == nil {
			t.Error("accepted finish ≠ start + exec")
		}
	})
	t.Run("precedence violation", func(t *testing.T) {
		s := clone()
		// Find a task with a parent and yank its start to 0.
		for v := 0; v < d.Size(); v++ {
			if len(d.Pred(dag.TaskID(v))) > 0 && s.Start[v] > 1 {
				exec := s.Finish[v] - s.Start[v]
				s.Start[v] = 0
				s.Finish[v] = exec
				break
			}
		}
		if err := Validate(d, rc, s); err == nil {
			t.Error("accepted precedence violation")
		}
	})
	t.Run("makespan lie", func(t *testing.T) {
		s := clone()
		s.Makespan *= 2
		if err := Validate(d, rc, s); err == nil {
			t.Error("accepted wrong makespan")
		}
	})
	t.Run("wrong length", func(t *testing.T) {
		s := clone()
		s.Host = s.Host[:len(s.Host)-1]
		if err := Validate(d, rc, s); err == nil {
			t.Error("accepted truncated schedule")
		}
		if _, err := Execute(d, rc, s); err == nil {
			t.Error("Execute accepted truncated schedule")
		}
	})
}

func TestExecuteChainByHand(t *testing.T) {
	// Chain a(4) → b(6), edge cost 2 at reference bandwidth, on two
	// reference hosts over a 1 Gb network (transfer ×10 = 20 s) with a
	// schedule that forces the cross-host transfer.
	d := dag.MustNew(
		[]dag.Task{{ID: 0, Cost: 4}, {ID: 1, Cost: 6}},
		[]dag.Edge{{From: 0, To: 1, Cost: 2}},
	)
	rc := platform.HomogeneousRC(2, platform.ReferenceClockGHz, 1000)
	s := &sched.Schedule{
		Host:     []int{0, 1},
		Start:    []float64{0, 24},
		Finish:   []float64{4, 30},
		Makespan: 30,
	}
	if err := Validate(d, rc, s); err != nil {
		t.Fatalf("hand schedule invalid: %v", err)
	}
	res, err := Execute(d, rc, s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-30) > 1e-9 {
		t.Errorf("makespan = %v, want 30 (4 + 20 transfer + 6)", res.Makespan)
	}
	if math.Abs(res.HostBusy[0]-4) > 1e-9 || math.Abs(res.HostBusy[1]-6) > 1e-9 {
		t.Errorf("busy = %v, want [4 6]", res.HostBusy)
	}
}

func TestPropertySchedulesAlwaysValidate(t *testing.T) {
	f := func(seed uint64, size uint8, hosts uint8, hetQ uint8, hIdx uint8) bool {
		spec := dag.GenSpec{
			Size:        int(size%150) + 2,
			CCR:         float64(seed%200) / 100,
			Parallelism: 0.2 + float64(seed%7)/10,
			Density:     0.2 + float64(seed%8)/10,
			Regularity:  0.1 + float64(seed%9)/10,
			MeanCost:    20,
		}
		if spec.Density > 1 {
			spec.Density = 1
		}
		d, err := dag.Generate(spec, xrand.New(seed))
		if err != nil {
			return false
		}
		het := float64(hetQ%5) / 10
		rc := platform.HeterogeneousRC(int(hosts%16)+1, 2.8, het, 1000, xrand.New(seed+1))
		hs := sched.All()
		h := hs[int(hIdx)%len(hs)]
		s, err := h.Schedule(d, rc)
		if err != nil {
			return false
		}
		return Validate(d, rc, s) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyReplayNeverExceedsClaim(t *testing.T) {
	f := func(seed uint64, hosts uint8) bool {
		spec := dag.GenSpec{Size: 60, CCR: 0.5, Parallelism: 0.5, Density: 0.5, Regularity: 0.5, MeanCost: 30}
		d, err := dag.Generate(spec, xrand.New(seed))
		if err != nil {
			return false
		}
		rc := platform.HomogeneousRC(int(hosts%8)+1, 3.0, 1000)
		for _, h := range sched.All() {
			s, err := h.Schedule(d, rc)
			if err != nil {
				return false
			}
			res, err := Execute(d, rc, s)
			if err != nil || res.Makespan > s.Makespan+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
