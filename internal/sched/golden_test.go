package sched

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"rsgen/internal/dag"
	"rsgen/internal/platform"
	"rsgen/internal/xrand"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_schedules.txt from the current implementation")

// goldenNet is a deterministic non-uniform network: the transfer penalty
// depends on the host pair, exercising the general (slow) readyFn path.
type goldenNet struct{}

func (goldenNet) TransferTime(edgeCost float64, a, b int) float64 {
	if a == b || edgeCost == 0 {
		return 0
	}
	// Pair-dependent bandwidth in {1, 1/2, 1/3, 1/4} of reference.
	return edgeCost * float64(1+(a*7+b*13)%4)
}

// goldenCase is one (heuristic × network × RC × DAG) cell of the corpus.
type goldenCase struct {
	name string
	h    Heuristic
	d    *dag.DAG
	rc   *platform.ResourceCollection
}

type namedDAG struct {
	name string
	d    *dag.DAG
}

// goldenDAGs are the corpus's two DAG shapes: a wide low-communication
// sweep and a dense communication-heavy mesh.
func goldenDAGs() []namedDAG {
	wide := dag.MustGenerate(dag.GenSpec{
		Size: 180, CCR: 0.1, Parallelism: 0.7, Density: 0.3, Regularity: 0.6, MeanCost: 40,
	}, xrand.New(101))
	dense := dag.MustGenerate(dag.GenSpec{
		Size: 140, CCR: 1.0, Parallelism: 0.4, Density: 0.8, Regularity: 0.3, MeanCost: 25,
	}, xrand.New(102))
	return []namedDAG{{"wide", wide}, {"dense", dense}}
}

func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	dags := goldenDAGs()

	// Homogeneous and heterogeneous hosts, each under the uniform network
	// and under the pair-dependent goldenNet.
	homog := platform.HomogeneousRC(16, 2.8, 1000).Hosts
	heter := platform.HeterogeneousRC(16, 2.8, 0.5, 1000, xrand.New(103)).Hosts
	rcs := []struct {
		name  string
		hosts []platform.Host
		net   platform.Network
	}{
		{"uniform-homog", homog, platform.UniformNetwork{Mbps: 1000}},
		{"uniform-heter", heter, platform.UniformNetwork{Mbps: 1000}},
		{"pairnet-homog", homog, goldenNet{}},
		{"pairnet-heter", heter, goldenNet{}},
	}

	heuristics := append(All(), Baselines()...)
	var cases []goldenCase
	for _, dd := range dags {
		for _, rr := range rcs {
			for _, h := range heuristics {
				cases = append(cases, goldenCase{
					name: fmt.Sprintf("%s/%s/%s", h.Name(), rr.name, dd.name),
					h:    h,
					d:    dd.d,
					rc:   &platform.ResourceCollection{Hosts: rr.hosts, Net: rr.net},
				})
			}
		}
	}
	return cases
}

// scheduleHash is an FNV-1a hash over every byte of the schedule: per-task
// (Host, Start, Finish) plus the Ops count. Any change to any of them —
// including a bit-level float difference — changes the hash.
func scheduleHash(s *Schedule) uint64 {
	h := uint64(0xCBF29CE484222325)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (v >> (8 * i) & 0xFF)) * 0x100000001B3
		}
	}
	for t := range s.Host {
		mix(uint64(s.Host[t]))
		mix(math.Float64bits(s.Start[t]))
		mix(math.Float64bits(s.Finish[t]))
	}
	mix(math.Float64bits(s.Ops))
	return h
}

const goldenPath = "testdata/golden_schedules.txt"

// TestGoldenScheduleCorpus enforces byte-identical schedules forever: the
// committed hashes were pinned before the hot-path overhaul, so any
// optimization that changes a single host assignment, start/finish bit, or
// Ops count for any heuristic (baselines included) fails here.
func TestGoldenScheduleCorpus(t *testing.T) {
	cases := goldenCases(t)
	got := make(map[string]uint64, len(cases))
	for _, c := range cases {
		s, err := c.h.Schedule(c.d, c.rc)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got[c.name] = scheduleHash(s)
	}

	if *updateGolden {
		var names []string
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		var b strings.Builder
		b.WriteString("# FNV-1a hashes of (Host, Start, Finish, Ops) per scheduling case.\n")
		b.WriteString("# Pinned before the scheduler hot-path overhaul; regenerate only for\n")
		b.WriteString("# deliberate semantic changes: go test ./internal/sched -run TestGoldenScheduleCorpus -update-golden\n")
		for _, n := range names {
			fmt.Fprintf(&b, "%s %016x\n", n, got[n])
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden hashes to %s", len(names), goldenPath)
		return
	}

	want := readGolden(t)
	if len(want) != len(got) {
		t.Errorf("golden corpus has %d cases, current run produced %d (regenerate with -update-golden only if the corpus definition changed)", len(want), len(got))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("golden case %q no longer produced", name)
			continue
		}
		if g != w {
			t.Errorf("%s: schedule hash %016x differs from pinned golden %016x (schedule is no longer byte-identical)", name, g, w)
		}
	}
}

func readGolden(t *testing.T) map[string]uint64 {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("golden corpus missing (generate with -update-golden): %v", err)
	}
	defer f.Close()
	want := make(map[string]uint64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var name string
		var h uint64
		if _, err := fmt.Sscanf(line, "%s %x", &name, &h); err != nil {
			t.Fatalf("bad golden line %q: %v", line, err)
		}
		want[name] = h
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}
