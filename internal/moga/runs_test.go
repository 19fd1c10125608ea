package moga

import (
	"math"
	"slices"
	"testing"

	"rsgen/internal/dag"
	"rsgen/internal/platform"
	"rsgen/internal/spec"
	"rsgen/internal/xrand"
)

// TestObjectivesInvariantWithinRuns is the proof obligation for searching
// over (run, count) instead of host subsets: hosts of one platform.Run are
// interchangeable in every objective. On the 200-cluster 2007 platform, with
// part of it excluded, random genomes are scored, then some of their hosts
// are swapped for other free eligible hosts of the same run; the four
// objectives must keep every bit, for every heuristic and RCSize moga_front
// uses. A run is a stretch of consecutive host IDs, so a swap keeps every
// host's position in the sorted genome relative to hosts of other runs.
func TestObjectivesInvariantWithinRuns(t *testing.T) {
	p := platform.MustGenerate(platform.GenSpec{Clusters: 200, Year: 2007}, xrand.New(1))
	d := dag.MustGenerate(dag.GenSpec{
		Size: 64, CCR: 0.5, Parallelism: 0.5, Density: 0.5, Regularity: 0.5, MeanCost: 40,
	}, xrand.New(1))
	excluded := map[platform.HostID]bool{}
	for _, id := range xrand.New(2).Sample(p.NumHosts(), p.NumHosts()/4) {
		excluded[platform.HostID(id)] = true
	}
	// run[i] numbers the run of host i across the table.
	runs := p.Runs()
	run := make([]int, p.NumHosts())
	for c := range p.Clusters {
		rs, base := runs.Cluster(c)
		for j, r := range rs {
			for id := r.First; id < r.First+platform.HostID(r.N); id++ {
				run[id] = base + j
			}
		}
	}

	swaps := 0
	for _, h := range []string{"MCP", "Greedy", "FCA", "FCFS", "DLS", "Random", "RoundRobin", "MinMin"} {
		for _, k := range []int{5, 12, 22} {
			pr := Problem{Platform: p, Spec: &spec.Specification{Heuristic: h, RCSize: k}, Dag: d, Excluded: excluded}
			e, err := testEngine(pr, Config{Workers: 1}.withDefaults())
			if err != nil {
				t.Fatal(err)
			}
			sc := e.sc
			// byRun[r] lists run r's eligible indices.
			byRun := make([][]int32, runs.Len())
			for i, id := range e.elig {
				byRun[run[id]] = append(byRun[run[id]], int32(i))
			}
			rng := xrand.New(uint64(k))
			for trial := 0; trial < 6; trial++ {
				g := make([]int32, k)
				for i, v := range rng.Sample(len(e.elig), k) {
					g[i] = int32(v)
				}
				slices.Sort(g)
				want := e.score(sc, g)

				swapped := slices.Clone(g)
				for i, v := range swapped {
					if rng.Intn(2) == 0 {
						continue
					}
					peers := byRun[run[e.elig[v]]]
					alt := peers[rng.Intn(len(peers))]
					if !slices.Contains(swapped, alt) {
						swapped[i] = alt
						swaps++
					}
				}
				slices.Sort(swapped)
				if got := e.score(sc, swapped); objBits(got) != objBits(want) {
					t.Errorf("%s k=%d: objectives moved within runs\nhosts %v: %+v\nhosts %v: %+v",
						h, k, g, want, swapped, got)
				}
			}
		}
	}
	if swaps == 0 {
		t.Fatal("no host was swapped: the test proved nothing")
	}
}

func objBits(o Objectives) (b [4]uint64) {
	for i, v := range o.vector() {
		b[i] = math.Float64bits(v)
	}
	return b
}
