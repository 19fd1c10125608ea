package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// resultSchema is bumped when the layout of result.json changes in a way
// -compare must know about.
const resultSchema = 1

// resultDoc is the one document every mode writes (bench/out/result.json)
// and -compare reads.
type resultDoc struct {
	Schema  int      `json:"schema"`
	Seed    uint64   `json:"seed"`
	Seconds int      `json:"window_seconds"`
	Traced  bool     `json:"traced"`
	Env     envStamp `json:"environment"`
	// Bounds repeats BENCHMARK.json's gates so a result file is judged by
	// the rules it was measured under.
	Bounds    map[string]float64        `json:"bounds"`
	Workloads map[string]*workloadEntry `json:"workloads"`
}

// workloadEntry holds every repetition of one workload plus their medians.
type workloadEntry struct {
	Why    string         `json:"why"`
	Runs   []*workloadRun `json:"runs"`
	Median metricSet      `json:"median_end_to_end"`
}

// workloadRun is one boot-measure-verify pass over one workload.
type workloadRun struct {
	EndToEnd   metricSet `json:"end_to_end"`
	PerLayer   metricSet `json:"per_layer,omitempty"`
	Samples    int       `json:"samples"`
	Percentile float64   `json:"tail_percentile"`
	Attempted  int       `json:"attempted"`
	Failed     int       `json:"failed"`
	Failures   []string  `json:"failures,omitempty"`
	CorpusHash string    `json:"corpus_hash"`
	// Accounted is, per workload replayed by the traced pass, the share of
	// the in-process handler median that the per-layer self times plus
	// service.self_share explain.
	Accounted map[string]float64 `json:"trace_accounted_share,omitempty"`
}

func (r *workloadRun) correct() bool { return r.Failed == 0 }

func newResultDoc(seed uint64, seconds int, traced bool, stateDir string) *resultDoc {
	d := &resultDoc{
		Schema: resultSchema, Seed: seed, Seconds: seconds, Traced: traced,
		Env:       stampEnv(stateDir),
		Bounds:    make(map[string]float64),
		Workloads: make(map[string]*workloadEntry),
	}
	for _, m := range endToEnd {
		d.Bounds[m.Name] = m.Bound
	}
	return d
}

func (d *resultDoc) add(name string, r *workloadRun) {
	e := d.Workloads[name]
	if e == nil {
		e = &workloadEntry{}
		for _, w := range workloads {
			if w.Name == name {
				e.Why = w.Why
			}
		}
		d.Workloads[name] = e
	}
	e.Runs = append(e.Runs, r)
	e.Median = make(metricSet)
	for _, m := range append(append([]metricSpec(nil), endToEnd...), failedShare) {
		var xs []float64
		for _, run := range e.Runs {
			if v, ok := run.EndToEnd[m.Name]; ok {
				xs = append(xs, v)
			}
		}
		if len(xs) > 0 {
			e.Median[m.Name] = medianOf(xs)
		}
	}
}

func (d *resultDoc) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultDoc(path string) (*resultDoc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d resultDoc
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if d.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %d, this benchmark reads %d", path, d.Schema, resultSchema)
	}
	return &d, nil
}

// printTable writes every metric of one run by name with its unit.
func printTable(w io.Writer, name string, r *workloadRun) {
	fmt.Fprintf(w, "\n== %s  (samples %d, tail p%g, attempted %d, failed %d)\n",
		name, r.Samples, r.Percentile, r.Attempted, r.Failed)
	row := func(m metricSpec, v float64, gate string) {
		fmt.Fprintf(w, "  %-36s %16.6g %-6s %s\n", m.Name, v, m.Unit, gate)
	}
	for _, m := range endToEnd {
		if v, ok := r.EndToEnd[m.Name]; ok {
			row(m, v, fmt.Sprintf("%s is better, may worsen %.0f%%", m.Better, m.Bound*100))
		}
	}
	if v, ok := r.EndToEnd[mFailShare]; ok {
		row(failedShare, v, "any rise is a regression")
	}
	for _, m := range perLayer {
		if v, ok := r.PerLayer[m.Name]; ok {
			row(m, v, "-> "+m.Moves)
		}
	}
	for _, wl := range workloads {
		if share, ok := r.Accounted[wl.Name]; ok {
			fmt.Fprintf(w, "  trace: %-12s layers + service self time explain %.1f%% of the in-process handler median\n", wl.Name, share*100)
		}
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", strings.TrimSpace(f))
	}
}
