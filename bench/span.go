package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own code
// around the call (spans inside rsgend are a later change). Times are
// nanoseconds since the recorder started; Parent is 0 for a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"` // operation the span belongs to: spans of one request share it
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the pass ends. The traced pass is one
// goroutine, so the open spans form a stack.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int // indices into spans
	op    int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// nextOp starts a new operation: later spans carry its identifier.
func (r *recorder) nextOp() { r.op++ }

// begin opens a span under the innermost open one.
func (r *recorder) begin(name string) {
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: r.op, Name: name})
	r.open = append(r.open, len(r.spans)-1)
	r.spans[len(r.spans)-1].Start = time.Since(r.t0).Nanoseconds()
}

// end closes the innermost open span.
func (r *recorder) end() {
	now := time.Since(r.t0).Nanoseconds()
	i := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[i].End = now
}

// in runs fn inside a span.
func (r *recorder) in(name string, fn func()) {
	r.begin(name)
	fn()
	r.end()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children are clipped to the parent
// and overlapping children are merged, so time two children share is
// subtracted once.
func selfTimes(spans []span) map[int]int64 {
	byID := make(map[int]span, len(spans))
	children := make(map[int][]span)
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// layerStat summarises one span name over a pass.
type layerStat struct {
	Count        int     `json:"count"`
	MedianSelfUS float64 `json:"median_self_us"`
	TotalSelfUS  float64 `json:"total_self_us"`
}

// layerStats groups self times by span name, optionally for one workload's
// operations only (ops is a half-open range of operation identifiers).
func layerStats(spans []span, self map[int]int64, opLo, opHi int) map[string]layerStat {
	byName := make(map[string][]float64)
	for _, s := range spans {
		if s.Op >= opLo && s.Op < opHi {
			byName[s.Name] = append(byName[s.Name], float64(self[s.ID])/1000)
		}
	}
	out := make(map[string]layerStat, len(byName))
	for name, xs := range byName {
		total := 0.0
		for _, x := range xs {
			total += x
		}
		out[name] = layerStat{Count: len(xs), MedianSelfUS: medianOf(xs), TotalSelfUS: total}
	}
	return out
}

// traceWorkload is one workload's accounting in trace.json.
type traceWorkload struct {
	Operations      int                  `json:"operations"`
	HandlerMedianUS float64              `json:"handler_median_us"`
	LayersPerOpUS   float64              `json:"layers_self_per_op_us"`
	SelfShare       float64              `json:"service_self_share"`
	Accounted       float64              `json:"accounted_share"`
	Layers          map[string]layerStat `json:"layers"`
	FirstOp         int                  `json:"first_op"`
	EndOp           int                  `json:"end_op"`
}

// traceDoc is bench/out/trace.json.
type traceDoc struct {
	Seed      uint64                    `json:"seed"`
	Workloads map[string]*traceWorkload `json:"workloads"`
	Spans     []span                    `json:"spans"`
}

func (d *traceDoc) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(d)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
