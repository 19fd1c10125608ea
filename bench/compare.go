package main

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Verdicts of one (workload, metric) pairing.
const (
	vOK         = "ok"
	vImproved   = "improved"
	vUnresolved = "unresolved"
	vRegressed  = "REGRESSED"
)

// judgement is one row of the comparison.
type judgement struct {
	Workload string
	Metric   metricSpec
	Old, New float64 // medians
	Worse    float64 // share of the old median by which the new one is worse (negative: better)
	Spread   float64 // the wider of the two sides' run-to-run spreads
	Verdict  string
}

// runSpread is the run-to-run spread of one side as a share of its median:
// the interquartile distance with four runs or more, the full range with two
// or three, and unknown (0) with one.
func runSpread(xs []float64) float64 {
	switch {
	case len(xs) >= 4:
		return spread(xs)
	case len(xs) >= 2:
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		if m := medianOf(xs); m != 0 {
			return (hi - lo) / math.Abs(m)
		}
	}
	return 0
}

// judge applies the benchmark's rule to one metric: the new median may be
// worse than the old by at most bound. Where repeated runs spread wider than
// the bound the data cannot tell, and the row is unresolved — unless every
// new run lies on one side of every old run.
func judge(m metricSpec, bound float64, old, new []float64) judgement {
	j := judgement{Metric: m, Old: medianOf(old), New: medianOf(new)}
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	if j.Old != 0 {
		j.Worse = sign * (j.New - j.Old) / math.Abs(j.Old)
	} else if d := sign * (j.New - j.Old); d != 0 {
		j.Worse = math.Copysign(math.Inf(1), d) // from zero, any change is unbounded
	}
	j.Spread = math.Max(runSpread(old), runSpread(new))

	allWorse, allBetter := true, true
	for _, o := range old {
		for _, n := range new {
			if sign*(n-o) <= 0 {
				allWorse = false
			}
			if sign*(n-o) >= 0 {
				allBetter = false
			}
		}
	}
	noisy := j.Spread > bound
	switch {
	case bound == 0 && j.Worse > 0:
		j.Verdict = vRegressed // no tolerance: any rise counts, whatever the spread
	case bound == 0:
		j.Verdict = vOK
	case j.Worse > bound && (!noisy || allWorse):
		j.Verdict = vRegressed
	case j.Worse > bound:
		j.Verdict = vUnresolved
	case noisy && !allBetter:
		j.Verdict = vUnresolved
	case j.Worse < -bound:
		j.Verdict = vImproved
	default:
		j.Verdict = vOK
	}
	return j
}

// compareDocs judges every end-to-end metric of every workload both
// documents hold, by the bounds recorded in the old document.
func compareDocs(old, new *resultDoc) []judgement {
	var rows []judgement
	for _, w := range workloads {
		o, n := old.Workloads[w.Name], new.Workloads[w.Name]
		if o == nil || n == nil {
			continue
		}
		collect := func(e *workloadEntry, name string) []float64 {
			var xs []float64
			for _, r := range e.Runs {
				if v, ok := r.EndToEnd[name]; ok {
					xs = append(xs, v)
				}
			}
			return xs
		}
		for _, m := range append(append([]metricSpec(nil), endToEnd...), failedShare) {
			xs, ys := collect(o, m.Name), collect(n, m.Name)
			if len(xs) == 0 || len(ys) == 0 {
				continue
			}
			bound, ok := old.Bounds[m.Name]
			if !ok {
				bound = m.Bound // failed_share: 0, any rise regresses
			}
			j := judge(m, bound, xs, ys)
			j.Workload = w.Name
			rows = append(rows, j)
		}
	}
	return rows
}

// readSide reads one side of a comparison: one result document, or several
// separated by commas whose runs are pooled. Pooling is what makes
// interleaving possible — alternate single runs of the two commits
// (old1, new1, old2, new2, ...) so both sides see the same drift of the host,
// then compare old1,old2,... with new1,new2,....
func readSide(paths string) (*resultDoc, error) {
	var side *resultDoc
	for _, path := range strings.Split(paths, ",") {
		d, err := readResultDoc(path)
		if err != nil {
			return nil, err
		}
		if side == nil {
			side = d
			continue
		}
		for _, w := range workloads {
			if e := d.Workloads[w.Name]; e != nil {
				for _, r := range e.Runs {
					side.add(w.Name, r)
				}
			}
		}
	}
	return side, nil
}

// compareFiles prints one row per workload and metric and returns the
// process exit code: 1 when anything regressed.
func compareFiles(w io.Writer, oldPaths, newPaths string) int {
	old, err := readSide(oldPaths)
	if err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 2
	}
	new, err := readSide(newPaths)
	if err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 2
	}
	rows := compareDocs(old, new)
	if len(rows) == 0 {
		fmt.Fprintln(w, "bench: the two documents share no workload")
		return 2
	}
	fmt.Fprintf(w, "%-12s %-22s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "old median", "new median", "worse by", "spread", "bound", "verdict")
	regressed, unresolved := 0, 0
	for _, j := range rows {
		bound := old.Bounds[j.Metric.Name]
		fmt.Fprintf(w, "%-12s %-22s %14.6g %14.6g %+8.2f%% %7.2f%% %6.0f%%  %s\n",
			j.Workload, j.Metric.Name, j.Old, j.New, j.Worse*100, j.Spread*100, bound*100, j.Verdict)
		switch j.Verdict {
		case vRegressed:
			regressed++
		case vUnresolved:
			unresolved++
		}
	}
	fmt.Fprintf(w, "\n%d rows: %d regressed, %d unresolved (run-to-run spread wider than the bound: repeat with more -repeat, do not read as unchanged)\n",
		len(rows), regressed, unresolved)
	if regressed > 0 {
		return 1
	}
	return 0
}
