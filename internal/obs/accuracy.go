// Streaming prediction-accuracy primitives: a windowed EWMA of the
// log-error ratio, a small bounded quantile sketch over its magnitude, and
// a Page-Hinkley drift detector — the pieces the flight recorder folds
// every scored observation into, exposed as the rsgend_accuracy_* and
// rsgend_model_drift metric families and the /healthz accuracy block.
package obs

import (
	"math"
	"sort"
	"strconv"
	"sync"
)

// EWMA is an exponentially weighted moving average: a fixed-gain streaming
// mean whose effective window is ~2/alpha-1 samples. The zero value is not
// usable; construct with NewEWMA.
type EWMA struct {
	alpha float64
	n     uint64
	v     float64
}

// NewEWMA builds an EWMA with the given gain; alpha <= 0 or > 1 defaults
// to 0.125 (a ~15-sample window).
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.125
	}
	return &EWMA{alpha: alpha}
}

// Add folds one sample in; the first sample seeds the average.
func (e *EWMA) Add(x float64) {
	e.n++
	if e.n == 1 {
		e.v = x
		return
	}
	e.v += e.alpha * (x - e.v)
}

// Value returns the current average (0 before any sample).
func (e *EWMA) Value() float64 { return e.v }

// Count returns how many samples were folded in.
func (e *EWMA) Count() uint64 { return e.n }

// Quantiles is a small bounded sketch: a ring of the last cap samples,
// sorted on query. For the flight recorder's sample rates (one per lease
// end) the exactness of a windowed reservoir beats the space savings of a
// streaming summary. The zero value is not usable; construct with
// NewQuantiles.
type Quantiles struct {
	buf  []float64
	next int
}

// NewQuantiles bounds the window; size <= 0 defaults to 512.
func NewQuantiles(size int) *Quantiles {
	if size <= 0 {
		size = 512
	}
	return &Quantiles{buf: make([]float64, 0, size)}
}

// Add folds one sample into the window, evicting the oldest when full.
func (q *Quantiles) Add(x float64) {
	if len(q.buf) < cap(q.buf) {
		q.buf = append(q.buf, x)
	} else {
		q.buf[q.next] = x
	}
	q.next = (q.next + 1) % cap(q.buf)
}

// Query returns the p-quantile (p in [0,1]) of the window, 0 when empty.
func (q *Quantiles) Query(p float64) float64 {
	if len(q.buf) == 0 {
		return 0
	}
	s := append([]float64(nil), q.buf...)
	sort.Float64s(s)
	i := int(p * float64(len(s)-1))
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// PageHinkley is a one-sided Page-Hinkley change detector over a sample
// stream: it flags a sustained increase of the stream's mean (here: the
// log-error ratio, i.e. the fleet running slower than the model predicts).
// Detection latches until Reset. The zero value is not usable; construct
// with NewPageHinkley.
type PageHinkley struct {
	delta      float64 // per-sample tolerance subtracted from deviations
	lambda     float64 // detection threshold on the cumulative deviation
	minSamples int     // samples before detection may fire

	n       int
	mean    float64
	cum     float64
	cumMin  float64
	drifted bool
}

// NewPageHinkley builds a detector; non-positive parameters default to
// delta=0.05, lambda=2, minSamples=8.
func NewPageHinkley(delta, lambda float64, minSamples int) *PageHinkley {
	if delta <= 0 {
		delta = 0.05
	}
	if lambda <= 0 {
		lambda = 2
	}
	if minSamples <= 0 {
		minSamples = 8
	}
	return &PageHinkley{delta: delta, lambda: lambda, minSamples: minSamples}
}

// Add folds one sample in and reports whether this sample crossed the
// detection threshold (true exactly once; Drifted stays true afterwards).
func (d *PageHinkley) Add(x float64) (detected bool) {
	d.n++
	d.mean += (x - d.mean) / float64(d.n)
	d.cum += x - d.mean - d.delta
	if d.cum < d.cumMin {
		d.cumMin = d.cum
	}
	if !d.drifted && d.n >= d.minSamples && d.Score() > d.lambda {
		d.drifted = true
		return true
	}
	return false
}

// Score is the current cumulative deviation above its running minimum; it
// crosses lambda at detection.
func (d *PageHinkley) Score() float64 { return d.cum - d.cumMin }

// Drifted reports whether drift was ever detected (latched).
func (d *PageHinkley) Drifted() bool { return d.drifted }

// Reset clears the detector (e.g. after a model refresh).
func (d *PageHinkley) Reset() {
	*d = PageHinkley{delta: d.delta, lambda: d.lambda, minSamples: d.minSamples}
}

// AccuracySnapshot is the /healthz accuracy block.
type AccuracySnapshot struct {
	// Observations counts every terminal lease event recorded; Scored
	// counts the subset carrying both a prediction and an observation.
	Observations uint64 `json:"observations"`
	Scored       uint64 `json:"scored"`
	// LogErrorEWMA is the windowed mean of ln(observed/predicted): 0 is
	// perfect, positive means slower than promised.
	LogErrorEWMA float64 `json:"log_error_ewma"`
	// AbsLogErrorP50/P90/P99 are windowed quantiles of |ln ratio|.
	AbsLogErrorP50 float64 `json:"abs_log_error_p50"`
	AbsLogErrorP90 float64 `json:"abs_log_error_p90"`
	AbsLogErrorP99 float64 `json:"abs_log_error_p99"`
	// Drift reports the Page-Hinkley detector (latched) and its score.
	Drift      bool    `json:"drift"`
	DriftScore float64 `json:"drift_score"`
}

// accuracyKey slices the per-stream series.
type accuracyKey struct{ backend, heuristic string }

// Accuracy aggregates scored observations into streaming series: per
// (backend, heuristic) EWMAs, a global EWMA + quantile sketch over the
// log-error ratio, and a Page-Hinkley drift detector. Safe for concurrent
// use.
type Accuracy struct {
	mu       sync.Mutex
	total    uint64
	scored   uint64
	counts   map[[3]string]uint64 // backend, heuristic, end_reason
	byStream map[accuracyKey]*EWMA
	overall  *EWMA
	quant    *Quantiles
	drift    *PageHinkley
}

// NewAccuracy builds an empty aggregator with default windows.
func NewAccuracy() *Accuracy {
	return &Accuracy{
		counts:   make(map[[3]string]uint64),
		byStream: make(map[accuracyKey]*EWMA),
		overall:  NewEWMA(0),
		quant:    NewQuantiles(0),
		drift:    NewPageHinkley(0, 0, 0),
	}
}

// maxAbsLogError winsorises the log-error before it enters any series.
// observed_seconds is client-reported and otherwise unbounded, and one sample
// adds up to its value minus the detector's delta to the Page-Hinkley score:
// the bound sits below lambda + delta = 2.05 with room for the residual an
// honest stream carries, so no single report — however absurd, at any stream
// length — latches the drift gauge for every tenant, while a sustained
// slowdown (ln 4 per sample for a 4x-slow fleet, under the bound) still does.
const maxAbsLogError = 1.791759469228055 // ln 6

// Record folds one observation in; the bool reports whether this
// observation tripped the drift detector (callers warn exactly once). The
// series see the log-error clamped to ±maxAbsLogError; the observation log
// and ring keep the raw report.
func (a *Accuracy) Record(o Observation) (drifted bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.total++
	a.counts[[3]string{o.Backend, o.Heuristic, o.EndReason}]++
	le, ok := o.LogError()
	if !ok {
		return false
	}
	le = max(-maxAbsLogError, min(maxAbsLogError, le))
	a.scored++
	k := accuracyKey{o.Backend, o.Heuristic}
	e := a.byStream[k]
	if e == nil {
		e = NewEWMA(0)
		a.byStream[k] = e
	}
	e.Add(le)
	a.overall.Add(le)
	a.quant.Add(math.Abs(le))
	return a.drift.Add(le)
}

// Snapshot reports the current series for /healthz.
func (a *Accuracy) Snapshot() AccuracySnapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AccuracySnapshot{
		Observations:   a.total,
		Scored:         a.scored,
		LogErrorEWMA:   a.overall.Value(),
		AbsLogErrorP50: a.quant.Query(0.50),
		AbsLogErrorP90: a.quant.Query(0.90),
		AbsLogErrorP99: a.quant.Query(0.99),
		Drift:          a.drift.Drifted(),
		DriftScore:     a.drift.Score(),
	}
}

// DriftScore reads the detector's current score.
func (a *Accuracy) DriftScore() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.drift.Score()
}

// ResetDrift clears the drift detector (model refresh).
func (a *Accuracy) ResetDrift() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.drift.Reset()
}

// register mounts the accuracy families onto a registry:
//
//	rsgend_accuracy_observations_total{backend,heuristic,end_reason}
//	rsgend_accuracy_scored_total
//	rsgend_accuracy_log_error_ewma{backend,heuristic}
//	rsgend_accuracy_abs_log_error{quantile}
//	rsgend_model_drift / rsgend_model_drift_score
func (a *Accuracy) register(reg *Registry) {
	reg.Func("rsgend_accuracy_observations_total", "counter", func() []Sample {
		a.mu.Lock()
		defer a.mu.Unlock()
		out := make([]Sample, 0, len(a.counts))
		for k, n := range a.counts {
			out = append(out, Sample{
				Labels: renderLabels([]string{"backend", "heuristic", "end_reason"}, k[:]),
				Value:  strconv.FormatUint(n, 10),
			})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Labels < out[j].Labels })
		return out
	})
	reg.CounterFunc("rsgend_accuracy_scored_total", func() uint64 {
		a.mu.Lock()
		defer a.mu.Unlock()
		return a.scored
	})
	reg.Func("rsgend_accuracy_log_error_ewma", "gauge", func() []Sample {
		a.mu.Lock()
		defer a.mu.Unlock()
		out := make([]Sample, 0, len(a.byStream))
		for k, e := range a.byStream {
			out = append(out, Sample{
				Labels: renderLabels([]string{"backend", "heuristic"}, []string{k.backend, k.heuristic}),
				Value:  FormatFloat(e.Value()),
			})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Labels < out[j].Labels })
		return out
	})
	reg.Func("rsgend_accuracy_abs_log_error", "gauge", func() []Sample {
		a.mu.Lock()
		defer a.mu.Unlock()
		out := make([]Sample, 0, 3)
		for _, p := range []float64{0.5, 0.9, 0.99} {
			out = append(out, Sample{
				Labels: renderLabels([]string{"quantile"}, []string{FormatFloat(p)}),
				Value:  FormatFloat(a.quant.Query(p)),
			})
		}
		return out
	})
	reg.IntGaugeFunc("rsgend_model_drift", func() int64 {
		a.mu.Lock()
		defer a.mu.Unlock()
		if a.drift.Drifted() {
			return 1
		}
		return 0
	})
	reg.Func("rsgend_model_drift_score", "gauge", func() []Sample {
		a.mu.Lock()
		defer a.mu.Unlock()
		return []Sample{{Value: FormatFloat(a.drift.Score())}}
	})
}
