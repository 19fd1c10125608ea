package knee

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"rsgen/internal/dag"
	"rsgen/internal/stats"
	"rsgen/internal/xrand"
)

// Observation is one measured knee: the DAG configuration and the detected
// best RC size under one threshold.
type Observation struct {
	Size        int     `json:"size"`
	CCR         float64 `json:"ccr"`
	Parallelism float64 `json:"alpha"`
	Regularity  float64 `json:"beta"`
	Knee        int     `json:"knee"`
	TurnAround  float64 `json:"turn_around"`
}

// Model predicts the best RC size for one knee threshold: a grid of planes
// log2(knee) = a·α + b·β + c, one per (DAG size, CCR) observation-set cell,
// bilinearly interpolated in the (size, CCR) plane (§V.2.4).
type Model struct {
	Threshold float64   `json:"threshold"`
	Sizes     []float64 `json:"sizes"` // ascending DAG-size grid
	CCRs      []float64 `json:"ccrs"`  // ascending CCR grid
	// Planes[i][j] is the fitted plane at Sizes[i] × CCRs[j].
	Planes [][]stats.Plane `json:"planes"`
	// FitError is the mean relative error of the planar fits over the
	// observation set (the dissertation reports ≤16% at size 5000).
	FitError float64 `json:"fit_error"`
	// MeanDegradation and MeanRelCost are training-time estimates of the
	// model's performance degradation and relative cost versus the
	// searched optimum, used by the utility chooser (§V.3.2.3).
	MeanDegradation float64 `json:"mean_degradation"`
	MeanRelCost     float64 `json:"mean_rel_cost"`
}

// kneeAt evaluates the model at one grid cell for the query's α and β.
func (m *Model) kneeAt(i, j int, alpha, beta float64) float64 {
	return math.Exp2(m.Planes[i][j].Eval(alpha, beta))
}

// PredictSize returns the predicted best RC size for a DAG with the given
// characteristics: planar evaluation at the four surrounding grid corners
// followed by bilinear interpolation of the knee values in (size, CCR), per
// §V.2.4's "interpolate in both axes". Queries outside the grid clamp to the
// boundary. The result is at least 1.
func (m *Model) PredictSize(c dag.Characteristics) int {
	size := float64(c.Size)
	ccr := c.CCR
	si, sj := stats.Bracket(m.Sizes, size)
	ci, cj := stats.Bracket(m.CCRs, ccr)
	k00 := m.kneeAt(si, ci, c.Parallelism, c.Regularity)
	k01 := m.kneeAt(si, cj, c.Parallelism, c.Regularity)
	k10 := m.kneeAt(sj, ci, c.Parallelism, c.Regularity)
	k11 := m.kneeAt(sj, cj, c.Parallelism, c.Regularity)
	// Interpolate along CCR at both size rows, then along size.
	kLo := stats.Lerp(m.CCRs[ci], k00, m.CCRs[cj], k01, ccr)
	kHi := stats.Lerp(m.CCRs[ci], k10, m.CCRs[cj], k11, ccr)
	k := stats.Lerp(m.Sizes[si], kLo, m.Sizes[sj], kHi, size)
	pred := int(math.Round(k))
	if pred < 1 {
		pred = 1
	}
	// Never predict beyond the DAG's own width: no schedule can use more
	// hosts concurrently (§V.3.3's upper-bound argument).
	if c.Size > 0 {
		// Width is not part of Characteristics; bound by size instead.
		if pred > c.Size {
			pred = c.Size
		}
	}
	return pred
}

// ModelSet is the trained model family over all thresholds plus the shared
// observation data.
type ModelSet struct {
	Models []*Model `json:"models"` // ascending threshold
	// Observations are the raw (config, knee) pairs at the tightest
	// threshold, for table output (Table V-2).
	Observations []Observation `json:"observations"`
}

// ByThreshold returns the model trained at the given threshold, or an error
// listing the available thresholds.
func (ms *ModelSet) ByThreshold(threshold float64) (*Model, error) {
	for _, m := range ms.Models {
		if math.Abs(m.Threshold-threshold) < 1e-12 {
			return m, nil
		}
	}
	avail := make([]float64, len(ms.Models))
	for i, m := range ms.Models {
		avail[i] = m.Threshold
	}
	return nil, fmt.Errorf("knee: no model at threshold %v (have %v)", threshold, avail)
}

// Default returns the 0.1%-threshold model.
func (ms *ModelSet) Default() *Model {
	m, err := ms.ByThreshold(DefaultThreshold)
	if err != nil {
		// A ModelSet is always trained with the default threshold first;
		// fall back to the tightest model rather than failing.
		return ms.Models[0]
	}
	return m
}

// ChooseThreshold implements the §V.3.2.3 utility trade-off: the user
// accepts lambda units of relative cost per unit of performance degradation
// (e.g. trading 1% performance for 10% cost is lambda = 0.1); the chooser
// returns the model minimizing degradation + lambda·relativeCost using the
// training-time estimates.
func (ms *ModelSet) ChooseThreshold(lambda float64) *Model {
	best := ms.Models[0]
	bestU := math.Inf(1)
	for _, m := range ms.Models {
		u := m.MeanDegradation + lambda*m.MeanRelCost
		if u < bestU {
			best, bestU = m, u
		}
	}
	return best
}

// TrainConfig is the observation-set specification (Table V-1 by default).
type TrainConfig struct {
	Sizes  []int
	CCRs   []float64
	Alphas []float64
	Betas  []float64
	// Reps is the number of distinct DAG instances per configuration
	// (the dissertation uses 10).
	Reps int
	// Density and MeanCost are held at the Table IV-3 defaults.
	Density  float64
	MeanCost float64
	// Thresholds to train; nil defaults to the full family.
	Thresholds []float64
	// Sweep fixes the resource condition and scheduler.
	Sweep SweepConfig
	// Seed makes training deterministic.
	Seed uint64
}

// DefaultTrainConfig returns the full Table V-1 observation grid. Training
// it end-to-end is expensive (the dissertation burned CPU-months); tests and
// the quick experiment mode shrink the grid.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Sizes:      []int{100, 500, 1000, 5000, 10000},
		CCRs:       []float64{0.01, 0.1, 0.3, 0.5, 0.8, 1.0},
		Alphas:     []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
		Betas:      []float64{0.01, 0.1, 0.3, 0.5, 0.8, 1.0},
		Reps:       10,
		Density:    0.5,
		MeanCost:   40,
		Thresholds: Thresholds,
		Seed:       1,
	}
}

func (cfg TrainConfig) validate() error {
	switch {
	case len(cfg.Sizes) == 0 || len(cfg.CCRs) == 0:
		return errors.New("knee: training grid needs ≥1 size and CCR")
	case len(cfg.Alphas) < 2 || len(cfg.Betas) < 2:
		return errors.New("knee: planar fit needs ≥2 parallelism and regularity values")
	case cfg.Reps < 1:
		return errors.New("knee: Reps < 1")
	}
	return nil
}

// genDAGs instantiates the repetition set for one configuration,
// deterministically per (seed, config).
func (cfg TrainConfig) genDAGs(size int, ccr, alpha, beta float64) ([]*dag.DAG, error) {
	spec := dag.GenSpec{
		Size:        size,
		CCR:         ccr,
		Parallelism: alpha,
		Density:     cfg.Density,
		Regularity:  beta,
		MeanCost:    cfg.MeanCost,
	}
	dags := make([]*dag.DAG, cfg.Reps)
	for r := 0; r < cfg.Reps; r++ {
		rng := xrand.NewFrom(cfg.Seed,
			uint64(size), math.Float64bits(ccr), math.Float64bits(alpha),
			math.Float64bits(beta), uint64(r))
		d, err := dag.Generate(spec, rng)
		if err != nil {
			return nil, err
		}
		dags[r] = d
	}
	return dags, nil
}

// Train runs the full observation-set procedure of §V.2.3–V.2.4: sweep each
// configuration's turn-around curve, detect knees at every threshold, fit
// one plane per (size, CCR) cell and threshold, and estimate each
// threshold's degradation/cost trade-off.
func Train(cfg TrainConfig) (*ModelSet, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	thresholds := cfg.Thresholds
	if len(thresholds) == 0 {
		thresholds = Thresholds
	}

	type cell struct {
		alphas, betas []float64
		logKnees      [][]float64 // per threshold
		// For utility estimation.
		turnAtKnee [][]float64 // per threshold
		bestTurn   []float64
		costAtKnee [][]float64
		bestCost   []float64
	}
	nT := len(thresholds)
	cells := make([][]cell, len(cfg.Sizes))
	var observations []Observation

	for i, size := range cfg.Sizes {
		cells[i] = make([]cell, len(cfg.CCRs))
		for j, ccr := range cfg.CCRs {
			c := &cells[i][j]
			c.logKnees = make([][]float64, nT)
			c.turnAtKnee = make([][]float64, nT)
			c.costAtKnee = make([][]float64, nT)
			for _, alpha := range cfg.Alphas {
				for _, beta := range cfg.Betas {
					dags, err := cfg.genDAGs(size, ccr, alpha, beta)
					if err != nil {
						return nil, err
					}
					curve, err := Sweep(dags, cfg.Sweep)
					if err != nil {
						return nil, err
					}
					_, bestT := curve.Best()
					bestSize, _ := curve.Best()
					c.alphas = append(c.alphas, alpha)
					c.betas = append(c.betas, beta)
					c.bestTurn = append(c.bestTurn, bestT)
					c.bestCost = append(c.bestCost, curve.At(bestSize).CostUSD)
					for ti, thr := range thresholds {
						ks, kt := curve.Knee(thr)
						c.logKnees[ti] = append(c.logKnees[ti], math.Log2(float64(ks)))
						c.turnAtKnee[ti] = append(c.turnAtKnee[ti], kt)
						c.costAtKnee[ti] = append(c.costAtKnee[ti], curve.At(ks).CostUSD)
						if ti == 0 {
							observations = append(observations, Observation{
								Size: size, CCR: ccr, Parallelism: alpha,
								Regularity: beta, Knee: ks, TurnAround: kt,
							})
						}
					}
				}
			}
		}
	}

	ms := &ModelSet{Observations: observations}
	sizesF := make([]float64, len(cfg.Sizes))
	for i, s := range cfg.Sizes {
		sizesF[i] = float64(s)
	}
	for ti, thr := range thresholds {
		m := &Model{
			Threshold: thr,
			Sizes:     sizesF,
			CCRs:      append([]float64(nil), cfg.CCRs...),
			Planes:    make([][]stats.Plane, len(cfg.Sizes)),
		}
		var fitErrs, degs, relCosts []float64
		for i := range cfg.Sizes {
			m.Planes[i] = make([]stats.Plane, len(cfg.CCRs))
			for j := range cfg.CCRs {
				c := &cells[i][j]
				p, err := stats.FitPlane(c.alphas, c.betas, c.logKnees[ti])
				if err != nil {
					return nil, fmt.Errorf("knee: fit at size %d CCR %v: %w", cfg.Sizes[i], cfg.CCRs[j], err)
				}
				m.Planes[i][j] = p
				pred := make([]float64, len(c.alphas))
				actual := make([]float64, len(c.alphas))
				for k := range c.alphas {
					pred[k] = math.Exp2(p.Eval(c.alphas[k], c.betas[k]))
					actual[k] = math.Exp2(c.logKnees[ti][k])
				}
				fitErrs = append(fitErrs, stats.MeanRelativeError(pred, actual))
				for k := range c.alphas {
					if c.bestTurn[k] > 0 {
						degs = append(degs, c.turnAtKnee[ti][k]/c.bestTurn[k]-1)
					}
					if c.bestCost[k] > 0 {
						relCosts = append(relCosts, c.costAtKnee[ti][k]/c.bestCost[k]-1)
					}
				}
			}
		}
		m.FitError = stats.Mean(fitErrs)
		m.MeanDegradation = stats.Mean(degs)
		m.MeanRelCost = stats.Mean(relCosts)
		ms.Models = append(ms.Models, m)
	}
	return ms, nil
}

// Save writes the model set as JSON.
func (ms *ModelSet) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ms)
}

// Load reads a model set saved with Save.
func Load(r io.Reader) (*ModelSet, error) {
	var ms ModelSet
	if err := json.NewDecoder(r).Decode(&ms); err != nil {
		return nil, fmt.Errorf("knee: load model: %w", err)
	}
	if err := ms.validateLoaded(); err != nil {
		return nil, err
	}
	return &ms, nil
}
