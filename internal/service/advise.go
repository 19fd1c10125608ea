// POST /v1/advise — the what-if advisor over the multi-objective backend.
//
// The endpoint answers "what could I get, and at what cost?" without taking
// a lease: it generates the specification for the posted DAG, runs the moga
// Pareto search against the registered inventory under the same exclusion
// mask a real selection would see (leased hosts plus reconciler exclusions),
// and returns the full knee-ranked front — per-solution hosts and objective
// vectors — as JSON. It mounts only when Config.Moga enables the backend.
package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"rsgen/internal/moga"
	"rsgen/internal/obs"
	"rsgen/internal/spec"
)

// AdviseRequest is the POST /v1/advise body: a /v1/spec request — "dag"
// member included, read in place by decodeRequest — plus search knobs and the
// leased-host toggle.
type AdviseRequest struct {
	// Options tune the base specification exactly as in /v1/spec.
	Options SpecOptions `json:"options"`
	// Search overrides the server's default search budget.
	Search AdviseSearchOptions `json:"search"`
	// IncludeLeased advises over the whole universe, ignoring current
	// leases and exclusions — capacity planning rather than "what could I
	// get right now".
	IncludeLeased bool `json:"include_leased,omitempty"`
}

// AdviseSearchOptions bounds one advise search; zero fields inherit the
// server's configured moga defaults.
type AdviseSearchOptions struct {
	Population     int    `json:"population,omitempty"`
	Generations    int    `json:"generations,omitempty"`
	MaxEvaluations int    `json:"max_evaluations,omitempty"`
	Seed           uint64 `json:"seed,omitempty"`
}

// Hard ceilings on client-supplied search budgets: /v1/advise runs real
// schedule evaluations, so an unbounded request would be a CPU amplifier.
const (
	maxAdvisePopulation  = 256
	maxAdviseGenerations = 256
	maxAdviseEvaluations = 1 << 17
)

// AdviseResponse is the POST /v1/advise success body.
type AdviseResponse struct {
	Backend     string `json:"backend"`
	Heuristic   string `json:"heuristic"`
	RCSize      int    `json:"rc_size"`
	MaskedHosts int    `json:"masked_hosts"`
	FrontSize   int    `json:"front_size"`
	Evaluations int    `json:"evaluations"`
	Generations int    `json:"generations"`
	// Front is the knee-ranked Pareto front: Front[0] is the knee point a
	// backend=moga select would bind right now.
	Front []moga.Solution `json:"front"`
}

// validate holds a client's search budget inside the hard ceilings.
func (sr AdviseSearchOptions) validate() error {
	switch {
	case sr.Population < 0 || sr.Population > maxAdvisePopulation:
		return fmt.Errorf("search.population %d outside [0, %d]", sr.Population, maxAdvisePopulation)
	case sr.Generations < 0 || sr.Generations > maxAdviseGenerations:
		return fmt.Errorf("search.generations %d outside [0, %d]", sr.Generations, maxAdviseGenerations)
	case sr.MaxEvaluations < 0 || sr.MaxEvaluations > maxAdviseEvaluations:
		return fmt.Errorf("search.max_evaluations %d outside [0, %d]", sr.MaxEvaluations, maxAdviseEvaluations)
	}
	return nil
}

// handleAdvise is POST /v1/advise: read-only — no lease is taken, no state
// mutated beyond metrics.
func (s *Server) handleAdvise(w http.ResponseWriter, r *http.Request) {
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-r.Context().Done():
		s.metrics.rejected.Add(1)
		writeError(w, http.StatusServiceUnavailable, "server saturated: %v", r.Context().Err())
		return
	}

	_, decSpan := obs.StartSpan(r.Context(), "decode")
	var req AdviseRequest
	d, ok := s.readRequest(w, r, decSpan, &req)
	if !ok {
		return
	}
	if err := req.Search.validate(); err != nil {
		decSpan.EndErr(err)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.validateOptions(req.Options); err != nil {
		decSpan.EndErr(err)
		writeError(w, http.StatusBadRequest, "invalid options: %v", err)
		return
	}
	decSpan.End()

	p, _ := s.brk.Inventory()
	if p == nil {
		writeError(w, http.StatusPreconditionFailed, "no inventory registered (PUT /v1/platform first)")
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	o := req.Options
	_, genSpan := obs.StartSpan(ctx, "generate")
	sp, err := s.cfg.Generator.Generate(d, spec.Options{
		Threshold:              o.Threshold,
		UtilityLambda:          o.UtilityLambda,
		ClockGHz:               o.ClockGHz,
		HeterogeneityTolerance: o.HeterogeneityTolerance,
		MinMemoryMB:            o.MinMemoryMB,
		SCRValue:               o.SCR,
		MixedParallel:          o.MixedParallel,
		Heuristic:              o.Heuristic,
	})
	genSpan.EndErr(err)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "generate: %v", err)
		return
	}

	cfg := *s.cfg.Moga
	if req.Search.Population > 0 {
		cfg.PopSize = req.Search.Population
	}
	if req.Search.Generations > 0 {
		cfg.Generations = req.Search.Generations
	}
	if req.Search.MaxEvaluations > 0 {
		cfg.MaxEvaluations = req.Search.MaxEvaluations
	}
	if req.Search.Seed != 0 {
		cfg.Seed = req.Search.Seed
	}
	excluded := s.brk.SelectionMask()
	if req.IncludeLeased {
		excluded = nil
	}

	start := time.Now()
	_, searchSpan := obs.StartSpan(ctx, "advise")
	res, err := moga.Search(ctx, moga.Problem{
		Platform: p,
		Spec:     sp,
		Dag:      d,
		Excluded: excluded,
	}, cfg)
	if err == nil {
		searchSpan.SetDetail("front=%d evals=%d", len(res.Front), res.Evaluations)
	}
	searchSpan.EndErr(err)
	s.metrics.adviseLatency.Observe(time.Since(start))
	if err != nil {
		switch {
		case errors.Is(err, moga.ErrNoEligibleHosts):
			writeError(w, http.StatusConflict, "advise: %v (every eligible host is leased or excluded)", err)
		case errors.Is(err, context.DeadlineExceeded):
			writeError(w, http.StatusGatewayTimeout, "advise: %v", err)
		case errors.Is(err, context.Canceled):
			writeError(w, http.StatusServiceUnavailable, "advise: %v", err)
		default:
			writeError(w, http.StatusInternalServerError, "advise: %v", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, AdviseResponse{
		Backend:     "moga",
		Heuristic:   sp.Heuristic,
		RCSize:      sp.RCSize,
		MaskedHosts: len(excluded),
		FrontSize:   len(res.Front),
		Evaluations: res.Evaluations,
		Generations: res.Generations,
		Front:       res.Front,
	})
}
