// Broker endpoints: the closed-loop selection lifecycle over HTTP.
//
//   - PUT  /v1/platform — generate and register a synthetic inventory
//   - GET  /v1/platform — inventory summary plus lease occupancy
//   - POST /v1/select   — run the spec ladder: select → lease → bind
//   - POST /v1/release  — free a lease's hosts
//
// Status mapping: 412 when no inventory is registered, 409 (with the full
// rung trace) when every rung of the ladder fails, 503 while draining, 504
// on deadline, 404 for unknown lease IDs.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"time"

	"rsgen/internal/bind"
	"rsgen/internal/broker"
	"rsgen/internal/obs"
	"rsgen/internal/platform"
	"rsgen/internal/spec"
	"rsgen/internal/xrand"
)

// SelectRequest is the POST /v1/select body: a /v1/spec request — "dag"
// member included, read in place by decodeRequest — plus the closed-loop
// knobs (backends, lease TTL, bind-wait bound).
type SelectRequest struct {
	// Options tune the base specification; alternative_clocks extends the
	// fallback ladder exactly as in /v1/spec.
	Options SpecOptions `json:"options"`
	// Backends names the selection backends to try per rung, in order;
	// empty defaults to ["vgdl"].
	Backends []string `json:"backends,omitempty"`
	// TTLSeconds overrides the broker's default lease lifetime.
	TTLSeconds float64 `json:"ttl_seconds,omitempty"`
	// MaxBindWaitSeconds overrides the acceptable manager delay.
	MaxBindWaitSeconds float64 `json:"max_bind_wait_seconds,omitempty"`
}

// SelectResponse is the POST /v1/select success body.
type SelectResponse struct {
	LeaseID            string            `json:"lease_id"`
	FallbackDepth      int               `json:"fallback_depth"`
	Backend            string            `json:"backend"`
	Heuristic          string            `json:"heuristic"`
	RCSize             int               `json:"rc_size"`
	MinClockGHz        float64           `json:"min_clock_ghz"`
	MaxClockGHz        float64           `json:"max_clock_ghz"`
	Hosts              []platform.HostID `json:"hosts"`
	Clusters           int               `json:"clusters"`
	AvailableAtSeconds float64           `json:"available_at_seconds"`
	ExpiresInSeconds   float64           `json:"expires_in_seconds"`
	// PredictedTurnAroundSeconds is the makespan the winning spec promises
	// on the bound collection — the prediction the flight recorder scores
	// when the lease ends. 0 when unavailable.
	PredictedTurnAroundSeconds float64              `json:"predicted_turn_around_seconds,omitempty"`
	BoundAt                    time.Time            `json:"bound_at,omitzero"`
	Trace                      []broker.RungAttempt `json:"trace"`
}

// handleSelect is POST /v1/select: the full generate→select→lease→bind
// lifecycle. Unlike /v1/spec it is never cached or deduplicated — every call
// mutates the lease table.
func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-r.Context().Done():
		s.metrics.rejected.Add(1)
		writeError(w, http.StatusServiceUnavailable, "server saturated: %v", r.Context().Err())
		return
	}

	_, decSpan := obs.StartSpan(r.Context(), "decode")
	var req SelectRequest
	d, ok := s.readRequest(w, r, decSpan, &req)
	if !ok {
		return
	}
	if err := s.validateOptions(req.Options); err != nil {
		decSpan.EndErr(err)
		writeError(w, http.StatusBadRequest, "invalid options: %v", err)
		return
	}
	registered := s.brk.Backends()
	for _, b := range req.Backends {
		if !slices.Contains(registered, b) {
			decSpan.EndErr(fmt.Errorf("unknown backend %q", b))
			writeError(w, http.StatusBadRequest, "unknown backend %q (have %v)", b, registered)
			return
		}
	}
	if req.TTLSeconds < 0 || req.MaxBindWaitSeconds < 0 {
		decSpan.EndErr(errors.New("negative ttl or bind wait"))
		writeError(w, http.StatusBadRequest, "ttl_seconds and max_bind_wait_seconds must be >= 0")
		return
	}
	decSpan.End()

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	o := req.Options
	breq := broker.Request{
		Dag: d,
		Options: spec.Options{
			Threshold:              o.Threshold,
			UtilityLambda:          o.UtilityLambda,
			ClockGHz:               o.ClockGHz,
			HeterogeneityTolerance: o.HeterogeneityTolerance,
			MinMemoryMB:            o.MinMemoryMB,
			SCRValue:               o.SCR,
			MixedParallel:          o.MixedParallel,
			Heuristic:              o.Heuristic,
		},
		AlternativeClocks:    o.AlternativeClocks,
		AlternativeTolerance: o.AlternativeTolerance,
		Backends:             req.Backends,
		TTL:                  time.Duration(req.TTLSeconds * float64(time.Second)),
		MaxBindWaitSeconds:   req.MaxBindWaitSeconds,
	}
	out, err := s.brk.Select(ctx, breq)
	if err != nil {
		var unsat *broker.UnsatisfiableError
		switch {
		case errors.Is(err, broker.ErrNoInventory):
			writeError(w, http.StatusPreconditionFailed, "%v (PUT /v1/platform first)", err)
		case errors.Is(err, broker.ErrDraining):
			writeError(w, http.StatusServiceUnavailable, "%v", err)
		case errors.As(err, &unsat):
			// trace_id lets the operator jump from the 409 body straight to
			// the span tree in /debug/traces.
			body := map[string]any{
				"error": "no rung of the specification ladder could be satisfied",
				"trace": unsat.Trace,
			}
			if tr := obs.TraceFrom(r.Context()); tr != nil {
				body["trace_id"] = tr.ID
			}
			writeJSON(w, http.StatusConflict, body)
		case errors.Is(err, context.DeadlineExceeded):
			writeError(w, http.StatusGatewayTimeout, "select: %v", err)
		case errors.Is(err, context.Canceled):
			writeError(w, http.StatusServiceUnavailable, "select: %v", err)
		default:
			writeError(w, http.StatusBadRequest, "select: %v", err)
		}
		return
	}

	// Hand the outcome (with its originating request) to the reconciler so
	// the closed loop owns this lease's lifetime from here on.
	s.rec.Track(out, breq)
	w.Header().Set("X-Fallback-Depth", fmt.Sprintf("%d", out.Rung))
	writeJSON(w, http.StatusOK, SelectResponse{
		LeaseID:                    out.Lease.ID,
		FallbackDepth:              out.Rung,
		Backend:                    out.Backend,
		Heuristic:                  out.Spec.Heuristic,
		RCSize:                     out.Spec.RCSize,
		MinClockGHz:                out.Spec.MinClockGHz,
		MaxClockGHz:                out.Spec.MaxClockGHz,
		Hosts:                      out.Lease.Hosts,
		Clusters:                   out.Clusters,
		AvailableAtSeconds:         out.AvailableAtSeconds,
		ExpiresInSeconds:           time.Until(out.Lease.Expires).Seconds(),
		PredictedTurnAroundSeconds: out.Lease.PredictedTurnAround,
		BoundAt:                    out.Lease.BoundAt,
		Trace:                      out.Trace,
	})
}

// ReleaseRequest is the POST /v1/release body.
type ReleaseRequest struct {
	LeaseID string `json:"lease_id"`
	// ObservedSeconds, when positive, is the client-reported makespan of
	// the work that ran on the lease — the flight recorder scores it
	// against the bind-time prediction. Omitted, the observation falls back
	// to the lease's wall-clock hold time.
	ObservedSeconds float64 `json:"observed_seconds,omitempty"`
}

// handleRelease is POST /v1/release: free a lease's hosts.
func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req ReleaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "malformed request JSON: %v", err)
		return
	}
	if req.LeaseID == "" {
		writeError(w, http.StatusBadRequest, "request has no lease_id")
		return
	}
	if req.ObservedSeconds < 0 {
		writeError(w, http.StatusBadRequest, "observed_seconds %v < 0", req.ObservedSeconds)
		return
	}
	// Tracked sessions release through the reconciler: the client's handle
	// may point at a lease that was transparently swapped, so the current
	// lease is the one to free, and the response says whether that happened.
	// The request context rides along so the release's trace ID lands on the
	// lease's flight-recorder observation.
	if s.rec != nil {
		if rr := s.rec.ReleaseObserved(r.Context(), req.LeaseID, req.ObservedSeconds); rr.Found {
			if !rr.Released {
				writeError(w, http.StatusNotFound, "unknown or expired lease %q", req.LeaseID)
				return
			}
			writeJSON(w, http.StatusOK, map[string]any{
				"released": true,
				"lease_id": req.LeaseID,
				"rebound":  rr.Rebound,
				"rebinds":  rr.Rebinds,
			})
			return
		}
	}
	if !s.brk.ReleaseObserved(r.Context(), req.LeaseID, req.ObservedSeconds) {
		writeError(w, http.StatusNotFound, "unknown or expired lease %q", req.LeaseID)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"released": true, "lease_id": req.LeaseID, "rebound": false})
}

// PlatformRequest is the PUT /v1/platform body: generate a synthetic
// inventory and register it with the broker (replacing any previous one and
// dropping its leases).
type PlatformRequest struct {
	// Generate parameterizes the synthetic platform (required).
	Generate *GeneratePlatform `json:"generate"`
	// MeanQueueWaitSeconds, when positive, assigns the mixed synthetic
	// manager population (⅓ dedicated, ⅓ batch-queued around this mean,
	// ⅓ reservations); 0 assigns dedicated managers everywhere.
	MeanQueueWaitSeconds float64 `json:"mean_queue_wait_seconds,omitempty"`
	// ManagerSeed seeds the synthetic manager draw; 0 defaults to 1.
	ManagerSeed uint64 `json:"manager_seed,omitempty"`
	// Managers overrides individual cluster managers after the base
	// assignment.
	Managers []ManagerOverride `json:"managers,omitempty"`
}

// GeneratePlatform mirrors platform.GenSpec plus the RNG seed.
type GeneratePlatform struct {
	Clusters        int     `json:"clusters"`
	Year            int     `json:"year,omitempty"`
	MeanClusterSize float64 `json:"mean_cluster_size,omitempty"`
	Seed            uint64  `json:"seed,omitempty"`
}

// ManagerOverride pins one cluster's manager.
type ManagerOverride struct {
	Cluster          int     `json:"cluster"`
	Discipline       string  `json:"discipline"` // dedicated | batch-queue | reservation
	QueueWaitSeconds float64 `json:"queue_wait_seconds,omitempty"`
	NextSlotSeconds  float64 `json:"next_slot_seconds,omitempty"`
	MaxHosts         int     `json:"max_hosts,omitempty"`
}

// maxPlatformClusters bounds generated inventories so one request cannot
// allocate an arbitrarily large platform in the server.
const maxPlatformClusters = 10000

func parseDiscipline(s string) (bind.Discipline, error) {
	switch s {
	case "dedicated":
		return bind.Dedicated, nil
	case "batch-queue":
		return bind.BatchQueue, nil
	case "reservation":
		return bind.Reservation, nil
	}
	return 0, fmt.Errorf("unknown discipline %q (have dedicated, batch-queue, reservation)", s)
}

// handlePlatformPut is PUT /v1/platform.
func (s *Server) handlePlatformPut(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req PlatformRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "malformed request JSON: %v", err)
		return
	}
	if req.Generate == nil {
		writeError(w, http.StatusBadRequest, "request has no generate spec")
		return
	}
	g := req.Generate
	if g.Clusters < 1 || g.Clusters > maxPlatformClusters {
		writeError(w, http.StatusBadRequest, "generate.clusters %d outside [1, %d]", g.Clusters, maxPlatformClusters)
		return
	}
	if req.MeanQueueWaitSeconds < 0 {
		writeError(w, http.StatusBadRequest, "mean_queue_wait_seconds %v < 0", req.MeanQueueWaitSeconds)
		return
	}
	seed := g.Seed
	if seed == 0 {
		seed = 1
	}
	p, err := platform.Generate(platform.GenSpec{
		Clusters:        g.Clusters,
		Year:            g.Year,
		MeanClusterSize: g.MeanClusterSize,
	}, xrand.New(seed))
	if err != nil {
		writeError(w, http.StatusBadRequest, "generate platform: %v", err)
		return
	}
	var grid *bind.Grid
	if req.MeanQueueWaitSeconds > 0 {
		mseed := req.ManagerSeed
		if mseed == 0 {
			mseed = 1
		}
		grid = bind.NewGrid(p, req.MeanQueueWaitSeconds, xrand.New(mseed))
	} else {
		grid = bind.DedicatedGrid(p)
	}
	for _, m := range req.Managers {
		if m.Cluster < 0 || m.Cluster >= len(p.Clusters) {
			writeError(w, http.StatusBadRequest, "manager override cluster %d outside [0, %d)", m.Cluster, len(p.Clusters))
			return
		}
		disc, err := parseDiscipline(m.Discipline)
		if err != nil {
			writeError(w, http.StatusBadRequest, "manager override for cluster %d: %v", m.Cluster, err)
			return
		}
		grid.SetManager(bind.Manager{
			Cluster:    m.Cluster,
			Discipline: disc,
			QueueWait:  m.QueueWaitSeconds,
			NextSlot:   m.NextSlotSeconds,
			MaxHosts:   m.MaxHosts,
		})
	}
	if err := s.brk.RegisterInventory(p, grid); err != nil {
		writeError(w, http.StatusInternalServerError, "register inventory: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"clusters": len(p.Clusters),
		"hosts":    p.NumHosts(),
	})
}

// handlePlatformGet is GET /v1/platform: inventory summary plus lease
// occupancy.
func (s *Server) handlePlatformGet(w http.ResponseWriter, r *http.Request) {
	p, grid := s.brk.Inventory()
	if p == nil {
		writeError(w, http.StatusNotFound, "no inventory registered (PUT /v1/platform first)")
		return
	}
	disciplines := map[string]int{}
	for i := 0; i < grid.NumClusters(); i++ {
		disciplines[grid.Manager(i).Discipline.String()]++
	}
	stats := s.brk.LeaseStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"clusters":    len(p.Clusters),
		"hosts":       p.NumHosts(),
		"generation":  s.brk.Generation(),
		"disciplines": disciplines,
		"leases": map[string]any{
			"active_leases":  stats.ActiveLeases,
			"leased_hosts":   stats.LeasedHosts,
			"expired_total":  stats.ExpiredTotal,
			"free_hosts":     p.NumHosts() - stats.LeasedHosts,
			"occupancy_frac": float64(stats.LeasedHosts) / float64(p.NumHosts()),
		},
	})
}
