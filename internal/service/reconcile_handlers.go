// Reconciler endpoints: the event stream feeding the closed loop and the
// session-status view over it.
//
//   - POST /v1/platform/events — ingest host churn / load / clock events
//   - GET  /v1/select/{id}     — session status by origin or current lease
//
// Both answer 412 when the server runs without a reconciler.
package service

import (
	"encoding/json"
	"net/http"
	"time"

	"rsgen/internal/reconcile"
)

// EventsRequest is the POST /v1/platform/events body.
type EventsRequest struct {
	Events []reconcile.Event `json:"events"`
}

// maxEventsPerBody caps the events one POST /v1/platform/events body may
// carry. MaxBodyBytes alone admits ≈ 20k events per body; the cap keeps one
// client body to a sixteenth of the reconciler's default 65 536-event
// pending queue, so a single request cannot crowd out everyone's churn.
const maxEventsPerBody = 4096

// handlePlatformEvents is POST /v1/platform/events: validate the batch
// against the registered platform and queue it for the next cycle.
func (s *Server) handlePlatformEvents(w http.ResponseWriter, r *http.Request) {
	if s.rec == nil {
		writeError(w, http.StatusPreconditionFailed, "reconciler disabled (start rsgend with -reconcile-interval > 0)")
		return
	}
	p, _ := s.brk.Inventory()
	if p == nil {
		writeError(w, http.StatusPreconditionFailed, "no inventory registered (PUT /v1/platform first)")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req EventsRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "malformed request JSON: %v", err)
		return
	}
	if len(req.Events) == 0 {
		writeError(w, http.StatusBadRequest, "request has no events")
		return
	}
	if len(req.Events) > maxEventsPerBody {
		writeError(w, http.StatusBadRequest, "request has %d events, over the cap of %d per body", len(req.Events), maxEventsPerBody)
		return
	}
	for i, e := range req.Events {
		if err := e.Validate(p); err != nil {
			writeError(w, http.StatusBadRequest, "event %d: %v", i, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"ingested": s.rec.Ingest(req.Events)})
}

// handleSelectStatus is GET /v1/select/{id}: the reconciler's view of a
// session. IDs the reconciler never tracked (e.g. leases recovered from the
// durable store after a restart — the ladder needed to rebind them was not
// persisted) fall back to a minimal broker-only view.
func (s *Server) handleSelectStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.rec != nil {
		if st, ok := s.rec.Status(id); ok {
			writeJSON(w, http.StatusOK, st)
			return
		}
	}
	if l, ok := s.brk.Lease(id); ok {
		st := reconcile.SessionStatus{
			LeaseID:          l.ID,
			CurrentLeaseID:   l.ID,
			Status:           reconcile.StatusBound,
			Rung:             l.Rung,
			Backend:          l.Backend,
			Hosts:            l.Hosts,
			ExpiresInSeconds: time.Until(l.Expires).Seconds(),
			BoundAt:          l.BoundAt,
		}
		if !l.BoundAt.IsZero() {
			st.AgeSeconds = time.Since(l.BoundAt).Seconds()
		}
		writeJSON(w, http.StatusOK, st)
		return
	}
	writeError(w, http.StatusNotFound, "unknown or expired lease %q", id)
}
