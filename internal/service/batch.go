package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"net/http"

	"rsgen/internal/dag"
	"rsgen/internal/eval"
	"rsgen/internal/obs"
	"rsgen/internal/spec"
)

// BatchRequest is the POST /v1/spec/batch body: many specification requests
// answered in one round trip under a single pinned snapshot of the model
// registry and platform inventory. Members that decode and validate are
// always answered; a bad member yields a per-member 400 result, not a batch
// failure.
type BatchRequest struct {
	// Requests are the members, answered positionally in Results.
	Requests []BatchMember `json:"requests"`
	// Options, when set, is the default option block for members that do
	// not carry their own.
	Options *SpecOptions `json:"options,omitempty"`
}

// BatchMember is one DAG — its "dag" member, which decodeBatch locates in the
// body rather than copying through this struct — plus (optionally) its own
// option overrides.
type BatchMember struct {
	// Options replaces (not merges with) the batch default when set.
	Options *SpecOptions `json:"options,omitempty"`
}

// memberDag is what the envelope walk found of one batch member's DAG.
type memberDag struct {
	// raw is the member's "dag" value, a view into the request body whose
	// syntax has been checked; nil when the member has none.
	raw []byte
	// repeated marks a member that gives "dag" more than once.
	repeated bool
}

// decodeBatch reads a /v1/spec/batch body: the typed request and, member by
// member, where each DAG lies in body. No DAG is decoded here — the handler
// groups byte-identical members on the raw values first and decodes one per
// group. It is a pure []byte → value function for the fuzz target.
func decodeBatch(body []byte) (*BatchRequest, []memberDag, error) {
	var req BatchRequest
	var dags []memberDag
	err := decodeEnvelope(body, &req, "requests", func(i int, sc *dag.Scanner) error {
		for len(dags) <= i {
			dags = append(dags, memberDag{})
		}
		sc.Peek() // past the whitespace before the value
		start := sc.Offset()
		if err := sc.Skip(); err != nil {
			return err
		}
		dags[i].repeated = dags[i].raw != nil
		dags[i].raw = body[start:sc.Offset()]
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	// Members after the last one that carries a dag.
	for len(dags) < len(req.Requests) {
		dags = append(dags, memberDag{})
	}
	return &req, dags, nil
}

// BatchSnapshot records what every member of the batch was evaluated
// against. It is captured once, before any member runs: a concurrent model
// reload or platform event lands entirely before or entirely after this
// batch's snapshot, never between two members.
type BatchSnapshot struct {
	// ArtifactVersion is the trained-model artifact format version.
	ArtifactVersion int `json:"artifact_version"`
	// SizeThresholds is the number of trained size-model thresholds.
	SizeThresholds int `json:"size_thresholds"`
	// HeuristicModel reports whether the heuristic predictor is loaded.
	HeuristicModel bool `json:"heuristic_model"`
	// InventoryGeneration is the broker's platform-inventory epoch at batch
	// start (0 before any inventory is registered).
	InventoryGeneration uint64 `json:"inventory_generation"`
	// EvalWorkers is the worker count the members fanned out over.
	EvalWorkers int `json:"eval_workers"`
}

// BatchResult is one member's outcome. Status is the HTTP status the same
// request would have received on POST /v1/spec; Spec is present exactly when
// Status is 200 and holds the same JSON object (batch framing aside).
type BatchResult struct {
	Index  int             `json:"index"`
	Status int             `json:"status"`
	Source string          `json:"source,omitempty"`
	Spec   json.RawMessage `json:"spec,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// BatchResponse is the POST /v1/spec/batch response body. The counters
// partition Members: Computed (led or independently recomputed an
// evaluation) + CacheHits (byte-exact or shape cache) + Coalesced (waited on
// an in-flight computation, byte-exact or shape) + Errors.
type BatchResponse struct {
	Snapshot  BatchSnapshot `json:"snapshot"`
	Members   int           `json:"members"`
	Computed  int           `json:"computed"`
	CacheHits int           `json:"cache_hits"`
	Coalesced int           `json:"coalesced"`
	Errors    int           `json:"errors"`
	Results   []BatchResult `json:"results"`
}

// handleSpecBatch is POST /v1/spec/batch: decode and validate every member
// up front, pin the snapshot, then fan the members over the evaluation
// worker budget through the same resolveSpec path as single requests — so a
// batch gets the full benefit of the response cache, shape coalescing, and
// in-flight dedup, within itself and against concurrent traffic.
func (s *Server) handleSpecBatch(w http.ResponseWriter, r *http.Request) {
	// One concurrency slot covers the whole batch: the batch is the unit of
	// admission, and its members are bounded by the eval worker budget
	// below, not by the handler semaphore.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-r.Context().Done():
		s.metrics.rejected.Add(1)
		writeError(w, http.StatusServiceUnavailable, "server saturated: %v", r.Context().Err())
		return
	}

	_, decSpan := obs.StartSpan(r.Context(), "decode")
	body := s.readBody(w, r, s.cfg.MaxBatchBytes)
	if body == nil {
		decSpan.EndErr(errUnreadableBody)
		return
	}
	// The members' raw DAGs are views into the body: it goes back to the pool
	// only once the last leader has been decoded.
	defer s.releaseBody(body)
	req, dags, err := decodeBatch(body.Bytes())
	if err != nil {
		decSpan.EndErr(err)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.Requests) == 0 {
		decSpan.EndErr(errors.New("batch has no requests"))
		writeError(w, http.StatusBadRequest, "batch has no requests")
		return
	}
	if n := len(req.Requests); n > s.cfg.MaxBatchMembers {
		decSpan.EndErr(fmt.Errorf("batch too large: %d members", n))
		writeError(w, http.StatusRequestEntityTooLarge, "batch has %d members, limit is %d", n, s.cfg.MaxBatchMembers)
		return
	}

	// Decode and validate every member before any evaluation starts, so
	// malformed members surface as per-member 400s regardless of worker
	// scheduling order. Byte-identical members (same raw dag bytes, same
	// effective options) are grouped before the dag is even decoded — on a
	// hash of the options key and the raw bytes, confirmed by comparing both:
	// one leader per group decodes and resolves, and its followers copy the
	// leader's result afterwards. Decoding dominates the per-member cost of
	// a cache-friendly batch, so duplicate-heavy workloads skip it entirely.
	// (Two different members colliding on the 64-bit hash would merely go
	// unmerged: the second stays its own, unregistered leader.)
	type member struct {
		d    *dag.DAG
		opts SpecOptions
		okey string // optsKey(opts), rendered once per distinct option block
	}
	results := make([]BatchResult, len(req.Requests))
	members := make([]member, len(req.Requests))
	todo := make([]int, 0, len(req.Requests))
	groups := make(map[uint64]int, len(req.Requests))
	followers := make(map[int][]int)
	var shared member // the batch-level option block, or the zero one
	if req.Options != nil {
		shared.opts = *req.Options
	}
	shared.okey = optsKey(shared.opts)
	sharedErr := s.validateOptions(shared.opts)
	seed := maphash.MakeSeed()
	for i, m := range req.Requests {
		results[i].Index = i
		fail := func(format string, args ...any) {
			results[i].Status = http.StatusBadRequest
			results[i].Error = fmt.Sprintf(format, args...)
		}
		raw := dags[i].raw
		if raw == nil {
			fail("member has no dag")
			continue
		}
		if dags[i].repeated {
			fail(`malformed request JSON: duplicate member "dag"`)
			continue
		}
		mem, optsErr := shared, sharedErr
		if m.Options != nil {
			mem.opts = *m.Options
			mem.okey, optsErr = optsKey(mem.opts), s.validateOptions(mem.opts)
		}
		if optsErr != nil {
			fail("invalid options: %v", optsErr)
			continue
		}
		members[i] = mem
		var h maphash.Hash
		h.SetSeed(seed)
		h.WriteString(mem.okey)
		h.WriteByte(0)
		h.Write(raw)
		sum := h.Sum64()
		leader, grouped := groups[sum]
		if grouped && members[leader].okey == mem.okey && bytes.Equal(dags[leader].raw, raw) {
			followers[leader] = append(followers[leader], i)
			continue
		}
		if !grouped {
			groups[sum] = i
		}
		d, err := dag.DecodeBytes(raw)
		if err != nil {
			fail("invalid dag: %v", err)
			continue
		}
		members[i].d = d
		todo = append(todo, i)
	}
	decSpan.SetDetail("members=%d valid=%d groups=%d", len(req.Requests), len(todo), len(groups))
	decSpan.End()

	g := s.cfg.Generator
	snapshot := BatchSnapshot{
		ArtifactVersion:     spec.ArtifactFormatVersion,
		SizeThresholds:      len(g.Size.Models),
		HeuristicModel:      g.Heur != nil,
		InventoryGeneration: s.brk.Generation(),
		EvalWorkers:         s.effectiveWorkers(),
	}
	s.metrics.batchRequests.Inc()
	s.metrics.batchMembers.Add(uint64(len(req.Requests)))

	// Members run without per-member trace spans — a full batch would
	// swamp the span ring — while keeping the request's cancellation; the
	// batch's own decode/members spans still tell the timing story.
	mctx := obs.WithTrace(r.Context(), nil)
	_, runSpan := obs.StartSpan(r.Context(), "members")
	eval.Fan(len(todo), s.effectiveWorkers(), func(k int) {
		i := todo[k]
		out, source, err := s.resolveSpec(mctx, members[i].d, members[i].opts, members[i].okey)
		if err != nil {
			status := specErrStatus(err)
			if errors.Is(err, errAbandoned) {
				status = http.StatusServiceUnavailable
			}
			results[i].Status = status
			results[i].Error = err.Error()
			return
		}
		results[i].Status = http.StatusOK
		results[i].Source = source
		// The single-request body is compact JSON plus a trailing newline;
		// strip the newline so the member embeds as a clean JSON value.
		results[i].Spec = json.RawMessage(bytes.TrimSuffix(out, []byte("\n")))
	})
	runSpan.SetDetail("members=%d", len(todo))
	runSpan.End()

	// Fan the leaders' outcomes out to their byte-identical followers. A
	// successful follower reports source "shared" — it merged with an
	// identical request rather than being served by the cache — and failed
	// leaders (including decode errors) propagate their result verbatim.
	for leader, dup := range followers {
		for _, i := range dup {
			results[i] = results[leader]
			results[i].Index = i
			if results[i].Status == http.StatusOK {
				results[i].Source = srcShared
				s.metrics.dedupShared.Inc()
			}
		}
	}

	resp := BatchResponse{Snapshot: snapshot, Members: len(results), Results: results}
	for i := range results {
		switch results[i].Source {
		case srcComputed, srcFallback:
			resp.Computed++
		case srcCacheHit, srcShapeHit:
			resp.CacheHits++
		case srcShared, srcCoalesced:
			resp.Coalesced++
		default:
			resp.Errors++
		}
	}
	writeBatchResponse(w, &resp)
}

// writeBatchResponse renders the batch body by hand instead of handing the
// whole BatchResponse to encoding/json: the embedded member specs are
// already compact JSON straight from the response cache, and json.Marshal
// would re-scan and re-compact every one of them (measurably the largest
// single cost of serving a cache-hot batch). Only the small envelope fields
// go through the encoder.
func writeBatchResponse(w http.ResponseWriter, resp *BatchResponse) {
	size := 256
	for i := range resp.Results {
		size += len(resp.Results[i].Spec) + len(resp.Results[i].Error) + 64
	}
	buf := bytes.NewBuffer(make([]byte, 0, size))
	buf.WriteString(`{"snapshot":`)
	snap, err := json.Marshal(resp.Snapshot)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode snapshot: %v", err)
		return
	}
	buf.Write(snap)
	fmt.Fprintf(buf, `,"members":%d,"computed":%d,"cache_hits":%d,"coalesced":%d,"errors":%d,"results":[`,
		resp.Members, resp.Computed, resp.CacheHits, resp.Coalesced, resp.Errors)
	for i := range resp.Results {
		r := &resp.Results[i]
		if i > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(buf, `{"index":%d,"status":%d`, r.Index, r.Status)
		if r.Source != "" {
			// Sources are fixed identifiers; no escaping needed.
			fmt.Fprintf(buf, `,"source":%q`, r.Source)
		}
		if len(r.Spec) > 0 {
			buf.WriteString(`,"spec":`)
			buf.Write(r.Spec)
		}
		if r.Error != "" {
			msg, err := json.Marshal(r.Error)
			if err != nil {
				writeError(w, http.StatusInternalServerError, "encode error: %v", err)
				return
			}
			buf.WriteString(`,"error":`)
			buf.Write(msg)
		}
		buf.WriteByte('}')
	}
	buf.WriteString("]}\n")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}
