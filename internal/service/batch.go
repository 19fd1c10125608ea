package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"net/http"
	"sync"
	"sync/atomic"

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

// BatchMember is one DAG — its "dag" member, which walkBatch locates in the
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

// walkBatch reads a /v1/spec/batch body: the typed request and, member by
// member, where each DAG lies in body. No DAG is decoded here. Each extent
// goes to onDag, when set, as soon as its syntax has been checked — in member
// order, every "dag" value once (a repeated one too) — so the caller can
// decode while the walk reads on; the rest of the body may still fail. It is
// a pure []byte → value function for the fuzz target.
func walkBatch(body []byte, onDag func(i int, raw []byte)) (*BatchRequest, []memberDag, error) {
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
		if onDag != nil {
			onDag(i, dags[i].raw)
		}
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

// decoding is one distinct raw DAG of a batch. Every member with these bytes
// shares it whatever its options: decoding reads no options, and a
// *dag.DAG's lazy caches are safe to fill from concurrent resolves.
type decoding struct {
	raw []byte
	d   *dag.DAG
	err error
}

// batchDecoder decodes a batch's DAGs beside the envelope walk. The walk is
// the batch's serial critical path, so it only locates each member's DAG and
// hands the extent over (add) to decode goroutines started once per batch.
type batchDecoder struct {
	limit  int            // members from this index on are not decoded: the batch is refused
	queue  chan *decoding // nil once joined
	wg     sync.WaitGroup // the decode goroutines
	skip   atomic.Bool    // set by a refusing join: queued decodes are skipped
	seed   maphash.Seed
	byRaw  map[uint64]*decoding // distinct raw bytes, on a hash confirmed by bytes.Equal
	member []*decoding          // member index → the decode of its dag; nil when not handed out
}

func newBatchDecoder(workers, limit, bodyLen int) *batchDecoder {
	p := &batchDecoder{limit: limit, seed: maphash.MakeSeed(), byRaw: make(map[uint64]*decoding)}
	// A member's dag takes at least the 9 bytes of {"dag":0}, so the body
	// bounds how much the walk hands over: the queue never blocks it.
	p.queue = make(chan *decoding, min(limit, bodyLen/9+1))
	workers = max(workers, 1)
	p.wg.Add(workers)
	for range workers {
		go p.run(p.queue)
	}
	return p
}

// run is one decode goroutine; join clears p.queue, so it takes the channel.
func (p *batchDecoder) run(queue <-chan *decoding) {
	defer p.wg.Done()
	for job := range queue {
		if !p.skip.Load() {
			job.d, job.err = dag.DecodeBytes(job.raw)
		}
	}
}

// add is the walk's onDag: it queues member i's dag for decoding unless the
// same bytes already are. A member's repeated dag is not handed out — the
// member fails without its decode being read.
func (p *batchDecoder) add(i int, raw []byte) {
	if i >= p.limit {
		return
	}
	for len(p.member) <= i {
		p.member = append(p.member, nil)
	}
	if p.member[i] != nil {
		return
	}
	sum := maphash.Bytes(p.seed, raw)
	job, ok := p.byRaw[sum]
	if !ok || !bytes.Equal(job.raw, raw) {
		// A 64-bit collision merely decodes the second bytes on their own.
		job = &decoding{raw: raw}
		if !ok {
			p.byRaw[sum] = job
		}
		p.queue <- job
	}
	p.member[i] = job
}

// join returns once every decode goroutine has exited: after it nothing reads
// the body, and every decode handed out is done — or, when refuse is set,
// those still queued are skipped. Only the first call does anything.
func (p *batchDecoder) join(refuse bool) {
	if p.queue == nil {
		return
	}
	p.skip.Store(refuse)
	close(p.queue)
	p.queue = nil
	p.wg.Wait()
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

// handleSpecBatch is POST /v1/spec/batch: walk the body while decoding its
// members beside the walk, pin the snapshot, then — only once the whole body
// is known to be valid — fan the members over the evaluation worker budget
// through the same resolveSpec path as single requests, so a batch gets the
// full benefit of the response cache, shape coalescing, and in-flight dedup,
// within itself and against concurrent traffic.
// maxBatchBytes bounds the batch request body: 32 MiB (a batch carries many
// DAGs, so the single-request MaxBodyBytes would be far too tight).
const maxBatchBytes = 32 << 20

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
	body := s.readBody(w, r, maxBatchBytes)
	if body == nil {
		decSpan.EndErr(errUnreadableBody)
		return
	}
	// The members' raw DAGs are views into the body, and the decoders read
	// them: the body goes back to the pool only after the decoders are
	// joined (defers run last in, first out). A refused batch skips the
	// decodes still queued.
	defer s.releaseBody(body)
	dec := newBatchDecoder(s.effectiveWorkers(), s.cfg.MaxBatchMembers, body.Len())
	defer dec.join(true)
	req, dags, err := walkBatch(body.Bytes(), dec.add)
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
	dec.join(false)

	// Every member's DAG has been decoded beside the walk, and no member is
	// evaluated before the whole body has proved valid, so malformed members
	// surface as per-member 400s regardless of worker scheduling order.
	// Byte-identical members (same raw dag bytes, same effective options) are
	// grouped on a hash of the options key and the raw bytes, confirmed by
	// comparing both: one leader per group resolves, and its followers copy
	// the leader's result afterwards. (Two different members colliding on the
	// 64-bit hash would merely go unmerged: the second stays its own,
	// unregistered leader.) Members with the same raw bytes share one decode
	// whatever their options.
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
		if err := dec.member[i].err; err != nil {
			fail("invalid dag: %v", err)
			continue
		}
		members[i].d = dec.member[i].d
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
