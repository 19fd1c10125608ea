package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"rsgen/internal/moga"
	"rsgen/internal/xrand"
)

// Fixed-count warm-ups (not fixed-time ones): a slower server then shows a
// longer setup_s instead of hiding behind a constant.
var warmupOps = map[string]int{
	wlSpecSingle: 96,
	wlSpecBatch:  16,
	wlLeaseCycle: 256,
	wlMogaFront:  16,
}

// clientsOf sizes each closed loop to the 2-core box: lease_cycle wants two
// concurrent writers on the store and WAL, the CPU-bound workloads hold
// steadier with one caller (see ISSUE sizing notes).
var clientsOf = map[string]int{
	wlSpecSingle: 1,
	wlSpecBatch:  1,
	wlLeaseCycle: 2,
	wlMogaFront:  1,
}

const (
	heldLeases    = 64 // leases pre-held for the whole run with ttl 600s
	eventsEvery   = 16 // every n-th lease session also reports load events
	eventsPerPost = 32
)

// tally counts what was attempted and what failed; the first few failures
// are kept verbatim for the operator.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	notes     []string
}

func (t *tally) add(attempted, failed int, format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += attempted
	t.failed += failed
	if failed > 0 && len(t.notes) < 8 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// check records one correctness check.
func (t *tally) check(err error, what string) {
	if err != nil {
		t.add(1, 1, "%s: %v", what, err)
		return
	}
	t.add(1, 0, "")
}

// session is one workload bound to one running server.
type session struct {
	name    string
	seed    uint64
	corp    *corpus
	srv     *server
	cli     *client
	clients int
	tally   *tally

	// Lease bookkeeping shared by the clients: which benchmark-held lease
	// owns each host right now. A host seen under two live leases is a
	// double allocation.
	leaseMu  sync.Mutex
	hostHeld map[int]string
	held     []string // the pre-held lease IDs
	released []string // a sample of released lease IDs (must 404 later)
	events   []byte   // load-event body over pre-held hosts

	// firstSeen[i] is the hash of the first response to spec body i; later
	// cycles must return identical bytes.
	seenMu    sync.Mutex
	firstSeen map[int][32]byte
}

func newSession(name string, seed uint64, corp *corpus, srv *server, t *tally) *session {
	n := clientsOf[name]
	return &session{
		name: name, seed: seed, corp: corp, srv: srv, clients: n, tally: t,
		cli:       newClient(srv.url, n),
		hostHeld:  make(map[int]string),
		firstSeen: make(map[int][32]byte),
	}
}

type selectReply struct {
	LeaseID   string  `json:"lease_id"`
	Backend   string  `json:"backend"`
	Hosts     []int   `json:"hosts"`
	Predicted float64 `json:"predicted_turn_around_seconds"`
}

// claim registers a fresh lease's hosts, failing on any overlap with a lease
// the benchmark still holds.
func (s *session) claim(r *selectReply) error {
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	if len(r.Hosts) == 0 || r.LeaseID == "" {
		return fmt.Errorf("select reply has no lease or no hosts")
	}
	for _, h := range r.Hosts {
		if other, ok := s.hostHeld[h]; ok {
			return fmt.Errorf("host %d leased to both %s and %s", h, other, r.LeaseID)
		}
	}
	for _, h := range r.Hosts {
		s.hostHeld[h] = r.LeaseID
	}
	return nil
}

func (s *session) unclaim(r *selectReply) {
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	for _, h := range r.Hosts {
		if s.hostHeld[h] == r.LeaseID {
			delete(s.hostHeld, h)
		}
	}
	if len(s.released) < 16 {
		s.released = append(s.released, r.LeaseID)
	}
}

// selectLease posts a select and claims its hosts; the latency is the
// time-to-lease a workflow manager blocks on.
func (s *session) selectLease(body []byte) (*selectReply, time.Duration, error) {
	start := time.Now()
	out, err := s.cli.postOK("/v1/select", body)
	lat := time.Since(start)
	if err != nil {
		return nil, lat, err
	}
	var r selectReply
	if err := json.Unmarshal(out, &r); err != nil {
		return nil, lat, fmt.Errorf("select reply: %v", err)
	}
	return &r, lat, s.claim(&r)
}

// release gives the lease back. The hosts are unclaimed before the request
// is sent: from that moment the server may rightly hand them to someone else.
func (s *session) release(r *selectReply, observed float64) error {
	s.unclaim(r)
	body := fmt.Sprintf(`{"lease_id":%q,"observed_seconds":%g}`, r.LeaseID, observed)
	_, err := s.cli.postOK("/v1/release", []byte(body))
	return err
}

// checkGolden posts the Fig. III-2 request and compares the reply with the
// repository's committed golden, byte for byte.
func (s *session) checkGolden() error {
	req, err := os.ReadFile("cmd/rsgend/testdata/fig_iii2_request.json")
	if err != nil {
		return err
	}
	want, err := os.ReadFile("cmd/rsgend/testdata/fig_iii2_spec.golden.json")
	if err != nil {
		return err
	}
	got, err := s.cli.postOK("/v1/spec", req)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("Fig. III-2 reply differs from the golden (%d vs %d bytes)", len(got), len(want))
	}
	return nil
}

// prepare is the per-boot part of set-up after the platform is registered:
// the golden check, the pre-held leases, and the warm-up.
func (s *session) prepare() error {
	if err := s.checkGolden(); err != nil {
		return fmt.Errorf("golden: %w", err)
	}
	if s.name == wlLeaseCycle || s.name == wlMogaFront {
		var hosts []int
		for i := 0; i < heldLeases; i++ {
			r, _, err := s.selectLease(heldLeaseBody(s.corp.dags[i%len(s.corp.dags)]))
			if err != nil {
				return fmt.Errorf("pre-holding lease %d: %w", i, err)
			}
			s.held = append(s.held, r.LeaseID)
			hosts = append(hosts, r.Hosts...)
		}
		s.events = loadEventsBody(s.seed, hosts)
	}
	for i := 0; i < warmupOps[s.name]; i++ {
		s.op(i)
	}
	return nil
}

// loadEventsBody reports low external load on 32 of the given (held) hosts:
// well under the reconciler's dedicated-access ceiling, so monitors update
// and nothing rebinds.
func loadEventsBody(seed uint64, hosts []int) []byte {
	rng := xrand.NewFrom(seed, 0xe7e)
	var ev bytes.Buffer
	ev.WriteString(`{"events":[`)
	for i := 0; i < eventsPerPost; i++ {
		if i > 0 {
			ev.WriteByte(',')
		}
		fmt.Fprintf(&ev, `{"type":"load","host":%d,"load":%.3f}`, hosts[rng.Intn(len(hosts))], rng.Uniform(0.01, 0.1))
	}
	ev.WriteString(`]}`)
	return ev.Bytes()
}

// opResult is one operation's outcome: the primary request's latency and how
// many operations it stood for (32 for a batch).
type opResult struct {
	latency time.Duration
	ops     int
}

// op runs the i-th operation of the workload's fixed sequence.
func (s *session) op(i int) opResult {
	switch s.name {
	case wlSpecSingle:
		return s.opSpecSingle(i)
	case wlSpecBatch:
		return s.opSpecBatch(i)
	case wlLeaseCycle:
		return s.opLeaseCycle(i)
	default:
		return s.opMogaFront(i)
	}
}

func (s *session) opSpecSingle(i int) opResult {
	idx := i % len(s.corp.bodies)
	start := time.Now()
	code, hdr, out, err := s.cli.post("/v1/spec", s.corp.bodies[idx])
	lat := time.Since(start)
	switch {
	case err != nil:
		s.tally.add(1, 1, "spec %d: %v", idx, err)
	case code != http.StatusOK:
		s.tally.add(1, 1, "spec %d: status %d: %s", idx, code, truncate(out))
	case hdr.Get("X-Cache") == "":
		s.tally.add(1, 1, "spec %d: reply has no X-Cache header", idx)
	default:
		sum := sha256.Sum256(out)
		s.seenMu.Lock()
		first, seen := s.firstSeen[idx]
		if !seen {
			s.firstSeen[idx] = sum
		}
		s.seenMu.Unlock()
		if seen && first != sum {
			s.tally.add(1, 1, "spec %d: reply differs from the first reply to the same request", idx)
		} else {
			s.tally.add(1, 0, "")
		}
	}
	return opResult{lat, 1}
}

type batchReply struct {
	Members int `json:"members"`
	Errors  int `json:"errors"`
	Results []struct {
		Status int             `json:"status"`
		Spec   json.RawMessage `json:"spec"`
	} `json:"results"`
}

func (s *session) opSpecBatch(i int) opResult {
	idx := i % len(s.corp.bodies)
	start := time.Now()
	code, _, out, err := s.cli.post("/v1/spec/batch", s.corp.bodies[idx])
	lat := time.Since(start)
	var r batchReply
	switch {
	case err != nil:
		s.tally.add(batchMembers, batchMembers, "batch %d: %v", idx, err)
	case code != http.StatusOK:
		s.tally.add(batchMembers, batchMembers, "batch %d: status %d: %s", idx, code, truncate(out))
	case json.Unmarshal(out, &r) != nil || r.Members != batchMembers || len(r.Results) != batchMembers:
		s.tally.add(batchMembers, batchMembers, "batch %d: malformed reply", idx)
	default:
		s.tally.add(batchMembers, r.Errors, "batch %d: %d member errors", idx, r.Errors)
	}
	return opResult{lat, batchMembers}
}

func (s *session) opLeaseCycle(i int) opResult {
	idx := i % len(s.corp.bodies)
	r, lat, err := s.selectLease(s.corp.bodies[idx])
	if err != nil {
		s.tally.add(1, 1, "select %d: %v", idx, err)
		if r != nil {
			_ = s.release(r, 0)
		}
		return opResult{lat, 1}
	}
	// The client's report of how long the work really ran: the promise times
	// a log-normal factor of median 1, a pure function of seed and index.
	observed := r.Predicted * xrand.NewFrom(s.seed, 0x0b5, uint64(i)).LogNormal(0, 0.25)
	if err := s.release(r, observed); err != nil {
		s.tally.add(1, 1, "release %d: %v", idx, err)
		return opResult{lat, 1}
	}
	if i%eventsEvery == 0 {
		if _, err := s.cli.postOK("/v1/platform/events", s.events); err != nil {
			s.tally.add(1, 1, "events at %d: %v", i, err)
			return opResult{lat, 1}
		}
	}
	s.tally.add(1, 0, "")
	return opResult{lat, 1}
}

type adviseReply struct {
	FrontSize int             `json:"front_size"`
	Front     []moga.Solution `json:"front"`
}

func (s *session) opMogaFront(i int) opResult {
	idx := (i / 2) % len(s.corp.bodies)
	if i%2 == 0 {
		start := time.Now()
		out, err := s.cli.postOK("/v1/advise", s.corp.bodies[idx])
		lat := time.Since(start)
		if err == nil {
			err = checkFront(out)
		}
		if err != nil {
			s.tally.add(1, 1, "advise %d: %v", idx, err)
		} else {
			s.tally.add(1, 0, "")
		}
		return opResult{lat, 1}
	}
	r, lat, err := s.selectLease(s.corp.selectBodies[idx])
	if err == nil && r.Backend != "moga" {
		err = fmt.Errorf("lease bound by backend %q, want moga", r.Backend)
	}
	if r != nil {
		if rerr := s.release(r, r.Predicted); err == nil {
			err = rerr
		}
	}
	if err != nil {
		s.tally.add(1, 1, "moga select %d: %v", idx, err)
	} else {
		s.tally.add(1, 0, "")
	}
	return opResult{lat, 1}
}

// checkFront verifies an advise reply's front is non-empty and mutually
// non-dominated.
func checkFront(body []byte) error {
	var r adviseReply
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("advise reply: %v", err)
	}
	if len(r.Front) == 0 || r.FrontSize != len(r.Front) {
		return fmt.Errorf("advise reply has front_size %d and %d solutions", r.FrontSize, len(r.Front))
	}
	for a := range r.Front {
		for b := range r.Front {
			if a != b && r.Front[a].Obj.Dominates(r.Front[b].Obj) {
				return fmt.Errorf("front solution %d dominates solution %d", a, b)
			}
		}
	}
	return nil
}

// window is what one measured interval produced.
type window struct {
	elapsed   time.Duration
	ops       int
	latencies []float64 // primary-request latencies, ms, sorted
	serverCPU time.Duration
	clientCPU time.Duration
	peakRSS   int64
	metrics   *scrape // /metrics deltas over the window
	after     *scrape // /metrics at window end (gauges)
}

// measure runs the closed loop for d: every client sends its next request
// only after the previous reply, on indices first, first+clients, ...
func (s *session) measure(first int, d time.Duration) (*window, error) {
	warnIfLoaded("the " + s.name + " window")
	before, err := s.cli.scrape()
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPU(s.srv.pid())
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()

	perClient := make([][]float64, s.clients)
	opsDone := make([]int, s.clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := first + c; time.Now().Before(deadline); i += s.clients {
				r := s.op(i)
				perClient[c] = append(perClient[c], float64(r.latency.Nanoseconds())/1e6)
				opsDone[c] += r.ops
			}
		}(c)
	}
	wg.Wait()
	w := &window{elapsed: time.Since(start), clientCPU: selfCPU() - self0}

	cpu1, err := procCPU(s.srv.pid())
	if err != nil {
		return nil, err
	}
	w.serverCPU = cpu1 - cpu0
	if w.peakRSS, err = procPeakRSS(s.srv.pid()); err != nil {
		return nil, err
	}
	if w.after, err = s.cli.scrape(); err != nil {
		return nil, err
	}
	w.metrics = deltaScrape(before, w.after)
	for c := range perClient {
		w.latencies = append(w.latencies, perClient[c]...)
		w.ops += opsDone[c]
	}
	sort.Float64s(w.latencies)
	if len(w.latencies) == 0 {
		return nil, fmt.Errorf("%s: no operation completed in %v", s.name, d)
	}
	return w, nil
}

// checkBatchMembers verifies, on a sample, that a batch member's bytes equal
// the single-request bytes for the same DAG (the batch strips only the
// trailing newline). It runs after the window: it perturbs the cache.
func (s *session) checkBatchMembers() {
	for k := 0; k < 8; k++ {
		b := (k * 37) % len(s.corp.bodies)
		m := (k * 11) % batchMembers
		s.tally.check(s.memberMatchesSingle(b, m), fmt.Sprintf("batch %d member %d vs single", b, m))
	}
}

func (s *session) memberMatchesSingle(b, m int) error {
	out, err := s.cli.postOK("/v1/spec/batch", s.corp.bodies[b])
	if err != nil {
		return err
	}
	var r batchReply
	if err := json.Unmarshal(out, &r); err != nil || len(r.Results) <= m {
		return fmt.Errorf("malformed batch reply")
	}
	single, err := s.cli.postOK("/v1/spec", specBody(s.corp.memberDAGs[b][m]))
	if err != nil {
		return err
	}
	if !bytes.Equal(append([]byte(r.Results[m].Spec), '\n'), single) {
		return fmt.Errorf("member bytes differ from the single-request bytes")
	}
	return nil
}

// crashAndRecover SIGKILLs the server, restarts it on the same state
// directory, and checks that every pre-held lease still resolves and that
// released ones stay gone. It returns the time from the kill to the first
// healthy reply; the session continues on the new process.
func (s *session) crashAndRecover(a *artefacts) (restartMS float64, err error) {
	begin := time.Now()
	s.cli.close()
	s.srv.kill()
	srv, err := startServer(a, s.srv.dir)
	if err != nil {
		return 0, fmt.Errorf("restart: %w", err)
	}
	restartMS = float64(time.Since(begin).Microseconds()) / 1000
	s.srv, s.cli = srv, newClient(srv.url, s.clients)
	for _, id := range s.held {
		code, _, out, err := s.cli.do(http.MethodGet, "/v1/select/"+id, nil)
		if err != nil {
			return restartMS, err
		}
		if code != http.StatusOK {
			return restartMS, fmt.Errorf("held lease %s after restart: status %d: %s", id, code, truncate(out))
		}
	}
	for _, id := range s.released {
		code, _, _, err := s.cli.do(http.MethodGet, "/v1/select/"+id, nil)
		if err != nil {
			return restartMS, err
		}
		if code != http.StatusNotFound {
			return restartMS, fmt.Errorf("released lease %s after restart: status %d, want 404", id, code)
		}
	}
	return restartMS, nil
}
