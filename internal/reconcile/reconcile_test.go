package reconcile_test

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rsgen/internal/bind"
	"rsgen/internal/broker"
	"rsgen/internal/dag"
	"rsgen/internal/heurpred"
	"rsgen/internal/knee"
	"rsgen/internal/platform"
	"rsgen/internal/reconcile"
	"rsgen/internal/spec"
	"rsgen/internal/xrand"
)

// testGenerator trains one tiny model pair for the whole test binary
// (training is deterministic, so sharing it cannot couple tests).
var testGenerator = sync.OnceValues(func() (*spec.Generator, error) {
	size, err := knee.Train(knee.TrainConfig{
		Sizes:      []int{30, 80},
		CCRs:       []float64{0.1, 0.5},
		Alphas:     []float64{0.4, 0.7},
		Betas:      []float64{0.2, 0.8},
		Reps:       1,
		Density:    0.5,
		MeanCost:   40,
		Thresholds: knee.Thresholds,
		Seed:       7,
	})
	if err != nil {
		return nil, err
	}
	heur, err := heurpred.Train(heurpred.TrainConfig{
		Sizes:  []int{30, 80},
		CCRs:   []float64{0.1},
		Alphas: []float64{0.5},
		Betas:  []float64{0.5},
		Reps:   1,
		Seed:   8,
	})
	if err != nil {
		return nil, err
	}
	return &spec.Generator{Size: size, Heur: heur}, nil
})

const testDAGJSON = `{"tasks":[{"id":0,"cost":10},{"id":1,"cost":12},{"id":2,"cost":8},{"id":3,"cost":9}],
"edges":[{"from":0,"to":1,"cost":2},{"from":0,"to":2,"cost":2},{"from":1,"to":3,"cost":1},{"from":2,"to":3,"cost":1}]}`

func testDAG(t *testing.T) *dag.DAG {
	t.Helper()
	d, err := dag.Decode(strings.NewReader(testDAGJSON))
	if err != nil {
		t.Fatalf("decoding test dag: %v", err)
	}
	return d
}

// ladderReq asks for 3.0 GHz with a 2.0 GHz fallback rung: on the 2006 test
// platform (clock classes 1.5–3.2) the optimal rung wins while fast clusters
// are healthy and the fallback still has candidates when they are not.
func ladderReq(t *testing.T) broker.Request {
	return broker.Request{
		Dag:                  testDAG(t),
		Options:              spec.Options{ClockGHz: 3.0},
		AlternativeClocks:    []float64{2.0},
		AlternativeTolerance: 1.0,
	}
}

// newFixture builds broker + reconciler over a generated 16-cluster 2006
// platform with dedicated managers.
func newFixture(t *testing.T, bmut func(*broker.Config), rmut func(*reconcile.Config)) (*broker.Broker, *reconcile.Reconciler, *platform.Platform) {
	t.Helper()
	gen, err := testGenerator()
	if err != nil {
		t.Fatalf("training test generator: %v", err)
	}
	bcfg := broker.Config{Generator: gen}
	if bmut != nil {
		bmut(&bcfg)
	}
	b, err := broker.New(bcfg)
	if err != nil {
		t.Fatalf("broker.New: %v", err)
	}
	p := platform.MustGenerate(platform.GenSpec{Clusters: 16, Year: 2006}, xrand.New(3))
	if err := b.RegisterInventory(p, bind.DedicatedGrid(p)); err != nil {
		t.Fatalf("RegisterInventory: %v", err)
	}
	rcfg := reconcile.Config{Broker: b}
	if rmut != nil {
		rmut(&rcfg)
	}
	r, err := reconcile.New(rcfg)
	if err != nil {
		t.Fatalf("reconcile.New: %v", err)
	}
	return b, r, p
}

func TestCycleRebindsAroundDeadClusters(t *testing.T) {
	b, r, p := newFixture(t, nil, nil)
	req := ladderReq(t)
	out, err := b.Select(context.Background(), req)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if out.Rung != 0 {
		t.Fatalf("setup: optimal rung should win, got %d", out.Rung)
	}
	origin := out.Lease.ID
	r.Track(out, req)

	// Kill every cluster fast enough for the optimal rung. The session's
	// hosts go down → monitor violations → suspects → transparent rebind,
	// and the fallback rung is all that's left.
	var events []reconcile.Event
	for _, c := range p.Clusters {
		if c.ClockGHz >= 3.0 {
			events = append(events, reconcile.Event{Type: reconcile.EventClusterLeave, Cluster: c.ID})
		}
	}
	if n := r.Ingest(events); n != len(events) {
		t.Fatalf("Ingest accepted %d of %d events", n, len(events))
	}
	st := r.Cycle(context.Background())
	if st.Events != len(events) || st.Rebinds != 1 {
		t.Fatalf("cycle stats %+v, want %d events and 1 rebind", st, len(events))
	}

	sess, ok := r.Status(origin)
	if !ok {
		t.Fatal("origin lease ID no longer resolves")
	}
	if sess.Status != reconcile.StatusRebound {
		t.Fatalf("session status %q, want rebound (last_error %q)", sess.Status, sess.LastError)
	}
	if sess.CurrentLeaseID == origin {
		t.Error("current lease ID did not change across the rebind")
	}
	if sess.Rung < 1 {
		t.Errorf("rebound at rung %d, want a fallback rung", sess.Rung)
	}
	if len(sess.Rebinds) != 1 || sess.Rebinds[0].From != origin || sess.Rebinds[0].To != sess.CurrentLeaseID {
		t.Errorf("rebind history %+v does not link %s → %s", sess.Rebinds, origin, sess.CurrentLeaseID)
	}
	for _, id := range sess.Hosts {
		if p.Host(id).ClockGHz >= 3.0 {
			t.Errorf("rebound session still holds host %d on a dead cluster", id)
		}
	}
	// Both IDs resolve to the same session; the broker knows only the
	// current lease.
	if byCur, ok := r.Status(sess.CurrentLeaseID); !ok || byCur.LeaseID != origin {
		t.Error("current lease ID does not resolve to the origin session")
	}
	if _, held := b.Lease(origin); held {
		t.Error("origin lease still held by the broker")
	}
	if _, held := b.Lease(sess.CurrentLeaseID); !held {
		t.Error("current lease not held by the broker")
	}
	if r.ActiveExclusions() == 0 {
		t.Error("no active cluster exclusions after a stall")
	}
	if got := r.SessionCount(); got != 1 {
		t.Errorf("SessionCount = %d, want 1", got)
	}

	// A healthy follow-up cycle converges: no further rebinds.
	if st2 := r.Cycle(context.Background()); st2.Rebinds != 0 || st2.Expired != 0 {
		t.Errorf("second cycle %+v, want no further churn", st2)
	}

	// Release through the client's original handle frees the current lease
	// and reports the rebind.
	rr := r.Release(origin)
	if !rr.Found || !rr.Released || !rr.Rebound || rr.Rebinds != 1 {
		t.Fatalf("release result %+v", rr)
	}
	if stats := b.LeaseStats(); stats.ActiveLeases != 0 {
		t.Errorf("lease stats %+v after release", stats)
	}
	if sess, _ := r.Status(origin); sess.Status != reconcile.StatusReleased {
		t.Errorf("session status %q after release", sess.Status)
	}
	if rr2 := r.Release(origin); !rr2.Found || rr2.Released {
		t.Errorf("double release %+v, want found but not released", rr2)
	}
}

func TestCycleRebindsOnLoadViolation(t *testing.T) {
	b, r, _ := newFixture(t, nil, nil)
	req := ladderReq(t)
	out, err := b.Select(context.Background(), req)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	r.Track(out, req)
	// External load over the 0.3 dedicated-access ceiling on one leased
	// host violates the MaxLoad expectation and stalls its whole cluster.
	r.Ingest([]reconcile.Event{{Type: reconcile.EventLoad, Host: out.Lease.Hosts[0], Load: 0.9}})
	st := r.Cycle(context.Background())
	if st.Rebinds != 1 {
		t.Fatalf("cycle stats %+v, want 1 rebind", st)
	}
	sess, _ := r.Status(out.Lease.ID)
	if sess.Status != reconcile.StatusRebound {
		t.Fatalf("session status %q, want rebound", sess.Status)
	}
	for _, id := range sess.Hosts {
		if id == out.Lease.Hosts[0] {
			t.Error("rebound session still holds the overloaded host")
		}
	}
	if sess.ViolationsTotal == 0 {
		t.Error("violation count never moved")
	}
}

func TestCycleExpiresSessions(t *testing.T) {
	var mu sync.Mutex
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	b, r, _ := newFixture(t,
		func(c *broker.Config) { c.Now = clock; c.LeaseTTL = time.Minute },
		func(c *reconcile.Config) { c.Now = clock })
	req := ladderReq(t)
	out, err := b.Select(context.Background(), req)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	r.Track(out, req)

	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	st := r.Cycle(context.Background())
	if st.Expired != 1 {
		t.Fatalf("cycle stats %+v, want 1 expiry", st)
	}
	sess, ok := r.Status(out.Lease.ID)
	if !ok || sess.Status != reconcile.StatusExpired {
		t.Fatalf("session %+v, want status expired", sess)
	}
	if rr := r.Release(out.Lease.ID); !rr.Found || rr.Released {
		t.Errorf("release of expired session %+v, want found but not released", rr)
	}
}

func TestGenerationChangeMarksSessionsLost(t *testing.T) {
	b, r, _ := newFixture(t, nil, nil)
	req := ladderReq(t)
	out, err := b.Select(context.Background(), req)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	r.Track(out, req)
	p2 := platform.MustGenerate(platform.GenSpec{Clusters: 8, Year: 2006}, xrand.New(4))
	if err := b.RegisterInventory(p2, bind.DedicatedGrid(p2)); err != nil {
		t.Fatalf("RegisterInventory: %v", err)
	}
	st := r.Cycle(context.Background())
	if st.Lost != 1 {
		t.Fatalf("cycle stats %+v, want 1 lost session", st)
	}
	if sess, _ := r.Status(out.Lease.ID); sess.Status != reconcile.StatusLost {
		t.Errorf("session status %q, want lost", sess.Status)
	}
}

func TestEventValidate(t *testing.T) {
	p := platform.MustGenerate(platform.GenSpec{Clusters: 4, Year: 2006}, xrand.New(3))
	valid := []reconcile.Event{
		{Type: reconcile.EventLeave, Host: 0},
		{Type: reconcile.EventJoin, Host: platform.HostID(p.NumHosts() - 1)},
		{Type: reconcile.EventLoad, Host: 1, Load: 0.5},
		{Type: reconcile.EventClock, Host: 1, ClockGHz: 1.2},
		{Type: reconcile.EventClusterLeave, Cluster: 3},
		{Type: reconcile.EventClusterJoin, Cluster: 0},
	}
	for _, e := range valid {
		if err := e.Validate(p); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", e, err)
		}
	}
	invalid := []reconcile.Event{
		{},
		{Type: "explode"},
		{Type: reconcile.EventLeave, Host: platform.HostID(p.NumHosts())},
		{Type: reconcile.EventLeave, Host: -1},
		{Type: reconcile.EventLoad, Host: 0, Load: -0.1},
		{Type: reconcile.EventClock, Host: 0},
		{Type: reconcile.EventClusterLeave, Cluster: len(p.Clusters)},
	}
	for _, e := range invalid {
		if err := e.Validate(p); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", e)
		}
	}
}

func TestChurnIsDeterministicAndValid(t *testing.T) {
	p := platform.MustGenerate(platform.GenSpec{Clusters: 8, Year: 2006}, xrand.New(3))
	a := reconcile.NewChurn(p, 9).Tick(200)
	b := reconcile.NewChurn(p, 9).Tick(200)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds produced different event streams")
	}
	types := map[string]int{}
	for _, e := range a {
		if err := e.Validate(p); err != nil {
			t.Fatalf("churn emitted invalid event %+v: %v", e, err)
		}
		types[e.Type]++
	}
	for _, want := range []string{reconcile.EventLeave, reconcile.EventJoin, reconcile.EventLoad, reconcile.EventClock} {
		if types[want] == 0 {
			t.Errorf("200 draws produced no %s events (mix %v)", want, types)
		}
	}
}

// A retired session stays queryable (up to MaxRetired of them do) but must
// not keep its request alive: the DAG is the bulk of a session, and a
// terminal session is never rebound. The finalizer fires only once nothing
// reaches the DAG any more.
func TestRetiredSessionDropsItsRequest(t *testing.T) {
	b, r, _ := newFixture(t, nil, nil)
	collected := make(chan struct{})
	origin := func() string {
		req := ladderReq(t)
		runtime.SetFinalizer(req.Dag, func(*dag.DAG) { close(collected) })
		out, err := b.Select(context.Background(), req)
		if err != nil {
			t.Fatalf("Select: %v", err)
		}
		r.Track(out, req)
		if rr := r.Release(out.Lease.ID); !rr.Released {
			t.Fatalf("release result %+v", rr)
		}
		return out.Lease.ID
	}()
	deadline := time.After(5 * time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-collected:
			done = true
		case <-deadline:
			t.Fatal("the released session's DAG is still reachable")
		case <-time.After(10 * time.Millisecond):
		}
	}
	// Queried last, so the reconciler is live for the whole wait above.
	if sess, ok := r.Status(origin); !ok || sess.Status != reconcile.StatusReleased {
		t.Fatalf("retired session = %+v, %v; want it queryable as released", sess, ok)
	}
}
