// Package e2e drives the rsgend binary end to end: one scenario per flow of
// the Ch. VII loop (spec → select → bind → release), each against its own
// server process on an ephemeral port. TestMain builds ./cmd/rsgend and
// trains one smoke-scale model artifact that every scenario serves:
//
//	go test ./e2e -run 'TestScenarios/serve' -v
package e2e

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

var (
	binary, models string // the rsgend TestMain builds and its -scale smoke -seed 1 artifact
	// The Figure III-2 spec and select requests and the golden spec, shared
	// with the benchmark in cmd/rsgend/testdata.
	specReq, selectReq, golden []byte
)

func TestMain(m *testing.M) { os.Exit(setup(m)) }

func setup(m *testing.M) int {
	dir, err := os.MkdirTemp("", "rsgend-e2e")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	binary, models = filepath.Join(dir, "rsgend"), filepath.Join(dir, "models.json")
	for _, args := range [][]string{
		{"go", "build", "-buildvcs=false", "-o", binary, "rsgen/cmd/rsgend"},
		{binary, "-train", "-models", models, "-scale", "smoke", "-seed", "1"},
	} {
		if out, err := exec.Command(args[0], args[1:]...).CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "e2e: %s: %v\n%s", strings.Join(args, " "), err, out)
			return 1
		}
	}
	return m.Run()
}

// readInputs loads the Figure III-2 testdata, then reads go.mod and every
// non-test Go file of the module. The go command caches a test result
// against the files the test opened once its tests began to run, not against
// what TestMain's child `go build` compiled, so these reads are what make a
// change to the server or to its testdata rerun this package.
func readInputs(t *testing.T) {
	t.Helper()
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join("..", "cmd", "rsgend", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	specReq = read("fig_iii2_request.json")
	selectReq = read("fig_iii2_select_request.json")
	golden = read("fig_iii2_spec.golden.json")
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() && path != ".." && strings.HasPrefix(name, ".") {
			return filepath.SkipDir // .git and build caches
		}
		if name == "go.mod" || strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			_, err = os.ReadFile(path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestScenarios runs every row in its own directory, in parallel. A row
// with steps boots rsgend under args, runs the steps and ends with a clean
// drain; a row without steps runs the binary with args alone and requires
// the exit code.
func TestScenarios(t *testing.T) {
	readInputs(t)
	for _, sc := range []struct {
		name  string
		args  []string
		steps func(t *testing.T, s *server)
		code  int
	}{
		{name: "serve", args: []string{"-debug-addr", "127.0.0.1:0"}, steps: serve},
		{name: "crash", args: []string{"-state-dir", "state"}, steps: crash},
		{name: "churn", args: []string{"-state-dir", "state", "-reconcile-interval", "200ms",
			"-probe-timeout", "5s", "-debug-addr", "127.0.0.1:0"}, steps: churn},
		{name: "advise", steps: advise},
		{name: "accuracy", args: []string{"-state-dir", "state", "-obs-dir", "observations"}, steps: accuracy},
		{name: "exit/no-models", code: 2},
		{name: "exit/unknown-flag", args: []string{"-models", models, "-bogus"}, code: 2},
		{name: "exit/log-level", args: []string{"-models", models, "-log-level", "bogus"}, code: 2},
		{name: "exit/train-scale", args: []string{"-train", "-models", "m.json", "-scale", "bogus"}, code: 1},
		{name: "exit/models-missing", args: []string{"-models", "missing.json"}, code: 1},
	} {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			if sc.steps != nil {
				s := boot(t, sc.args...)
				sc.steps(t, s)
				s.stop()
				return
			}
			cmd := exec.Command(binary, sc.args...)
			cmd.Dir = t.TempDir()
			out, _ := cmd.CombinedOutput()
			if code := cmd.ProcessState.ExitCode(); code != sc.code {
				t.Fatalf("rsgend %s: exit %d, want %d:\n%s", strings.Join(sc.args, " "), code, sc.code, out)
			}
		})
	}
}

// server is one rsgend process serving the trained models under a
// scenario's flags. It runs in the scenario's own directory, so relative
// -state-dir and -obs-dir paths name the same state across restarts.
type server struct {
	t          *testing.T
	dir        string
	flags      []string
	cmd        *exec.Cmd
	exited     chan struct{} // closed once the current process is reaped
	url, debug string        // http://host:port of the public and -debug-addr listeners
}

var (
	listenRE = regexp.MustCompile(`listening on (http://\S+)`)
	debugRE  = regexp.MustCompile(`debug endpoints \(pprof\) on (http://[^/\s]+)/`)
)

// boot starts rsgend in a fresh directory and waits until it is healthy. A
// process the scenario leaves running is killed when the test ends.
func boot(t *testing.T, flags ...string) *server {
	s := &server{t: t, dir: t.TempDir(), flags: flags}
	t.Cleanup(func() {
		if s.exited == nil {
			return
		}
		select {
		case <-s.exited:
		default:
			_ = s.cmd.Process.Kill()
			<-s.exited
		}
	})
	s.start()
	return s
}

// start launches the binary with its stderr in s.dir, reads the listening
// lines from there, and waits for /healthz to answer 200.
func (s *server) start() {
	s.t.Helper()
	logf, err := os.Create(filepath.Join(s.dir, "rsgend.log"))
	if err != nil {
		s.t.Fatal(err)
	}
	defer logf.Close() // the child holds its own descriptor
	s.cmd = exec.Command(binary, append([]string{"-models", models, "-addr", "127.0.0.1:0"}, s.flags...)...)
	s.cmd.Dir, s.cmd.Stderr = s.dir, logf
	if err := s.cmd.Start(); err != nil {
		s.t.Fatal(err)
	}
	cmd, exited := s.cmd, make(chan struct{})
	s.exited = exited
	go func() {
		_ = cmd.Wait() // the exit status stays in cmd.ProcessState
		close(exited)
	}()
	// Every other startup line precedes Serve, so once /healthz answers the
	// log holds them all.
	for deadline := time.Now().Add(20 * time.Second); ; {
		select {
		case <-exited:
			s.t.Fatalf("rsgend exited (%v) before it was healthy:\n%s", cmd.ProcessState, s.log())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.t.Fatalf("rsgend not healthy after 20s:\n%s", s.log())
		}
		if m := listenRE.FindStringSubmatch(s.log()); m != nil {
			if resp, err := client.Get(m[1] + "/healthz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					s.url = m[1]
					break
				}
			}
		}
	}
	// Each of these flags has every boot print its line.
	for flag, line := range map[string]string{"-state-dir": "recovered state from",
		"-obs-dir": "observation log at", "-reconcile-interval": "reconciler running"} {
		if slices.Contains(s.flags, flag) && !strings.Contains(s.log(), line) {
			s.t.Fatalf("rsgend with %s never logged %q:\n%s", flag, line, s.log())
		}
	}
	if slices.Contains(s.flags, "-debug-addr") {
		m := debugRE.FindStringSubmatch(s.log())
		if m == nil {
			s.t.Fatalf("rsgend never reported its debug address:\n%s", s.log())
		}
		s.debug = m[1]
	}
}

// crash SIGKILLs the server (no drain, no final snapshot) and starts it
// again on the same state and observation directories.
func (s *server) crash() {
	s.t.Helper()
	_ = s.cmd.Process.Kill()
	<-s.exited
	s.start()
}

// stop sends SIGTERM and requires a clean drain: the drained line, then
// exit 0.
func (s *server) stop() {
	s.t.Helper()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		s.t.Fatalf("rsgend did not exit within 20s of SIGTERM:\n%s", s.log())
	}
	if code := s.cmd.ProcessState.ExitCode(); code != 0 || !strings.Contains(s.log(), "rsgend: drained, exiting") {
		s.t.Fatalf("rsgend exited %d after SIGTERM, want 0 after a clean drain:\n%s", code, s.log())
	}
}

// log is what the current process has written to stderr.
func (s *server) log() string {
	b, _ := os.ReadFile(filepath.Join(s.dir, "rsgend.log"))
	return string(b)
}

var client = &http.Client{Timeout: 30 * time.Second}

// call sends one request, requires status want, and decodes the JSON answer
// into out; a *[]byte out takes the raw body. It returns the response
// headers.
func call(t *testing.T, method, url, body string, want int, out any) http.Header {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != want {
		t.Fatalf("%s %s: status %d, want %d (%v): %s", method, url, resp.StatusCode, want, err, raw)
	}
	if p, ok := out.(*[]byte); ok {
		*p = raw
	} else if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: %v: %s", method, url, err, raw)
		}
	}
	return resp.Header
}

// get and post call the public listener, require a 200, and return the
// decoded JSON answer.
func (s *server) get(path string) (doc any) {
	s.t.Helper()
	call(s.t, "GET", s.url+path, "", 200, &doc)
	return doc
}

func (s *server) post(path, body string) (doc any) {
	s.t.Helper()
	call(s.t, "POST", s.url+path, body, 200, &doc)
	return doc
}

// metrics scrapes /metrics and requires each pattern to match the start of
// a line.
func (s *server) metrics(patterns ...string) []byte {
	s.t.Helper()
	var text []byte
	call(s.t, "GET", s.url+"/metrics", "", 200, &text)
	for _, p := range patterns {
		if !regexp.MustCompile(`(?m)^` + p).Match(text) {
			s.t.Fatalf("/metrics has no line matching %q:\n%s", p, text)
		}
	}
	return text
}

// with returns the JSON object doc with member prepended.
func with(doc []byte, member string) string {
	return "{" + member + "," + string(doc[bytes.IndexByte(doc, '{')+1:])
}

// at walks a decoded JSON document down a dotted path of member names and
// array indexes (-1 for the last element), as jq's .a.b[0] does; a path
// that leads nowhere gives nil.
func at(v any, path string) any {
	for _, step := range strings.Split(path, ".") {
		switch x := v.(type) {
		case map[string]any:
			v = x[step]
		case []any:
			i, err := strconv.Atoi(step)
			if i < 0 {
				i += len(x)
			}
			if err != nil || i < 0 || i >= len(x) {
				return nil
			}
			v = x[i]
		default:
			return nil
		}
	}
	return v
}

// num, str and list read at(v, path) as a JSON number, string or array;
// anything else reads as the zero value.
func num(v any, path string) float64 {
	f, _ := at(v, path).(float64)
	return f
}

func str(v any, path string) string {
	s, _ := at(v, path).(string)
	return s
}

func list(v any, path string) []any {
	l, _ := at(v, path).([]any)
	return l
}

// register installs a generated inventory of the given shape.
func register(s *server, clusters, year, seed int) {
	s.t.Helper()
	var inv any
	body := fmt.Sprintf(`{"generate": {"clusters": %d, "year": %d, "seed": %d}}`, clusters, year, seed)
	if call(s.t, "PUT", s.url+"/v1/platform", body, 200, &inv); num(inv, "clusters") != float64(clusters) || num(inv, "hosts") <= 0 {
		s.t.Fatalf("PUT /v1/platform: %v, want %d clusters and some hosts", inv, clusters)
	}
}

// bind posts a select request and requires a lease.
func bind(s *server, req string) any {
	s.t.Helper()
	sel := s.post("/v1/select", req)
	if !strings.HasPrefix(str(sel, "lease_id"), "lease-") {
		s.t.Fatalf("/v1/select returned no lease: %v", sel)
	}
	return sel
}

// release frees a lease, reporting an observed makespan when positive.
func release(s *server, id string, observed float64) {
	s.t.Helper()
	if rel := s.post("/v1/release", fmt.Sprintf(`{"lease_id": %q, "observed_seconds": %v}`, id, observed)); at(rel, "released") != true {
		s.t.Fatalf("release of %s: %v", id, rel)
	}
}

// occupied requires GET /v1/platform to show the given number of active
// leases over the given number of hosts.
func occupied(s *server, leases, hosts int) (inv any) {
	s.t.Helper()
	inv = s.get("/v1/platform")
	if num(inv, "leases.active_leases") != float64(leases) || num(inv, "leases.leased_hosts") != float64(hosts) {
		s.t.Fatalf("GET /v1/platform leases %v, want %d leases over %d hosts", at(inv, "leases"), leases, hosts)
	}
	return inv
}

// serve pins the spec golden, the telemetry round trip, and the closed
// selection loop's depth-1 fallback.
func serve(t *testing.T, s *server) {
	const traceID = "cafe0000cafe0000cafe0000cafe0000"
	req, err := http.NewRequest("POST", s.url+"/v1/spec", bytes.NewReader(specReq))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/spec: status %d (%v): %s", resp.StatusCode, err, spec)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != traceID {
		t.Errorf("X-Trace-Id %q, want the inbound traceparent's %q", got, traceID)
	}
	if !bytes.Equal(spec, golden) {
		t.Fatalf("/v1/spec diverged from cmd/rsgend/testdata/fig_iii2_spec.golden.json; got:\n%s", spec)
	}

	call(t, "POST", s.url+"/v1/select", string(selectReq), 412, nil)
	register(s, 24, 2003, 7)
	// No 2003 cluster reaches the 2.8 GHz optimal rung: the broker must fall
	// back to the 2.0 GHz alternative and say so.
	var sel any
	h := call(t, "POST", s.url+"/v1/select", string(selectReq), 200, &sel)
	if !strings.HasPrefix(str(sel, "lease_id"), "lease-") || num(sel, "fallback_depth") != 1 || num(sel, "max_clock_ghz") != 2.0 ||
		float64(len(list(sel, "hosts"))) != num(sel, "rc_size") || len(list(sel, "trace")) < 2 ||
		at(sel, "trace.0.rung") != 0.0 || str(sel, "trace.0.stage") != "select" || str(sel, "trace.0.error") == "" ||
		str(sel, "trace.-1.stage") != "bound" {
		t.Fatalf("/v1/select is not a depth-1 fallback with its rung trace: %v", sel)
	}
	if got := h.Get("X-Fallback-Depth"); got != "1" {
		t.Fatalf("X-Fallback-Depth %q, want 1", got)
	}
	occupied(s, 1, len(list(sel, "hosts")))
	release(s, str(sel, "lease_id"), 0)
	occupied(s, 0, 0)

	var tc any
	call(t, "GET", s.debug+"/debug/traces", "", 200, &tc)
	missing := map[string]bool{traceID + " decode": true}
	for _, span := range []string{"generate", "select", "lease", "bind"} {
		missing["POST /v1/select "+span] = true
	}
	for _, r := range list(tc, "recent") {
		for _, sp := range list(r, "spans") {
			delete(missing, str(r, "id")+" "+str(sp, "name"))
			delete(missing, str(r, "name")+" "+str(sp, "name"))
		}
	}
	if num(tc, "held") < 1 || len(missing) > 0 {
		t.Fatalf("/debug/traces holds %v traces and lacks the spans %v", num(tc, "held"), missing)
	}
}

// crash SIGKILLs a server holding a lease and requires the lease, the
// inventory and the hosts' mask back, then a drain that folds the WAL into
// one snapshot.
func crash(t *testing.T, s *server) {
	register(s, 24, 2003, 7)
	sel := bind(s, string(selectReq))
	s.crash()
	if st := at(s.get("/healthz"), "store"); at(st, "durable") != true || at(st, "inventory_recovered") != true || num(st, "leases_recovered") != 1 {
		t.Fatalf("/healthz store after the crash: %v", st)
	}
	if inv := occupied(s, 1, len(list(sel, "hosts"))); num(inv, "clusters") != 24 || num(inv, "generation") != 1 {
		t.Fatalf("recovered inventory %v, want 24 clusters at generation 1", inv)
	}
	s.metrics(`rsgend_store_recovery_leases_recovered 1$`)
	release(s, str(sel, "lease_id"), 0)
	occupied(s, 0, 0)

	s.stop()
	if fi, err := os.Stat(filepath.Join(s.dir, "state", "snapshot.db")); err != nil || fi.Size() == 0 {
		t.Fatalf("no snapshot after the drain: %v", err)
	}
	if fi, err := os.Stat(filepath.Join(s.dir, "state", "wal.log")); err == nil && fi.Size() > 0 {
		t.Fatalf("WAL holds %d bytes after the drain, want none", fi.Size())
	}
	s.start()
	if st := at(s.get("/healthz"), "store"); at(st, "durable") != true || at(st, "snapshot_loaded") != true ||
		num(st, "records_replayed") != 0 || at(st, "inventory_recovered") != true {
		t.Fatalf("/healthz store after the drained restart: %v", st)
	}
}

// churn takes down every host under a lease through the event stream,
// requires the reconciler's transparent rebind down the spec ladder, and
// then the post-rebind lease, and only it, back after a SIGKILL.
func churn(t *testing.T, s *server) {
	register(s, 24, 2003, 7)
	sel := bind(s, string(selectReq))
	id, hosts := str(sel, "lease_id"), list(sel, "hosts")
	if st := s.get("/v1/select/" + id); str(st, "status") != "bound" || str(st, "current_lease_id") != id {
		t.Fatalf("fresh session: %v", st)
	}
	var events []string
	for _, h := range hosts {
		events = append(events, fmt.Sprintf(`{"type": "leave", "host": %v}`, h))
	}
	if ing := s.post("/v1/platform/events", `{"events": [`+strings.Join(events, ", ")+`]}`); num(ing, "ingested") < 1 {
		t.Fatalf("no event ingested: %v", ing)
	}
	st := s.get("/v1/select/" + id)
	for i := 0; str(st, "status") != "rebound"; i++ {
		if i == 50 {
			t.Fatalf("session never rebound: %v", st)
		}
		time.Sleep(200 * time.Millisecond)
		st = s.get("/v1/select/" + id)
	}
	cur := str(st, "current_lease_id")
	if cur == id || num(st, "rung") < 1 || len(list(st, "rebinds")) < 1 || str(st, "rebinds.-1.from") != id || num(st, "rebinds.-1.rung") < 1 {
		t.Fatalf("rebind did not land on a fallback rung: %v", st)
	}
	for _, h := range list(st, "hosts") {
		if slices.Contains(hosts, h) {
			t.Fatalf("rebound lease reuses downed host %v: %v", h, st)
		}
	}
	if via := s.get("/v1/select/" + cur); str(via, "lease_id") != id || str(via, "status") != "rebound" {
		t.Fatalf("current lease ID does not resolve to the session: %v", via)
	}
	if hz := s.get("/healthz"); num(hz, "leases.active_leases") != 1 || num(hz, "reconcile.tracked_sessions") != 1 ||
		num(hz, "reconcile.active_exclusions") < 1 {
		t.Fatalf("/healthz leases %v, reconcile %v", at(hz, "leases"), at(hz, "reconcile"))
	}
	s.metrics(`rsgend_reconcile_rebinds_total [1-9]`, `rsgend_reconcile_rebind_depth_total\{depth="[1-9]"\} [1-9]`)
	var tc any
	call(t, "GET", s.debug+"/debug/traces", "", 200, &tc)
	if !slices.ContainsFunc(append(list(tc, "recent"), list(tc, "slowest")...), func(r any) bool { return str(r, "name") == "reconcile" }) {
		t.Fatalf("no reconcile trace in /debug/traces: %v", tc)
	}

	s.crash()
	// The session ladder is not persisted: the status endpoint serves the
	// broker's recovered view, which must hold the replacement alone.
	call(t, "GET", s.url+"/v1/select/"+id, "", 404, nil)
	if rec := s.get("/v1/select/" + cur); str(rec, "status") != "bound" || str(rec, "current_lease_id") != cur || len(list(rec, "hosts")) < 1 {
		t.Fatalf("post-rebind lease not recovered: %v", rec)
	}
	release(s, cur, 0)
	occupied(s, 0, 0)
}

// advise asks for the Pareto front over a priced inventory, requires it
// mutually non-dominated, and round-trips a backend=moga lease.
func advise(t *testing.T, s *server) {
	if hz := s.get("/healthz"); !slices.Contains(list(hz, "selector_backends"), any("moga")) {
		t.Fatalf("moga missing from selector_backends %v", at(hz, "selector_backends"))
	}
	register(s, 16, 2006, 3)
	adv := s.post("/v1/advise", with(specReq, `"search": {"seed": 9}`))
	front := list(adv, "front")
	if str(adv, "backend") != "moga" || num(adv, "front_size") < 2 || float64(len(front)) != num(adv, "front_size") {
		t.Fatalf("advise returned no usable front: %v", adv)
	}
	// Dominance is written out here rather than taken from package moga, so
	// a bug there cannot hide itself.
	for i, a := range front {
		for j, b := range front {
			noWorse, better := true, false
			for _, o := range []string{"turn_around_seconds", "cost_usd", "power_watts", "fragmentation"} {
				x, y := num(a, "objectives."+o), num(b, "objectives."+o)
				noWorse, better = noWorse && x <= y, better || x < y
			}
			if i != j && noWorse && better {
				t.Fatalf("front member %d %v dominates member %d %v", i, at(a, "objectives"), j, at(b, "objectives"))
			}
		}
	}
	occupied(s, 0, 0)
	sel := bind(s, with(specReq, `"backends": ["moga"]`))
	if str(sel, "backend") != "moga" || float64(len(list(sel, "hosts"))) != num(sel, "rc_size") {
		t.Fatalf("backend=moga select: %v", sel)
	}
	release(s, str(sel, "lease_id"), 0)
	occupied(s, 0, 0)
	s.metrics(`rsgend_moga_searches_total [2-9]`)
}

// accuracy binds, SIGKILLs and restarts, and requires the release to score
// a complete observation; then feeds a 4x-slow stream until drift latches.
func accuracy(t *testing.T, s *server) {
	register(s, 24, 2003, 7)
	// promise binds a lease and returns its ID and promised turn-around.
	promise := func() (string, float64) {
		sel := bind(s, string(selectReq))
		if num(sel, "predicted_turn_around_seconds") <= 0 || at(sel, "bound_at") == nil {
			t.Fatalf("select lacks its prediction annotations: %v", sel)
		}
		return str(sel, "lease_id"), num(sel, "predicted_turn_around_seconds")
	}
	id, predicted := promise()
	s.crash()
	release(s, id, 120.5)

	var obs []any
	for _, o := range list(s.get("/v1/observations"), "observations") {
		if str(o, "lease_id") == id {
			obs = append(obs, o)
		}
	}
	if len(obs) != 1 || str(obs[0], "end_reason") != "released" || num(obs[0], "predicted_seconds") != predicted ||
		num(obs[0], "observed_seconds") != 120.5 || len(str(obs[0], "trace_id")) != 32 || len(str(obs[0], "fingerprint")) != 16 {
		t.Fatalf("observation of %s (promised %vs) incomplete after the crash: %v", id, predicted, obs)
	}
	s.metrics("rsgend_accuracy_observations_total", "rsgend_accuracy_scored_total",
		"rsgend_accuracy_log_error_ewma", "rsgend_accuracy_abs_log_error", "rsgend_model_drift 0")
	logged, err := os.ReadFile(filepath.Join(s.dir, "observations", "observations.jsonl"))
	if err != nil || !bytes.Contains(logged, []byte(`"lease_id":"`+id+`"`)) {
		t.Fatalf("observation log lacks %s (%v):\n%s", id, err, logged)
	}

	for range 10 {
		id, predicted := promise()
		release(s, id, predicted)
	}
	drifted := regexp.MustCompile(`(?m)^rsgend_model_drift 1`)
	for i := 0; !drifted.Match(s.metrics()); i++ {
		if i == 30 {
			t.Fatal("rsgend_model_drift never latched under a 4x-slow stream")
		}
		id, predicted := promise()
		release(s, id, 4*predicted)
	}
	if acc := at(s.get("/healthz"), "accuracy"); at(acc, "drift") != true || num(acc, "scored") < 11 {
		t.Fatalf("/healthz accuracy %v, want latched drift over >= 11 scored", acc)
	}
}
