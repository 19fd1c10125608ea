package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir holds everything the benchmark writes: the rsgend binary, the
// trained model artefact, and per-run server state. It sits at the checkout
// root (ignored by git), never inside the benchmark's own directory.
const buildDir = ".bench_build"

// Training parameters of the one model artefact every workload serves.
const (
	trainScale = "quick"
	trainSeed  = 1
)

// artefacts are the one-off products a run needs before any server boots.
type artefacts struct {
	binary string // absolute path of the rsgend binary
	models string // absolute path of the trained model artefact
	buildS float64
	trainS float64
}

// prepareArtefacts builds rsgend from the checkout's source on every run (a
// no-op relink when nothing changed; no VCS stamp, so the same source gives
// the same bytes) and trains the quick-scale models once per binary: the
// artefact is keyed by the binary's hash, so a source change retrains instead
// of serving stale models. What the training cost is remembered beside the
// artefact, so a run that found it cached still reports bench.train_s.
func prepareArtefacts() (*artefacts, error) {
	if _, err := os.Stat("go.mod"); err != nil {
		return nil, errors.New("run from the repository root: no go.mod here, cannot build ./cmd/rsgend")
	}
	root, err := filepath.Abs(buildDir)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	a := &artefacts{binary: filepath.Join(root, "rsgend")}
	start := time.Now()
	if out, err := exec.Command("go", "build", "-buildvcs=false", "-o", a.binary, "./cmd/rsgend").CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/rsgend: %v\n%s", err, out)
	}
	a.buildS = time.Since(start).Seconds()

	bin, err := os.ReadFile(a.binary)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(bin)
	key := hex.EncodeToString(sum[:6])
	a.models = filepath.Join(root, fmt.Sprintf("models-%s-seed%d-%s.json", trainScale, trainSeed, key))
	cost := a.models + ".train_s"
	if _, err := os.Stat(a.models); err != nil {
		tmp := a.models + ".tmp"
		start := time.Now()
		cmd := exec.Command(a.binary, "-train", "-models", tmp, "-scale", trainScale, "-seed", fmt.Sprint(trainSeed))
		if out, err := cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("rsgend -train: %v\n%s", err, out)
		}
		if err := os.WriteFile(cost, []byte(fmt.Sprint(time.Since(start).Seconds())), 0o644); err != nil {
			return nil, err
		}
		if err := os.Rename(tmp, a.models); err != nil {
			return nil, err
		}
	}
	if b, err := os.ReadFile(cost); err == nil {
		fmt.Sscan(string(b), &a.trainS)
	}
	return a, nil
}

// server is one running rsgend process under the production configuration.
type server struct {
	cmd     *exec.Cmd
	url     string
	dir     string // holds state/, obs/ and rsgend.log; survives a restart
	logPath string
	exited  chan struct{} // closed once Wait has returned
	waitErr error
	bootMS  float64 // exec → /healthz 200
}

var listenRE = regexp.MustCompile(`listening on (http://\S+)`)

// live tracks the servers that are running, so an interrupted benchmark can
// take them down with it instead of leaving them on the box.
var live struct {
	sync.Mutex
	servers map[*server]bool
}

func killLiveServers() {
	live.Lock()
	defer live.Unlock()
	for s := range live.servers {
		_ = s.cmd.Process.Kill()
	}
}

// startServer boots rsgend on an ephemeral port over stateDir/obsDir and
// waits for /healthz. Every flag not listed is the binary's default.
func startServer(a *artefacts, dir string) (*server, error) {
	s := &server{
		dir:     dir,
		logPath: filepath.Join(dir, "rsgend.log"),
		exited:  make(chan struct{}),
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(s.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	mark, _ := logf.Seek(0, io.SeekEnd)

	s.cmd = exec.Command(a.binary,
		"-models", a.models, "-addr", "127.0.0.1:0",
		"-state-dir", filepath.Join(dir, "state"), "-obs-dir", filepath.Join(dir, "obs"), "-log-level", "warn")
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	live.Lock()
	if live.servers == nil {
		live.servers = make(map[*server]bool)
	}
	live.servers[s] = true
	live.Unlock()
	go func() {
		s.waitErr = s.cmd.Wait()
		live.Lock()
		delete(live.servers, s)
		live.Unlock()
		close(s.exited)
	}()

	deadline := time.Now().Add(30 * time.Second)
	for s.url == "" {
		select {
		case <-s.exited:
			return nil, fmt.Errorf("rsgend exited before listening: %v\n%s", s.waitErr, tail(s.logPath))
		default:
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("rsgend never reported its address\n%s", tail(s.logPath))
		}
		b, _ := os.ReadFile(s.logPath)
		if int64(len(b)) > mark {
			if m := listenRE.FindSubmatch(b[mark:]); m != nil {
				s.url = string(m[1])
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	for {
		resp, err := http.Get(s.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("rsgend never became healthy\n%s", tail(s.logPath))
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.bootMS = float64(time.Since(start).Microseconds()) / 1000
	return s, nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop drains the server with SIGTERM and waits for it to exit 0.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
		if s.waitErr != nil {
			return fmt.Errorf("rsgend exit after SIGTERM: %v\n%s", s.waitErr, tail(s.logPath))
		}
		return nil
	case <-time.After(20 * time.Second):
		s.kill()
		return errors.New("rsgend did not drain within 20s of SIGTERM")
	}
}

// kill is the crash: SIGKILL, then wait until the process is gone.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.exited
}

func tail(path string) string {
	b, _ := os.ReadFile(path)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// client is the generator's HTTP side: one transport shared by the closed-loop
// clients, sized so each keeps its own connection alive.
type client struct {
	base string
	http *http.Client
}

func newClient(base string, conns int) *client {
	return &client{base: base, http: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
		},
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and returns status, headers and the whole body.
func (c *client) do(method, path string, body []byte) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, out, err
}

func (c *client) post(path string, body []byte) (int, http.Header, []byte, error) {
	return c.do(http.MethodPost, path, body)
}

// postOK posts and insists on a 200.
func (c *client) postOK(path string, body []byte) ([]byte, error) {
	code, _, out, err := c.post(path, body)
	if err != nil {
		return nil, fmt.Errorf("POST %s: %w", path, err)
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %s", path, code, truncate(out))
	}
	return out, nil
}

func (c *client) scrape() (*scrape, error) {
	code, _, out, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", code)
	}
	return parseProm(bytes.NewReader(out))
}

func truncate(b []byte) string {
	if len(b) > 300 {
		return string(b[:300]) + "…"
	}
	return string(b)
}

// registerPlatform installs the synthetic inventory every workload runs
// against: 200 clusters of the 2007 clock mix.
func registerPlatform(c *client) error {
	body := fmt.Sprintf(`{"generate":{"clusters":%d,"year":%d,"seed":%d}}`, platformClusters, platformYear, platformSeed)
	code, _, out, err := c.do(http.MethodPut, "/v1/platform", []byte(body))
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("PUT /v1/platform: status %d: %s", code, truncate(out))
	}
	return nil
}

// The inventory is part of the server's configuration, like the model
// artefact, and is the same for every benchmark seed: cluster sizes are
// log-normal, so the host count — and with it selection cost, memory and
// set-up time — would otherwise swing by a third from seed to seed.
const (
	platformClusters = 200
	platformYear     = 2007
	platformSeed     = 1
)

// runDirs hands out a fresh directory under buildDir per server boot and
// removes them all at the end of the run.
type runDirs struct {
	root string
	n    int
}

func newRunDirs() (*runDirs, error) {
	root, err := filepath.Abs(filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	return &runDirs{root: root}, nil
}

func (r *runDirs) next() string {
	r.n++
	return filepath.Join(r.root, fmt.Sprintf("srv%d", r.n))
}

func (r *runDirs) cleanup() { _ = os.RemoveAll(r.root) }
