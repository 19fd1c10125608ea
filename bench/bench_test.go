package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rsgen/internal/dag"
)

// These tests need no server and run with the repository's tier-1 suite.

func TestCorpusIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		if w.Name == wlSpecSingle {
			continue // covered, at full size, by TestSpecSingleOrderThrashesTheCache
		}
		a, err := buildCorpus(w.Name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildCorpus(w.Name, 7)
		c, _ := buildCorpus(w.Name, 8)
		if a.hash() != b.hash() {
			t.Errorf("%s: same seed gave different corpora", w.Name)
		}
		for i := range a.bodies {
			if !bytes.Equal(a.bodies[i], b.bodies[i]) {
				t.Fatalf("%s: body %d differs between two builds of seed 7", w.Name, i)
			}
		}
		if a.hash() == c.hash() {
			t.Errorf("%s: seeds 7 and 8 gave the same corpus", w.Name)
		}
	}
}

func TestSpecBatchMix(t *testing.T) {
	c, err := buildCorpus(wlSpecBatch, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.bodies) != batchBodies {
		t.Fatalf("%d bodies, want %d", len(c.bodies), batchBodies)
	}
	originals := make(map[string]bool)
	for _, d := range c.dags {
		originals[string(d)] = true
	}
	unique, shape, dup := 0, 0, 0
	for _, members := range c.memberDAGs {
		if len(members) != batchMembers {
			t.Fatalf("body has %d members, want %d", len(members), batchMembers)
		}
		seen := make(map[string]bool)
		for _, m := range members {
			switch {
			case seen[string(m)]:
				dup++
			case originals[string(m)]:
				unique++
			default:
				shape++
			}
			seen[string(m)] = true
		}
	}
	total := float64(batchBodies * batchMembers)
	for _, k := range []struct {
		name      string
		got, want float64
	}{{"unique", float64(unique), 1. / 20}, {"shape-duplicate", float64(shape), 12. / 20}, {"byte-duplicate", float64(dup), 7. / 20}} {
		if share := k.got / total; math.Abs(share-k.want) > 0.03 {
			t.Errorf("%s share %.3f, want %.3f +- 0.03", k.name, share, k.want)
		}
	}
}

// The spec_single order must defeat the response cache: against a model of
// the server's 1024-entry LRU, storing an exact and a shape key per request
// as resolveSpec does, no request of any cycle may hit.
func TestSpecSingleOrderThrashesTheCache(t *testing.T) {
	c, err := buildCorpus(wlSpecSingle, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Determinism at a size that keeps the test quick; the generator is the
	// same code at every size.
	small3, _ := buildSpecSingle(3, 8, singleTasks)
	again3, _ := buildSpecSingle(3, 8, singleTasks)
	small4, _ := buildSpecSingle(4, 8, singleTasks)
	if small3.hash() != again3.hash() || small3.hash() == small4.hash() {
		t.Fatal("spec_single corpus is not a function of the seed alone")
	}
	if len(c.bodies) != singleDAGs || 2*singleDAGs <= serverCacheCap {
		t.Fatalf("%d shapes x 2 keys must exceed the %d-entry cache", len(c.bodies), serverCacheCap)
	}
	type keys struct{ exact, shape string }
	ks := make([]keys, len(c.dags))
	distinct := make(map[string]bool)
	for i, raw := range c.dags {
		d, err := dag.Decode(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if d.Size() != singleTasks {
			t.Fatalf("dag %d has %d tasks, want %d", i, d.Size(), singleTasks)
		}
		ks[i] = keys{fmt.Sprintf("%016x", d.Fingerprint()), fmt.Sprintf("shape|%016x", d.NormalFingerprint())}
		distinct[ks[i].shape] = true
	}
	if len(distinct) != len(ks) {
		t.Fatalf("%d distinct shapes among %d DAGs", len(distinct), len(ks))
	}
	lru := newLRUModel(serverCacheCap)
	for cycle := 0; cycle < 3; cycle++ {
		for i, k := range ks {
			if lru.get(k.exact) || lru.get(k.shape) {
				t.Fatalf("cycle %d request %d hit the cache model", cycle, i)
			}
			lru.put(k.shape)
			lru.put(k.exact)
		}
	}
	// The model itself must be an LRU, or the property above is vacuous.
	small := newLRUModel(2)
	small.put("a")
	small.put("b")
	small.get("a")
	small.put("c")
	if !small.get("a") || small.get("b") || !small.get("c") {
		t.Error("LRU model evicted the wrong key")
	}
}

func TestPromDeltaParser(t *testing.T) {
	before, err := parseProm(strings.NewReader(`# TYPE rsgend_requests_total counter
rsgend_requests_total{path="/v1/spec",code="200"} 10
rsgend_requests_total{path="/v1/spec",code="400"} 1
# TYPE rsgend_stage_duration_seconds histogram
rsgend_stage_duration_seconds_bucket{stage="decode",le="0.001"} 4
rsgend_stage_duration_seconds_bucket{stage="decode",le="+Inf"} 10
rsgend_stage_duration_seconds_sum{stage="decode"} 0.5
rsgend_stage_duration_seconds_count{stage="decode"} 10
rsgend_store_wal_records_total 900
rsgend_go_goroutines 9
`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(`rsgend_requests_total{path="/v1/spec",code="200"} 25
rsgend_requests_total{path="/v1/spec",code="400"} 1
rsgend_requests_total{path="/v1/select",code="200"} 3
rsgend_stage_duration_seconds_sum{stage="decode"} 2
rsgend_stage_duration_seconds_count{stage="decode"} 40
rsgend_store_wal_records_total 7
rsgend_go_goroutines 8
rsgend_odd{note="a b, \"quoted\" \\ slash"} 1.5e-3
`))
	if err != nil {
		t.Fatal(err)
	}
	d := deltaScrape(before, after)
	for key, want := range map[string]float64{
		`rsgend_requests_total{path="/v1/spec",code="200"}`:    15,
		`rsgend_requests_total{path="/v1/spec",code="400"}`:    0,
		`rsgend_requests_total{path="/v1/select",code="200"}`:  3, // new series counts from zero
		`rsgend_stage_duration_seconds_sum{stage="decode"}`:    1.5,
		`rsgend_stage_duration_seconds_count{stage="decode"}`:  30,
		`rsgend_store_wal_records_total`:                       7, // went down: the process restarted
		`rsgend_odd{note="a b, \"quoted\" \\ slash"}`:          0.0015,
		`rsgend_absent_total`:                                  0,
		`rsgend_stage_duration_seconds_sum{stage="generate"}`:  0,
		`rsgend_stage_duration_seconds_count{stage="members"}`: 0,
	} {
		if got := d.get(key); math.Abs(got-want) > 1e-12 {
			t.Errorf("delta %s = %v, want %v", key, got, want)
		}
	}
	if got := d.sum("rsgend_requests_total", func(l map[string]string) bool { return l["code"] == "200" }); got != 18 {
		t.Errorf("sum of 200s = %v, want 18", got)
	}
	var odd map[string]string
	for _, s := range after.samples {
		if s.Name == "rsgend_odd" {
			odd = s.Labels
		}
	}
	if odd["note"] != `a b, "quoted" \ slash` {
		t.Errorf("escaped label parsed as %q", odd["note"])
	}
	if _, err := parseProm(strings.NewReader("rsgend_x{a=\"b\" 1\n")); err == nil {
		t.Error("unterminated label set accepted")
	}
	if _, err := parseProm(strings.NewReader("rsgend_x one\n")); err == nil {
		t.Error("non-numeric value accepted")
	}
}

func TestProcParsers(t *testing.T) {
	// Field 2 may hold spaces and parentheses; utime=250 stime=50 ticks.
	line := "4242 (rsgend (v2) x) S 1 4242 4242 0 -1 4194560 1000 0 0 0 250 50 0 0 20 0 9 0 100 1 2 3"
	cpu, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if cpu != 3*time.Second {
		t.Errorf("cpu = %v, want 3s (300 ticks at %d Hz)", cpu, clockTick)
	}
	if _, err := parseProcStat("4242 (rsgend) S 1 2"); err == nil {
		t.Error("short stat line accepted")
	}
	if _, err := parseProcStat("no command field"); err == nil {
		t.Error("stat line without a command accepted")
	}
	hwm, err := parseVmHWM([]byte("Name:\trsgend\nVmPeak:\t  900000 kB\nVmHWM:\t   57344 kB\nVmRSS:\t   40000 kB\n"))
	if err != nil {
		t.Fatal(err)
	}
	if hwm != 57344<<10 {
		t.Errorf("VmHWM = %d, want %d", hwm, 57344<<10)
	}
	if _, err := parseVmHWM([]byte("Name:\trsgend\n")); err == nil {
		t.Error("status without VmHWM accepted")
	}
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Errorf("own /proc stat: %v", err)
	}
	if rss, err := procPeakRSS(os.Getpid()); err != nil || rss <= 0 {
		t.Errorf("own VmHWM: %d, %v", rss, err)
	}
}

func TestPercentileNeedsSamplesBeyondIt(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, err := percentile(xs, 95); err != nil || v != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190 (10 beyond)", v, err)
	}
	if _, err := percentile(xs[:199], 95); err == nil {
		t.Error("p95 of 199 samples leaves 9 beyond and must be refused")
	}
	if _, err := percentile(xs, 99); err == nil {
		t.Error("p99 of 200 samples leaves 2 beyond and must be refused")
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("percentile of nothing accepted")
	}
	if q, v := highestPercentile(xs, 99, 95, 90); q != 95 || v != 190 {
		t.Errorf("highest supported percentile = p%v (%v), want p95 (190)", q, v)
	}
	if q, v := highestPercentile(xs[:15], 99, 95); q != 50 || v != 8 {
		t.Errorf("fallback = p%v (%v), want the median 8", q, v)
	}
	// quartiles must agree with Python's statistics.quantiles(n=4).
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40}, // overlaps 3 on [30,40)
		{ID: 3, Parent: 1, Start: 30, End: 60},
		{ID: 4, Parent: 1, Start: 35, End: 38},  // wholly inside the union of 2 and 3
		{ID: 5, Parent: 1, Start: 90, End: 120}, // runs past its parent: clipped at 100
		{ID: 6, Parent: 3, Start: 40, End: 50},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{
		1: 100 - 50 - 10, // children cover [10,60) and [90,100)
		2: 30, 3: 30 - 10, 4: 3, 5: 30, 6: 10,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}

	r := newRecorder()
	r.nextOp()
	r.in("outer", func() { r.in("inner", func() {}) })
	if len(r.spans) != 2 || r.spans[1].Parent != r.spans[0].ID || r.spans[0].Parent != 0 || r.spans[1].Op != 1 {
		t.Errorf("recorder nesting wrong: %+v", r.spans)
	}
	if r.spans[0].End < r.spans[1].End || r.spans[1].Start < r.spans[0].Start {
		t.Errorf("inner span not within outer: %+v", r.spans)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: mP50, Better: "lower"}
	higher := metricSpec{Name: mOps, Better: "higher"}
	steady := []float64{100, 101, 99, 100, 100.5}
	for _, c := range []struct {
		name     string
		m        metricSpec
		bound    float64
		old, new []float64
		want     string
	}{
		{"same", lower, 0.10, steady, steady, vOK},
		{"8% slower, inside the bound", lower, 0.10, steady, []float64{108, 109, 107, 108, 108}, vOK},
		{"20% slower", lower, 0.10, steady, []float64{120, 121, 119, 120, 122}, vRegressed},
		{"20% fewer ops", higher, 0.10, steady, []float64{80, 81, 79, 80, 80}, vRegressed},
		{"20% more ops", higher, 0.10, steady, []float64{120, 121, 119, 120, 122}, vImproved},
		{"noise wider than the bound", lower, 0.10, []float64{80, 100, 120, 90, 115}, []float64{85, 104, 118, 95, 110}, vUnresolved},
		{"noisy but every run worse", lower, 0.10, []float64{80, 100, 120, 90, 115}, []float64{150, 170, 190, 160, 185}, vRegressed},
		{"noisy median past the bound, runs interleave", lower, 0.10, []float64{80, 100, 120, 90, 115}, []float64{95, 118, 140, 119, 125}, vUnresolved},
		{"failures appear", failedShare, 0, []float64{0, 0, 0}, []float64{0, 0.01, 0.01}, vRegressed},
		{"no failures either side", failedShare, 0, []float64{0, 0, 0}, []float64{0, 0, 0}, vOK},
	} {
		if got := judge(c.m, c.bound, c.old, c.new).Verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFilesExitCode(t *testing.T) {
	dir := t.TempDir()
	doc := func(p50 float64) string {
		d := newResultDoc(1, 20, false, dir)
		for i := 0; i < 5; i++ {
			d.add(wlSpecSingle, &workloadRun{EndToEnd: metricSet{mP50: p50 * (1 + 0.002*float64(i)), mOps: 200, mFailShare: 0}})
		}
		path := filepath.Join(dir, fmt.Sprintf("r%g.json", p50))
		if err := d.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := doc(4), doc(4.1), doc(6)
	pooled, err := readSide(base + "," + same)
	if err != nil || len(pooled.Workloads[wlSpecSingle].Runs) != 10 {
		t.Fatalf("pooling two documents of 5 runs: %v, %+v", err, pooled)
	}
	var out bytes.Buffer
	if code := compareFiles(&out, base, same); code != 0 {
		t.Errorf("2.5%% slower exits %d, want 0:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, base, slow); code != 1 || !strings.Contains(out.String(), vRegressed) {
		t.Errorf("50%% slower exits %d, want 1 with a %s row:\n%s", code, vRegressed, out.String())
	}
}

// BENCHMARK.json must list exactly the workloads and metrics the code emits.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, code runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d is %+v, code says %+v", i, doc.Workloads[i], w)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, code emits %d", len(doc.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range endToEnd {
		got := doc.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end metric %d is %+v, code says %+v", i, got, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == mSetup && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(doc.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics listed, code emits %d (limit 128)", len(doc.PerLayer), len(perLayer))
	}
	names := make(map[string]bool)
	for i, m := range perLayer {
		got := doc.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer metric %d is %+v, code says %+v", i, got, m)
		}
		if names[m.Name] || len(m.Name) > 64 || len(m.Unit) > 16 {
			t.Errorf("per-layer metric %q: duplicate or over-long name or unit", m.Name)
		}
		names[m.Name] = true
	}
	for _, m := range endToEnd {
		if names[m.Name] {
			t.Errorf("%s is both an end-to-end and a per-layer name", m.Name)
		}
	}
}
