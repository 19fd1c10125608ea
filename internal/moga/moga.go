// Package moga implements a multi-objective (NSGA-II-style) selection
// backend: instead of scoring host subsets on predicted turn-around alone
// like the vgdl/classad/sword selectors, it searches the space of RCSize-host
// subsets under four simultaneous objectives — predicted turn-around via the
// real scheduling path, dollar cost from the platform's VM catalog, power
// draw, and lease fragmentation (clusters spanned) — and returns a ranked
// Pareto front. The broker binds the knee point and walks the remaining
// rungs of the front on rebind; /v1/advise returns the whole front as a
// what-if answer without taking a lease.
//
// The search is deterministic under a fixed Config.Seed: population
// initialization, tournament selection, crossover and mutation all draw from
// one xrand stream, every sort uses total tie-breakers, and no map iteration
// order leaks into results. Budgets are hard: at most Config.Generations
// generations and Config.MaxEvaluations unique objective evaluations, with
// context cancellation checked every generation.
//
// Each generation runs breed → score → select. Breeding is sequential on the
// one stream and never reads a child's objectives: duplicates, memo hits and
// the evaluation budget are all resolved by genome key. Scoring — a pure
// function of the genome — then runs over the generation's new genomes
// across Config.Workers goroutines, and selection sees the same scores in
// the same order a serial loop would. The Result is therefore identical for
// every worker count; Workers = 1 is the same code on one goroutine.
package moga

import (
	"cmp"
	"context"
	"errors"
	"math"
	"runtime"
	"slices"

	"rsgen/internal/dag"
	"rsgen/internal/eval"
	"rsgen/internal/platform"
	"rsgen/internal/sched"
	"rsgen/internal/spec"
	"rsgen/internal/xrand"
)

// Defaults for zero-valued Config fields.
const (
	DefaultPopSize     = 32
	DefaultGenerations = 24
)

// ErrNoEligibleHosts reports that the exclusion mask and memory floor leave
// no host to build a solution from.
var ErrNoEligibleHosts = errors.New("moga: no eligible hosts")

// Config bounds one search.
type Config struct {
	// PopSize is the population size; 0 means DefaultPopSize.
	PopSize int
	// Generations is the generation budget; 0 means DefaultGenerations.
	Generations int
	// MaxEvaluations caps unique objective evaluations (schedule runs);
	// 0 means PopSize × (Generations + 1).
	MaxEvaluations int
	// Seed drives the deterministic search stream; 0 means 1.
	Seed uint64
	// Workers bounds the goroutines that score a generation's new genomes;
	// 0 means GOMAXPROCS. It decides only when a genome is scored, never
	// what the search returns.
	Workers int
	// Stats, when non-nil, accumulates counters across searches (exposed
	// as rsgend_moga_* metrics by the service).
	Stats *Stats
}

func (c Config) withDefaults() Config {
	if c.PopSize <= 0 {
		c.PopSize = DefaultPopSize
	}
	if c.Generations <= 0 {
		c.Generations = DefaultGenerations
	}
	if c.MaxEvaluations <= 0 {
		c.MaxEvaluations = c.PopSize * (c.Generations + 1)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Problem is one search instance.
type Problem struct {
	Platform *platform.Platform
	// Spec supplies the subset size (RCSize), the memory floor and the
	// scheduling heuristic. The clock range is deliberately not enforced:
	// trading slower-but-cheaper hosts against faster-but-pricier ones is
	// the point of the multi-objective search.
	Spec *spec.Specification
	// Dag, when non-nil, makes turn-around the real schedule prediction
	// (sched.Heuristic over SubsetRC). When nil — the plain Selector path,
	// which does not carry the DAG — a perfectly-parallel work proxy is
	// used: relative ordering by aggregate speedup, one instance-hour of
	// cost per host.
	Dag *dag.DAG
	// Excluded hosts never appear in any solution.
	Excluded map[platform.HostID]bool
}

// Objectives is one solution's score vector; every axis is minimized.
type Objectives struct {
	TurnAroundSeconds float64 `json:"turn_around_seconds"`
	CostUSD           float64 `json:"cost_usd"`
	PowerWatts        float64 `json:"power_watts"`
	// Fragmentation is the number of clusters the solution spans.
	Fragmentation float64 `json:"fragmentation"`
}

func (o Objectives) vector() [4]float64 {
	return [4]float64{o.TurnAroundSeconds, o.CostUSD, o.PowerWatts, o.Fragmentation}
}

// axis returns vector()[a] without copying the vector.
func (o *Objectives) axis(a int) float64 {
	switch a {
	case 0:
		return o.TurnAroundSeconds
	case 1:
		return o.CostUSD
	case 2:
		return o.PowerWatts
	}
	return o.Fragmentation
}

// Dominates reports Pareto dominance: no axis worse, at least one strictly
// better.
func (o Objectives) Dominates(b Objectives) bool { return dominance(&o, &b) > 0 }

// dominance compares a and b axis by axis once and reports both directions
// of Pareto dominance: 1 when a dominates b, -1 when b dominates a, 0 when
// neither does. An axis that compares neither less nor greater (equal, or
// NaN) favours neither side.
func dominance(a, b *Objectives) int {
	lt := a.TurnAroundSeconds < b.TurnAroundSeconds || a.CostUSD < b.CostUSD ||
		a.PowerWatts < b.PowerWatts || a.Fragmentation < b.Fragmentation
	gt := a.TurnAroundSeconds > b.TurnAroundSeconds || a.CostUSD > b.CostUSD ||
		a.PowerWatts > b.PowerWatts || a.Fragmentation > b.Fragmentation
	switch {
	case lt && !gt:
		return 1
	case gt && !lt:
		return -1
	}
	return 0
}

// Solution is one point of the returned front.
type Solution struct {
	// Hosts is the selected subset, sorted by ID.
	Hosts []platform.HostID `json:"hosts"`
	Obj   Objectives        `json:"objectives"`
	// KneeDistance is the normalized Euclidean distance to the front's
	// ideal point; the front is sorted by it, so index 0 is the knee.
	KneeDistance float64 `json:"knee_distance"`
}

// Result is one completed search.
type Result struct {
	// Front is the first non-dominated front, knee-ranked: Front[0] is the
	// knee point, later entries are the fallback rungs the broker walks.
	Front []Solution
	// Evaluations is the number of unique objective evaluations spent.
	Evaluations int
	// Generations is the number of generations completed.
	Generations int
}

// Search runs one NSGA-II search and returns the knee-ranked Pareto front.
func Search(ctx context.Context, pr Problem, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	e, err := newEngine(pr, cfg)
	if err != nil {
		return nil, err
	}
	pop := e.initialPopulation()
	gens := 0
	for g := 0; g < cfg.Generations; g++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if e.evals >= cfg.MaxEvaluations {
			break
		}
		pop = e.step(pop)
		gens++
	}
	front := e.front(pop)
	res := &Result{Front: front, Evaluations: e.evals, Generations: gens}
	if cfg.Stats != nil {
		cfg.Stats.record(res)
	}
	return res, nil
}

// indiv is one population member: a sorted genome of indices into the
// eligible-host slice, its key, and its objectives once scored. slot is its
// index in engine.known.
type indiv struct {
	genome []int32
	key    string
	obj    Objectives
	slot   int32
}

// engine is one search: the problem, the stream, the memo of every genome
// bred so far, and all the scratch breeding, scoring and ranking need, so a
// search allocates per distinct genome and per generation, not per operation.
type engine struct {
	cfg Config
	p   *platform.Platform
	// plan is the specification's heuristic compiled for the problem's DAG
	// (nil without one): every scorer replays its one task order, which
	// lives exactly as long as the search.
	plan *sched.Plan
	elig []platform.HostID // eligible hosts, ascending ID
	k    int               // solution size
	rng  *xrand.RNG

	// usd and watts are HostHourlyUSD and HostWatts per eligible host.
	usd, watts []float64

	// known holds every distinct genome bred so far and memo its slot by
	// key. A genome is charged to evals the moment it enters known, while
	// breeding; its objectives are filled in afterwards by score. inGen
	// stamps the slots that are members of the generation being bred.
	known    []indiv
	memo     map[string]int32
	evals    int
	unscored []int32
	inGen    []uint32
	gen      uint32

	// scorers holds one scratch set per scoring goroutine.
	scorers chan *scorer

	// Breeding scratch: a stamped set over eligible indices, the child
	// being bred, the parents' symmetric difference, sample draws, the key
	// bytes, and the slab distinct genomes are copied into.
	mark        []uint32
	markStamp   uint32
	child, diff []int32
	draw        []int
	keyBuf      []byte
	slab        []int32

	rk    ranker
	order []int32 // survivors' sort permutation
	spare []indiv // the population buffer not in use this generation
}

// scorer is what one goroutine needs to score genomes: a k-host collection
// it re-points at each genome and a stamped set over platform clusters.
type scorer struct {
	rc        *platform.ResourceCollection
	inCluster []uint32
	stamp     uint32
}

func newEngine(pr Problem, cfg Config) (*engine, error) {
	sp := pr.Spec
	if sp == nil {
		return nil, errors.New("moga: nil specification")
	}
	p := pr.Platform
	elig := make([]platform.HostID, 0, len(p.Hosts))
	for _, h := range p.Hosts {
		if pr.Excluded[h.ID] {
			continue
		}
		if sp.MinMemoryMB > 0 && h.MemoryMB < sp.MinMemoryMB {
			continue
		}
		elig = append(elig, h.ID)
	}
	n := len(elig)
	if n == 0 {
		return nil, ErrNoEligibleHosts
	}
	k := sp.RCSize
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	e := &engine{
		cfg:   cfg,
		p:     p,
		elig:  elig,
		k:     k,
		rng:   xrand.NewFrom(cfg.Seed, 0x6d6f6761), // "moga"
		usd:   make([]float64, n),
		watts: make([]float64, n),
		memo:  map[string]int32{},
		mark:  make([]uint32, n),
		child: make([]int32, k),
	}
	for i, id := range elig {
		e.usd[i] = p.HostHourlyUSD(id)
		e.watts[i] = p.HostWatts(id)
	}
	if pr.Dag != nil {
		h, err := sched.ByName(sp.Heuristic)
		if err != nil {
			h, _ = sched.ByName("MCP")
		}
		e.plan = sched.Compile(h, pr.Dag)
	}
	workers := min(cfg.Workers, cfg.PopSize)
	e.scorers = make(chan *scorer, workers)
	for i := 0; i < workers; i++ {
		e.scorers <- &scorer{
			rc:        platform.SubsetRC(p, make([]platform.Host, k)),
			inCluster: make([]uint32, len(p.Clusters)),
		}
	}
	return e, nil
}

func appendKey(b []byte, g []int32) []byte {
	for _, v := range g {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return b
}

// admit sorts and keys a freshly bred genome (g is scratch) and appends it
// to dst unless the generation being bred already holds it. A genome never
// bred before is copied into known, charged to the evaluation budget and
// queued for scoring; one bred in an earlier generation comes back with the
// objectives it was given then.
func (e *engine) admit(dst []indiv, g []int32) []indiv {
	slices.Sort(g)
	e.keyBuf = appendKey(e.keyBuf[:0], g)
	slot, bred := e.memo[string(e.keyBuf)]
	switch {
	case !bred:
		if len(e.slab) < len(g) {
			e.slab = make([]int32, 64*len(g))
		}
		genome := e.slab[:len(g):len(g)]
		e.slab = e.slab[len(g):]
		copy(genome, g)
		slot = int32(len(e.known))
		key := string(e.keyBuf)
		e.known = append(e.known, indiv{genome: genome, key: key, slot: slot})
		e.inGen = append(e.inGen, 0)
		e.memo[key] = slot
		e.unscored = append(e.unscored, slot)
		e.evals++
	case e.inGen[slot] == e.gen:
		return dst
	}
	e.inGen[slot] = e.gen
	return append(dst, e.known[slot])
}

// scoreBred scores every genome bred since the last call across the scoring
// goroutines, then hands the members of bred their objectives.
func (e *engine) scoreBred(bred []indiv) {
	q := e.unscored
	eval.Fan(len(q), cap(e.scorers), func(i int) {
		sc := <-e.scorers
		iv := &e.known[q[i]]
		iv.obj = e.score(sc, iv.genome)
		e.scorers <- sc
	})
	e.unscored = q[:0]
	for i := range bred {
		bred[i].obj = e.known[bred[i].slot].obj
	}
}

// score computes one sorted genome's objectives. It reads only immutable
// engine state and writes only sc, so distinct scorers may run concurrently.
func (e *engine) score(sc *scorer, g []int32) Objectives {
	sc.stamp++
	hosts := sc.rc.Hosts
	clusters := 0
	sumSpeedup := 0.0
	power := 0.0
	for i, idx := range g {
		h := e.p.Hosts[e.elig[idx]]
		hosts[i] = h
		if sc.inCluster[h.Cluster] != sc.stamp {
			sc.inCluster[h.Cluster] = sc.stamp
			clusters++
		}
		sumSpeedup += h.Speedup()
		power += e.watts[idx]
	}
	var turn, holdHours float64
	if e.plan != nil {
		t, err := e.plan.TurnAround(sc.rc, 1)
		if err != nil {
			// Unschedulable subsets (cannot happen for k ≥ 1, but stay
			// total): worst on every axis so they are dominated away.
			t = inf
		}
		turn = t
		holdHours = turn / 3600
	} else {
		// Perfectly-parallel proxy: k units of reference work spread over
		// the subset's aggregate speed, charged one instance-hour each.
		turn = float64(e.k) / sumSpeedup
		holdHours = 1
	}
	cost := 0.0
	for _, idx := range g {
		cost += e.usd[idx] * holdHours
	}
	return Objectives{
		TurnAroundSeconds: turn,
		CostUSD:           cost,
		PowerWatts:        power,
		Fragmentation:     float64(clusters),
	}
}

// bestK writes into e.child the k eligible indices that come first under
// less, which must be a strict total order (every seeding rule ends on the
// host ID): the same k a full sort would put first, found in one pass.
func (e *engine) bestK(less func(a, b int32) bool) []int32 {
	top := e.child[:0]
	for i := int32(0); int(i) < len(e.elig); i++ {
		j := len(top)
		if j < e.k {
			top = append(top, i)
		} else if j--; !less(i, top[j]) {
			continue
		}
		for ; j > 0 && less(i, top[j-1]); j-- {
			top[j] = top[j-1]
		}
		top[j] = i
	}
	return top
}

// initialPopulation seeds the four single-objective corners (fastest,
// cheapest, lowest-power, most-packed) so the extremes of the front are
// present from generation zero, then fills with uniform random subsets.
func (e *engine) initialPopulation() []indiv {
	n := len(e.elig)
	hosts := e.p.Hosts
	clusterSize := make([]int32, len(e.p.Clusters))
	for _, id := range e.elig {
		clusterSize[hosts[id].Cluster]++
	}
	byID := func(a, b int32) bool { return e.elig[a] < e.elig[b] }
	seeds := [...]func(a, b int32) bool{
		func(a, b int32) bool { // fastest
			if ca, cb := hosts[e.elig[a]].ClockGHz, hosts[e.elig[b]].ClockGHz; ca != cb {
				return ca > cb
			}
			return byID(a, b)
		},
		func(a, b int32) bool { // cheapest
			if e.usd[a] != e.usd[b] {
				return e.usd[a] < e.usd[b]
			}
			return byID(a, b)
		},
		func(a, b int32) bool { // lowest power
			if e.watts[a] != e.watts[b] {
				return e.watts[a] < e.watts[b]
			}
			return byID(a, b)
		},
		func(a, b int32) bool { // most packed: big clusters first
			ca, cb := hosts[e.elig[a]].Cluster, hosts[e.elig[b]].Cluster
			if clusterSize[ca] != clusterSize[cb] {
				return clusterSize[ca] > clusterSize[cb]
			}
			if ca != cb {
				return ca < cb
			}
			return byID(a, b)
		},
	}
	e.gen++
	pop := make([]indiv, 0, 2*e.cfg.PopSize+len(seeds))
	e.spare = make([]indiv, 0, cap(pop))
	for _, less := range seeds {
		pop = e.admit(pop, e.bestK(less))
	}
	// Random fill; cap the attempts so tiny search spaces (n choose k small)
	// terminate with a short population instead of spinning.
	for tries := 0; len(pop) < e.cfg.PopSize && tries < 4*e.cfg.PopSize; tries++ {
		e.draw = e.rng.AppendSample(e.draw[:0], n, e.k)
		g := e.child[:e.k]
		for i, v := range e.draw {
			g[i] = int32(v)
		}
		pop = e.admit(pop, g)
	}
	e.scoreBred(pop)
	return pop
}

// step runs one NSGA-II generation: binary-tournament parents, subset
// crossover and point mutation breed the offspring; the new genomes among
// them are scored together; then elitist survivor selection runs over the
// merged parent+offspring pool.
func (e *engine) step(pop []indiv) []indiv {
	ranked := e.rk.rank(pop)
	e.gen++
	for _, iv := range pop {
		e.inGen[iv.slot] = e.gen
	}
	pool := pop
	for tries := 0; len(pool)-len(pop) < e.cfg.PopSize && tries < 4*e.cfg.PopSize; tries++ {
		if e.evals >= e.cfg.MaxEvaluations {
			break
		}
		a := e.tournament(pop, ranked)
		b := e.tournament(pop, ranked)
		child := e.crossover(pop[a].genome, pop[b].genome)
		e.mutate(child)
		pool = e.admit(pool, child)
	}
	e.scoreBred(pool[len(pop):])
	return e.survivors(pool)
}

// tournament returns the index of the better of two uniformly drawn members
// under the crowded-comparison operator.
func (e *engine) tournament(pop []indiv, ranked []rankInfo) int {
	a, b := e.rng.Intn(len(pop)), e.rng.Intn(len(pop))
	if ranked[a].rank != ranked[b].rank {
		if ranked[a].rank < ranked[b].rank {
			return a
		}
		return b
	}
	if ranked[a].crowding != ranked[b].crowding {
		if ranked[a].crowding > ranked[b].crowding {
			return a
		}
		return b
	}
	if a < b {
		return a
	}
	return b
}

// crossover unions both parents and keeps the shared genes, filling the rest
// with a uniform sample of the symmetric difference. The child lives in
// e.child until the next crossover.
func (e *engine) crossover(a, b []int32) []int32 {
	e.markStamp++
	inA := e.markStamp
	for _, v := range a {
		e.mark[v] = inA
	}
	child := e.child[:0]
	diff := e.diff[:0]
	for _, v := range b {
		if e.mark[v] == inA {
			child = append(child, v) // shared
			e.mark[v] = 0
		} else {
			diff = append(diff, v) // only in b
		}
	}
	for _, v := range a {
		if e.mark[v] == inA {
			diff = append(diff, v) // only in a
		}
	}
	slices.Sort(diff)
	e.draw = e.rng.AppendSample(e.draw[:0], len(diff), e.k-len(child))
	for _, i := range e.draw {
		child = append(child, diff[i])
	}
	e.diff = diff
	return child
}

// mutate replaces one gene with a random non-member host (when one exists).
func (e *engine) mutate(g []int32) {
	n := len(e.elig)
	if n <= e.k || e.rng.Float64() >= 0.35 {
		return
	}
	e.markStamp++
	for _, v := range g {
		e.mark[v] = e.markStamp
	}
	pos := e.rng.Intn(len(g))
	for tries := 0; tries < 8; tries++ {
		cand := int32(e.rng.Intn(n))
		if e.mark[cand] != e.markStamp {
			g[pos] = cand
			return
		}
	}
}

// survivors keeps the best PopSize members by (rank, crowding) with full
// deterministic tie-breaking. The result reuses the population buffer the
// pool is not in.
func (e *engine) survivors(pool []indiv) []indiv {
	ranked := e.rk.rank(pool)
	order := e.order[:0]
	for i := range pool {
		order = append(order, int32(i))
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(ranked[a].rank, ranked[b].rank); c != 0 {
			return c
		}
		if c := cmp.Compare(ranked[b].crowding, ranked[a].crowding); c != 0 {
			return c
		}
		return cmp.Compare(pool[a].key, pool[b].key)
	})
	e.order = order
	out := e.spare[:0]
	for _, i := range order[:min(e.cfg.PopSize, len(order))] {
		out = append(out, pool[i])
	}
	e.spare = pool[:0]
	return out
}

// front extracts the rank-0 members of the final population as a knee-ranked
// Solution slice.
func (e *engine) front(pop []indiv) []Solution {
	ranked := e.rk.rank(pop)
	var sols []Solution
	for i, iv := range pop {
		if ranked[i].rank != 0 {
			continue
		}
		hosts := make([]platform.HostID, len(iv.genome))
		for j, idx := range iv.genome {
			hosts[j] = e.elig[idx]
		}
		sols = append(sols, Solution{Hosts: hosts, Obj: iv.obj})
	}
	kneeRank(sols)
	return sols
}

func hostsLess(a, b []platform.HostID) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

var inf = math.Inf(1)
