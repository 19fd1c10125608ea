// Package dag implements the workflow application model of dissertation
// §III.1: a weighted directed acyclic graph whose nodes are indivisible,
// non-preemptible tasks (costs in seconds on a reference CPU) and whose edges
// are intermediate-file transfers (costs in seconds at a reference
// bandwidth).
//
// The package also computes the eight DAG characteristics of §III.1.1 —
// size, height, tasks per level, communication-to-computation ratio (CCR),
// parallelism (α), density (δ), regularity (β), and mean computational cost
// (ω) — which drive both the size prediction model and the heuristic
// prediction model.
package dag

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// TaskID identifies a task within one DAG; IDs are dense indices 0..n-1.
type TaskID int32

// Task is one indivisible unit of work. Cost is the execution time in
// seconds on the reference CPU (the dissertation uses a 1.5 GHz host as the
// task-model reference).
type Task struct {
	ID   TaskID  `json:"id"`
	Name string  `json:"name,omitempty"`
	Cost float64 `json:"cost"`
}

// Edge is a data dependency: To cannot start until From has completed and
// transferred its output. Cost is the transfer time in seconds on the
// reference bandwidth (10 Gb/s in the dissertation, §III.1.1).
type Edge struct {
	From TaskID  `json:"from"`
	To   TaskID  `json:"to"`
	Cost float64 `json:"cost"`
}

// Adj is one adjacency entry: the neighbor task and the cost of the
// connecting edge.
type Adj struct {
	Task TaskID
	Cost float64
}

// DAG is an immutable-after-build task graph. Construct one with New, or
// with a Builder when assembling incrementally.
type DAG struct {
	tasks []Task
	edges []Edge

	// Adjacency in CSR (compressed sparse row) form: the neighbors of task
	// v are succAdj[succOff[v]:succOff[v+1]] (and likewise for pred). One
	// flat backing array per direction keeps Pred/Succ iteration free of
	// slice-of-slice indirection and pointer chasing in scheduler loops.
	succOff []int32
	predOff []int32
	succAdj []Adj
	predAdj []Adj

	level  []int // level(v): longest entry→v path length in edges
	height int   // number of levels
	lsize  []int // tasks per level

	topo []TaskID // topological order, recorded during level computation

	// Lazily cached graph metrics; a DAG is immutable after New, so these
	// are computed once. Callers must not modify the returned slices.
	blOnce    sync.Once
	blCache   []float64
	tlOnce    sync.Once
	tlCache   []float64
	alapOnce  sync.Once
	alapCache []float64
	fpOnce    sync.Once
	fpCache   uint64
	normOnce  sync.Once
	normCache *DAG
}

// New builds a DAG from tasks and edges, validating shape: task IDs must be
// dense 0..n-1 in order, edge endpoints in range, no self-loops, no duplicate
// edges, and the graph must be acyclic. The slices are copied.
func New(tasks []Task, edges []Edge) (*DAG, error) {
	return build(append([]Task(nil), tasks...), append([]Edge(nil), edges...))
}

// build is New for slices the caller hands over: the decoder's and
// Normalize's, which nothing else references.
func build(tasks []Task, edges []Edge) (*DAG, error) {
	n := len(tasks)
	if n == 0 {
		return nil, errors.New("dag: empty task set")
	}
	for i := range tasks {
		t := &tasks[i]
		if int(t.ID) != i {
			return nil, fmt.Errorf("dag: task at index %d has ID %d (IDs must be dense and ordered)", i, t.ID)
		}
		if t.Cost < 0 || math.IsNaN(t.Cost) || math.IsInf(t.Cost, 0) {
			return nil, fmt.Errorf("dag: task %d has invalid cost %v", i, t.Cost)
		}
	}
	for i := range edges {
		e := &edges[i]
		var err error
		switch {
		case e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n:
			err = fmt.Errorf("dag: edge %d→%d out of range", e.From, e.To)
		case e.From == e.To:
			err = fmt.Errorf("dag: self-loop on task %d", e.From)
		case e.Cost < 0 || math.IsNaN(e.Cost) || math.IsInf(e.Cost, 0):
			err = fmt.Errorf("dag: edge %d→%d has invalid cost %v", e.From, e.To, e.Cost)
		default:
			continue
		}
		// Edges are judged in input order, repeats included, so a repeat
		// among the edges before this one is the error to report.
		if dup := firstDuplicateEdge(edges[:i]); dup != nil {
			return nil, dup
		}
		return nil, err
	}
	if len(edges) == 0 {
		edges = nil // as New's copy of an empty slice always was; it shows in MarshalJSON
	}
	d := &DAG{tasks: tasks, edges: edges}
	d.buildCSR()
	if d.hasDuplicateEdge() {
		return nil, firstDuplicateEdge(edges)
	}
	if err := d.computeLevels(); err != nil {
		return nil, err
	}
	return d, nil
}

// hasDuplicateEdge reports whether two edges share both endpoints, by
// stamping each successor row's targets with the row's number: a target
// already carrying the stamp has been seen in this row.
func (d *DAG) hasDuplicateEdge() bool {
	stamp := make([]int32, len(d.tasks))
	for v := range d.tasks {
		for _, a := range d.Succ(TaskID(v)) {
			if stamp[a.Task] == int32(v)+1 {
				return true
			}
			stamp[a.Task] = int32(v) + 1
		}
	}
	return false
}

// firstDuplicateEdge names the first edge, in input order, that repeats an
// earlier one. It runs only to word an error, so it can afford the map the
// stamping pass avoids.
func firstDuplicateEdge(edges []Edge) error {
	type key struct{ a, b TaskID }
	seen := make(map[key]struct{}, len(edges))
	for _, e := range edges {
		k := key{e.From, e.To}
		if _, dup := seen[k]; dup {
			return fmt.Errorf("dag: duplicate edge %d→%d", e.From, e.To)
		}
		seen[k] = struct{}{}
	}
	return nil
}

// buildCSR assembles the flat adjacency arrays. A counting pass sizes each
// row, then edges are written in input order, so each task's neighbor order
// matches the historical append order exactly (schedulers depend on it for
// byte-identical output).
func (d *DAG) buildCSR() {
	n := len(d.tasks)
	d.succOff = make([]int32, n+1)
	d.predOff = make([]int32, n+1)
	for _, e := range d.edges {
		d.succOff[e.From+1]++
		d.predOff[e.To+1]++
	}
	for v := 0; v < n; v++ {
		d.succOff[v+1] += d.succOff[v]
		d.predOff[v+1] += d.predOff[v]
	}
	d.succAdj = make([]Adj, len(d.edges))
	d.predAdj = make([]Adj, len(d.edges))
	sNext := append([]int32(nil), d.succOff[:n]...)
	pNext := append([]int32(nil), d.predOff[:n]...)
	for _, e := range d.edges {
		d.succAdj[sNext[e.From]] = Adj{Task: e.To, Cost: e.Cost}
		sNext[e.From]++
		d.predAdj[pNext[e.To]] = Adj{Task: e.From, Cost: e.Cost}
		pNext[e.To]++
	}
}

// MustNew is New but panics on error; for tests and literals.
func MustNew(tasks []Task, edges []Edge) *DAG {
	d, err := New(tasks, edges)
	if err != nil {
		panic(err)
	}
	return d
}

// computeLevels runs Kahn's algorithm to both detect cycles and assign
// levels: level(v) = length (in edges) of the longest path from any entry
// node to v, so entry nodes are level 0 (§III.1.1).
func (d *DAG) computeLevels() error {
	n := len(d.tasks)
	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		indeg[v] = int(d.predOff[v+1] - d.predOff[v])
	}
	d.level = make([]int, n)
	queue := make([]TaskID, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, TaskID(v))
		}
	}
	head := 0
	for head < len(queue) {
		v := queue[head]
		head++
		for _, a := range d.Succ(v) {
			if l := d.level[v] + 1; l > d.level[a.Task] {
				d.level[a.Task] = l
			}
			indeg[a.Task]--
			if indeg[a.Task] == 0 {
				queue = append(queue, a.Task)
			}
		}
	}
	if head != n {
		return errors.New("dag: graph contains a cycle")
	}
	// The Kahn pop order is a valid topological order; keep it so later
	// metric computations need not redo the traversal.
	d.topo = queue
	d.height = 0
	for v := 0; v < n; v++ {
		if d.level[v]+1 > d.height {
			d.height = d.level[v] + 1
		}
	}
	d.lsize = make([]int, d.height)
	for v := 0; v < n; v++ {
		d.lsize[d.level[v]]++
	}
	return nil
}

// Size returns n, the number of tasks.
func (d *DAG) Size() int { return len(d.tasks) }

// NumEdges returns m, the number of edges.
func (d *DAG) NumEdges() int { return len(d.edges) }

// Task returns the task with the given ID.
func (d *DAG) Task(id TaskID) Task { return d.tasks[id] }

// Tasks returns the task slice; callers must not modify it.
func (d *DAG) Tasks() []Task { return d.tasks }

// Edges returns the edge slice; callers must not modify it.
func (d *DAG) Edges() []Edge { return d.edges }

// Succ returns the successors of id; callers must not modify the slice.
// The slice is a view into a flat CSR array, so taking it is allocation-free.
func (d *DAG) Succ(id TaskID) []Adj { return d.succAdj[d.succOff[id]:d.succOff[id+1]] }

// Pred returns the predecessors of id; callers must not modify the slice.
// The slice is a view into a flat CSR array, so taking it is allocation-free.
func (d *DAG) Pred(id TaskID) []Adj { return d.predAdj[d.predOff[id]:d.predOff[id+1]] }

// PredBase numbers the edges by their target: Pred(id)[i] is edge
// PredBase(id)+i of [0, NumEdges()), and the tasks' ranges follow each other
// in ID order. A table with one entry per edge is indexed this way.
func (d *DAG) PredBase(id TaskID) int { return int(d.predOff[id]) }

// NumSucc returns the out-degree of id without materializing the slice.
func (d *DAG) NumSucc(id TaskID) int { return int(d.succOff[id+1] - d.succOff[id]) }

// NumPred returns the in-degree of id without materializing the slice.
func (d *DAG) NumPred(id TaskID) int { return int(d.predOff[id+1] - d.predOff[id]) }

// Level returns level(id): the longest entry-to-id path length in edges.
func (d *DAG) Level(id TaskID) int { return d.level[id] }

// Height returns h, the number of levels (longest path in nodes).
func (d *DAG) Height() int { return d.height }

// LevelSize returns the number of tasks at the given level.
func (d *DAG) LevelSize(level int) int { return d.lsize[level] }

// LevelSizes returns the per-level task counts; callers must not modify it.
func (d *DAG) LevelSizes() []int { return d.lsize }

// Width returns the maximum number of tasks in any level: the largest
// possible instantaneous parallelism, and the "current practice" RC size the
// dissertation compares against (§V.3.3).
func (d *DAG) Width() int {
	w := 0
	for _, s := range d.lsize {
		if s > w {
			w = s
		}
	}
	return w
}

// Entries returns the IDs of all entry (parentless) tasks.
func (d *DAG) Entries() []TaskID {
	var out []TaskID
	for v := range d.tasks {
		if d.NumPred(TaskID(v)) == 0 {
			out = append(out, TaskID(v))
		}
	}
	return out
}

// Exits returns the IDs of all exit (childless) tasks.
func (d *DAG) Exits() []TaskID {
	var out []TaskID
	for v := range d.tasks {
		if d.NumSucc(TaskID(v)) == 0 {
			out = append(out, TaskID(v))
		}
	}
	return out
}

// TopoOrder returns a topological ordering of task IDs (stable: among ready
// tasks, lower IDs first). Callers must not modify the returned slice.
func (d *DAG) TopoOrder() []TaskID { return d.topo }

// TotalWork returns the sum of all task costs in reference-CPU seconds.
func (d *DAG) TotalWork() float64 {
	s := 0.0
	for _, t := range d.tasks {
		s += t.Cost
	}
	return s
}

// CriticalPathLength returns the length of the longest path through the DAG
// counting both node and edge weights: the classic lower bound on makespan
// on an unbounded homogeneous platform at reference speed.
func (d *DAG) CriticalPathLength() float64 {
	n := len(d.tasks)
	dist := make([]float64, n)
	for _, v := range d.TopoOrder() {
		base := dist[v] + d.tasks[v].Cost
		for _, a := range d.Succ(v) {
			if t := base + a.Cost; t > dist[a.Task] {
				dist[a.Task] = t
			}
		}
	}
	best := 0.0
	for v := 0; v < n; v++ {
		if t := dist[v] + d.tasks[v].Cost; t > best {
			best = t
		}
	}
	return best
}

// BLevels returns, for every task, the length of the longest path from the
// task to an exit node including both endpoints' node weights and all edge
// weights ("bottom level"). MCP uses these to compute ALAP times. The result
// is cached; callers must not modify it.
func (d *DAG) BLevels() []float64 {
	d.blOnce.Do(func() {
		n := len(d.tasks)
		bl := make([]float64, n)
		order := d.TopoOrder()
		for i := n - 1; i >= 0; i-- {
			v := order[i]
			best := 0.0
			for _, a := range d.Succ(v) {
				if t := a.Cost + bl[a.Task]; t > best {
					best = t
				}
			}
			bl[v] = d.tasks[v].Cost + best
		}
		d.blCache = bl
	})
	return d.blCache
}

// TLevels returns, for every task, the length of the longest path from an
// entry node to the task excluding the task's own weight ("top level"): its
// earliest possible start time on an unbounded platform. The result is
// cached; callers must not modify it.
func (d *DAG) TLevels() []float64 {
	d.tlOnce.Do(func() {
		n := len(d.tasks)
		tl := make([]float64, n)
		for _, v := range d.TopoOrder() {
			base := tl[v] + d.tasks[v].Cost
			for _, a := range d.Succ(v) {
				if t := base + a.Cost; t > tl[a.Task] {
					tl[a.Task] = t
				}
			}
		}
		d.tlCache = tl
	})
	return d.tlCache
}

// ALAPs returns, for every task, its As-Late-As-Possible start time:
// CP − BLevel(v), where CP is the critical path length (Fig. IV-2). The
// result is cached; callers must not modify it.
func (d *DAG) ALAPs() []float64 {
	d.alapOnce.Do(func() {
		bl := d.BLevels()
		cp := 0.0
		for _, b := range bl {
			if b > cp {
				cp = b
			}
		}
		out := make([]float64, len(bl))
		for i, b := range bl {
			out[i] = cp - b
		}
		d.alapCache = out
	})
	return d.alapCache
}
