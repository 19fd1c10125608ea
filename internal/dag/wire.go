package dag

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
)

// The wire form of a DAG is one JSON object,
//
//	{"tasks": [{"id": 0, "name": "v1", "cost": 10}, …],
//	 "edges": [{"from": 0, "to": 2, "cost": 5}, …]}
//
// read by the Scanner in one pass with encoding/json's conventions for the
// struct it replaced: member names match exactly or under case folding,
// unknown members are skipped (their syntax still checked), null leaves a
// field — or a whole task or edge — at its zero value, id/from/to must be
// written as integers that fit int32, cost as a number that fits float64,
// name as a string. Two things encoding/json lets through are rejected: a
// member of the wire form given twice in one object, and anything but
// whitespace after the document.

// scratch is the working memory of one decode, build, canonical order or
// relabelling: the slices a decode appends to before their final size is
// known, and the per-task cursors, stamps and hashes of the passes after it.
// Pooling it lets a DAG get exactly-sized copies and leaves no working
// garbage behind. Nothing in it may outlive the call that took it from the
// pool: a *DAG and every slice it holds are always freshly allocated, since
// caches and in-flight requests keep them.
type scratch struct {
	tasks   []Task
	edges   []Edge
	h, g    []uint64
	sorted  []uint64
	pairs   []hashedTask
	start   []int
	next    []int
	perm    []TaskID
	cursor  []int32
	cursor2 []int32
	stamp   []int32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// maxPooledScratch bounds, in elements, the scratch a call may leave in the
// pool, so one huge document does not pin its arrays.
const maxPooledScratch = 1 << 15

func (sc *scratch) release() {
	// Every per-task array is as long as h (the canonical order's) or cursor
	// (every other pass's).
	if max(cap(sc.tasks), cap(sc.edges), cap(sc.h), cap(sc.cursor)) > maxPooledScratch {
		return
	}
	clear(sc.tasks) // drop the name strings
	sc.tasks, sc.edges = sc.tasks[:0], sc.edges[:0]
	scratchPool.Put(sc)
}

// grow returns *s resized to n elements, reallocating (and keeping the new
// array in *s) only when its capacity is short. The elements' values are
// whatever the last user left: callers write before they read.
func grow[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	return *s
}

// Decode reads a JSON-encoded DAG from r and validates it.
func Decode(r io.Reader) (*DAG, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead) // one read, no regrowth
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("dag: decode: %w", err)
	}
	return DecodeBytes(buf.Bytes())
}

// DecodeBytes is Decode for a document already in memory. It keeps no
// reference to data.
func DecodeBytes(data []byte) (*DAG, error) {
	s := NewScanner(data)
	d, err := s.DAG()
	if err == nil {
		err = s.End()
	}
	var syn *SyntaxError
	if errors.As(err, &syn) {
		return nil, fmt.Errorf("dag: decode: %w", err)
	}
	if err != nil {
		return nil, err
	}
	return d, nil
}

// DAG decodes and validates the wire-form value at the cursor. A
// *SyntaxError means the text is not JSON and leaves the cursor where it
// failed; on any other error — a member of the wrong type, a number out of
// range, a repeated member, a graph New would reject — the whole value has
// been consumed and its syntax checked, so the caller may read on.
func (s *Scanner) DAG() (*DAG, error) {
	start, depth := s.pos, s.depth
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	if err := s.document(sc); err != nil {
		var syn *SyntaxError
		if !errors.As(err, &syn) {
			s.pos, s.depth = start, depth
			if serr := s.Skip(); serr != nil {
				return nil, serr
			}
		}
		return nil, err
	}
	return build(append([]Task(nil), sc.tasks...), append([]Edge(nil), sc.edges...), sc)
}

func wireErrorf(format string, args ...any) error {
	return fmt.Errorf("dag: decode: "+format, args...)
}

// mismatch reports a value of the wrong JSON type. The value is skipped
// first: text that is not JSON at all is reported as that.
func (s *Scanner) mismatch(what, want string) error {
	if err := s.Skip(); err != nil {
		return err
	}
	return wireErrorf("%s must be %s", what, want)
}

func (s *Scanner) document(sc *scratch) error {
	if null, err := s.null(); null || err != nil {
		return err
	}
	if s.Peek() != '{' {
		return s.mismatch("a dag", "an object")
	}
	var seenTasks, seenEdges bool
	for first := true; ; first = false {
		key, ok, err := s.Member(first)
		if err != nil || !ok {
			return err
		}
		switch {
		case FieldIs(key, "tasks"):
			if seenTasks {
				return wireErrorf("duplicate member %q", key)
			}
			seenTasks = true
			err = s.tasks(sc)
		case FieldIs(key, "edges"):
			if seenEdges {
				return wireErrorf("duplicate member %q", key)
			}
			seenEdges = true
			err = s.edges(sc)
		default:
			err = s.Skip()
		}
		if err != nil {
			return err
		}
	}
}

func (s *Scanner) tasks(sc *scratch) error {
	if null, err := s.null(); null || err != nil {
		return err
	}
	if s.Peek() != '[' {
		return s.mismatch("tasks", "an array")
	}
	for first := true; ; first = false {
		ok, err := s.Element(first)
		if err != nil || !ok {
			return err
		}
		var t Task
		if err := s.task(&t, len(sc.tasks)); err != nil {
			return err
		}
		sc.tasks = append(sc.tasks, t)
	}
}

func (s *Scanner) edges(sc *scratch) error {
	if null, err := s.null(); null || err != nil {
		return err
	}
	if s.Peek() != '[' {
		return s.mismatch("edges", "an array")
	}
	for first := true; ; first = false {
		ok, err := s.Element(first)
		if err != nil || !ok {
			return err
		}
		var e Edge
		if err := s.edge(&e, len(sc.edges)); err != nil {
			return err
		}
		sc.edges = append(sc.edges, e)
	}
}

// One bit per member of a task or edge object, for spotting a repeat; an
// edge's from and to take the places of id and name.
const (
	fieldOther = 0
	fieldID    = 1
	fieldName  = 2
	fieldCost  = 4
)

// field tells which member of a task (id, name, cost) or of an edge (from,
// to, cost) a key selects. The exact spellings come first: they are all a
// well-behaved client sends, and the folding comparison costs several times
// as much.
func field(key []byte, id, name string) int {
	switch {
	case string(key) == id:
		return fieldID
	case string(key) == name:
		return fieldName
	case string(key) == "cost":
		return fieldCost
	case FieldIs(key, id):
		return fieldID
	case FieldIs(key, name):
		return fieldName
	case FieldIs(key, "cost"):
		return fieldCost
	}
	return fieldOther
}

func (s *Scanner) task(t *Task, i int) error {
	if null, err := s.null(); null || err != nil {
		return err
	}
	if s.Peek() != '{' {
		return s.mismatch(fmt.Sprintf("tasks[%d]", i), "an object")
	}
	seen := 0
	for first := true; ; first = false {
		key, ok, err := s.Member(first)
		if err != nil || !ok {
			return err
		}
		f := field(key, "id", "name")
		if seen&f != 0 {
			return wireErrorf("tasks[%d]: duplicate member %q", i, key)
		}
		seen |= f
		switch f {
		case fieldID:
			t.ID, err = s.id("tasks", i, "id")
		case fieldName:
			t.Name, err = s.name(i)
		case fieldCost:
			t.Cost, err = s.cost("tasks", i)
		default:
			err = s.Skip()
		}
		if err != nil {
			return err
		}
	}
}

func (s *Scanner) edge(e *Edge, i int) error {
	if null, err := s.null(); null || err != nil {
		return err
	}
	if s.Peek() != '{' {
		return s.mismatch(fmt.Sprintf("edges[%d]", i), "an object")
	}
	seen := 0
	for first := true; ; first = false {
		key, ok, err := s.Member(first)
		if err != nil || !ok {
			return err
		}
		f := field(key, "from", "to")
		if seen&f != 0 {
			return wireErrorf("edges[%d]: duplicate member %q", i, key)
		}
		seen |= f
		switch f {
		case fieldID:
			e.From, err = s.id("edges", i, "from")
		case fieldName:
			e.To, err = s.id("edges", i, "to")
		case fieldCost:
			e.Cost, err = s.cost("edges", i)
		default:
			err = s.Skip()
		}
		if err != nil {
			return err
		}
	}
}

// id reads a task identifier: an integer literal within int32, as
// encoding/json demands of an int32 field (1.0 and 1e2 are not integers).
func (s *Scanner) id(list string, i int, field string) (TaskID, error) {
	c := s.Peek()
	if c == 'n' {
		return 0, s.literal("null")
	}
	if c != '-' && (c < '0' || c > '9') {
		return 0, s.mismatch(fmt.Sprintf("%s[%d].%s", list, i, field), "an integer")
	}
	start := s.pos
	n, err := s.number()
	if err != nil {
		return 0, err
	}
	if !n.integer {
		return 0, wireErrorf("%s[%d].%s: %s is not an integer", list, i, field, s.data[start:s.pos])
	}
	// JSON allows no leading zeros, so ten digits bound an int32 — and mant
	// holds them all.
	v := int64(n.mant)
	if n.neg {
		v = -v
	}
	if n.digits > 10 || v < math.MinInt32 || v > math.MaxInt32 {
		return 0, wireErrorf("%s[%d].%s: %s out of range", list, i, field, s.data[start:s.pos])
	}
	return TaskID(v), nil
}

// cost reads a number that fits float64.
func (s *Scanner) cost(list string, i int) (float64, error) {
	c := s.Peek()
	if c == 'n' {
		return 0, s.literal("null")
	}
	if c != '-' && (c < '0' || c > '9') {
		return 0, s.mismatch(fmt.Sprintf("%s[%d].cost", list, i), "a number")
	}
	start := s.pos
	n, err := s.number()
	if err != nil {
		return 0, err
	}
	if v, ok := n.float64(); ok {
		return v, nil
	}
	tok := s.data[start:s.pos]
	// The token is a valid JSON number, so the only error left is range.
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, wireErrorf("%s[%d].cost: %s out of range", list, i, tok)
	}
	return v, nil
}

func (s *Scanner) name(i int) (string, error) {
	c := s.Peek()
	if c == 'n' {
		return "", s.literal("null")
	}
	if c != '"' {
		return "", s.mismatch(fmt.Sprintf("tasks[%d].name", i), "a string")
	}
	b, err := s.str()
	return string(b), err
}
