package dag

import (
	"encoding/binary"
	"hash/maphash"
	"math"
)

// FNV-1a 64-bit parameters.
const (
	fnvOffset = 0xCBF29CE484222325
	fnvPrime  = 0x100000001B3
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

// fnvUint64 folds v in byte by byte, low byte first. Written out rather
// than looped: it is the inner step of the canonical-order refinement, and
// the compiler does not unroll it.
func fnvUint64(h, v uint64) uint64 {
	h = fnvByte(h, byte(v))
	h = fnvByte(h, byte(v>>8))
	h = fnvByte(h, byte(v>>16))
	h = fnvByte(h, byte(v>>24))
	h = fnvByte(h, byte(v>>32))
	h = fnvByte(h, byte(v>>40))
	h = fnvByte(h, byte(v>>48))
	return fnvByte(h, byte(v>>56))
}

// Fingerprint returns a stable 64-bit hash of the DAG's structure and
// weights: the FNV-1a hash of writeContent's bytes, which are the task
// count, every task's name and cost, and every edge's endpoints and cost, in
// definition order. Two DAGs built from the same tasks and edges always hash
// equal, across processes and platforms, so the fingerprint is the DAG's
// persisted identity: lease records, the observation log and golden tests
// carry it. FNV-1a is unkeyed, so anyone can build a second DAG with a
// chosen fingerprint; an in-process cache that serves a hit on key equality
// alone keys on Key instead. The result is cached; a DAG is immutable after
// New.
func (d *DAG) Fingerprint() uint64 {
	d.fpOnce.Do(func() { d.fpCache = contentFNV(d.tasks, d.edges) })
	return d.fpCache
}

// contentFNV is the FNV-1a hash of writeContent(tasks, edges).
func contentFNV(tasks []Task, edges []Edge) uint64 {
	w := contentWriter{fnv: fnvOffset}
	writeContent(&w, tasks, edges)
	return w.fnv
}

// keySeed seeds Key: one per process, drawn at random.
var keySeed = maphash.MakeSeed()

// Key returns an in-process cache key for the DAG: a hash/maphash hash of
// the bytes Fingerprint hashes (writeContent), under a seed drawn once per
// process. Equal DAGs have equal keys; a collision cannot be crafted from
// outside the process, since the seed is secret, and the hash reads eight
// bytes at a time where FNV reads one. Keys are not stable
// across processes: persist Fingerprint. The result is cached.
func (d *DAG) Key() uint64 {
	d.keyOnce.Do(func() { d.keyCache = d.keyWith(keySeed) })
	return d.keyCache
}

func (d *DAG) keyWith(seed maphash.Seed) uint64 { return contentKey(seed, d.tasks, d.edges) }

// contentKey is the seeded hash of writeContent(tasks, edges): Key for a
// DAG's own slices, NormalKey for its relabelled ones.
func contentKey(seed maphash.Seed, tasks []Task, edges []Edge) uint64 {
	w := contentWriter{keyed: true}
	w.mh.SetSeed(seed)
	writeContent(&w, tasks, edges)
	return w.mh.Sum64()
}

// contentWriter gathers writeContent's bytes in a fixed chunk and hands each
// full chunk to one hash: FNV-1a into fnv, or the seeded maphash when keyed.
// Both hashes depend only on the byte sequence, not on where the chunks
// break. It is a concrete type, not an io.Writer, so a caller's writer and
// its chunk stay on the caller's stack: hashing allocates nothing.
type contentWriter struct {
	keyed bool
	mh    maphash.Hash
	fnv   uint64
	chunk [1024]byte
}

// write hashes b, a prefix of the chunk, and returns the chunk emptied.
func (w *contentWriter) write(b []byte) []byte {
	if w.keyed {
		w.mh.Write(b)
	} else {
		h := w.fnv
		for _, c := range b {
			h = fnvByte(h, c)
		}
		w.fnv = h
	}
	return w.chunk[:0]
}

// writeContent writes a DAG's content to w, the one serialization
// Fingerprint, Key and NormalKey hash, so they agree on equality by
// construction: the task count, each task's name length, name and cost
// bits, the edge count, and each edge's endpoints and cost bits, in
// definition order, each number as eight little-endian bytes. The bytes
// never outgrow the chunk: a name longer than the room left goes through
// in pieces.
func writeContent(w *contentWriter, tasks []Task, edges []Edge) {
	le := binary.LittleEndian
	b := le.AppendUint64(w.chunk[:0], uint64(len(tasks)))
	for _, t := range tasks {
		if len(b) > len(w.chunk)-64 {
			b = w.write(b)
		}
		b = le.AppendUint64(b, uint64(len(t.Name)))
		name := t.Name
		for room := len(w.chunk) - len(b) - 8; len(name) > room; room = len(w.chunk) - 8 {
			b = w.write(append(b, name[:room]...))
			name = name[room:]
		}
		b = append(b, name...)
		b = le.AppendUint64(b, math.Float64bits(t.Cost))
	}
	b = le.AppendUint64(b, uint64(len(edges)))
	for _, e := range edges {
		if len(b) > len(w.chunk)-64 {
			b = w.write(b)
		}
		b = le.AppendUint64(b, uint64(e.From))
		b = le.AppendUint64(b, uint64(e.To))
		b = le.AppendUint64(b, math.Float64bits(e.Cost))
	}
	w.write(b)
}
