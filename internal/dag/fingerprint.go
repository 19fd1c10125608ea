package dag

import (
	"encoding/binary"
	"hash/fnv"
	"hash/maphash"
	"io"
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
	d.fpOnce.Do(func() {
		h := fnv.New64a()
		d.writeContent(h)
		d.fpCache = h.Sum64()
	})
	return d.fpCache
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

func (d *DAG) keyWith(seed maphash.Seed) uint64 {
	var h maphash.Hash
	h.SetSeed(seed)
	d.writeContent(&h)
	return h.Sum64()
}

// writeContent writes the DAG's content to w, the one serialization both
// Fingerprint and Key hash, so the two agree on equality by construction:
// the task count, each task's name length, name and cost bits, the edge
// count, and each edge's endpoints and cost bits, in definition order, each
// number as eight little-endian bytes. It writes in chunks of about 1 KB.
func (d *DAG) writeContent(w io.Writer) {
	var chunk [1024]byte
	b := binary.LittleEndian.AppendUint64(chunk[:0], uint64(len(d.tasks)))
	for _, t := range d.tasks {
		if len(b) > len(chunk)-64 {
			w.Write(b)
			b = b[:0]
		}
		b = binary.LittleEndian.AppendUint64(b, uint64(len(t.Name)))
		b = append(b, t.Name...)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.Cost))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(d.edges)))
	for _, e := range d.edges {
		if len(b) > len(chunk)-64 {
			w.Write(b)
			b = b[:0]
		}
		b = binary.LittleEndian.AppendUint64(b, uint64(e.From))
		b = binary.LittleEndian.AppendUint64(b, uint64(e.To))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.Cost))
	}
	w.Write(b)
}
