package dag

import "math"

// FNV-1a 64-bit parameters.
const (
	fnvOffset = 0xCBF29CE484222325
	fnvPrime  = 0x100000001B3
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

// fnvUint64 folds v in byte by byte, low byte first. Written out rather
// than looped: it is the inner step of both the fingerprint and the
// canonical-order refinement, and the compiler does not unroll it.
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

func fnvString(h uint64, s string) uint64 {
	h = fnvUint64(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// Fingerprint returns a stable 64-bit hash of the DAG's structure and
// weights: task count, every task's name and cost, and every edge's
// endpoints and cost, in definition order. Two DAGs built from the same
// tasks and edges always hash equal, across processes and platforms, so the
// fingerprint can key memoization caches (internal/eval) and golden tests.
// The result is cached; a DAG is immutable after New.
func (d *DAG) Fingerprint() uint64 {
	d.fpOnce.Do(func() {
		h := uint64(fnvOffset)
		h = fnvUint64(h, uint64(len(d.tasks)))
		for _, t := range d.tasks {
			h = fnvString(h, t.Name)
			h = fnvUint64(h, math.Float64bits(t.Cost))
		}
		h = fnvUint64(h, uint64(len(d.edges)))
		for _, e := range d.edges {
			h = fnvUint64(h, uint64(e.From))
			h = fnvUint64(h, uint64(e.To))
			h = fnvUint64(h, math.Float64bits(e.Cost))
		}
		d.fpCache = h
	})
	return d.fpCache
}
