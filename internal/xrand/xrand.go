// Package xrand provides a small, deterministic, splittable random number
// generator used throughout the repository so that every experiment is
// exactly reproducible across runs and machines.
//
// The generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014). It is not
// cryptographically secure; it is fast, has a 64-bit state, passes BigCrush
// when used as described, and — crucially for our use — supports cheap
// deterministic splitting so that parallel experiment arms draw independent
// streams regardless of execution order.
package xrand

import "math"

// golden is the 64-bit golden-ratio increment used by SplitMix64.
const golden = 0x9E3779B97F4A7C15

// RNG is a deterministic pseudo-random number generator. The zero value is a
// valid generator seeded with 0; prefer New to make seeds explicit.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG { return &RNG{state: seed} }

// NewFrom derives a generator from a seed and a sequence of stream labels.
// Equal (seed, labels...) always yield the same stream, and distinct label
// paths yield (for all practical purposes) independent streams. This lets
// experiment code split one master seed into per-arm streams:
//
//	rng := xrand.NewFrom(seed, dagIndex, repetition)
func NewFrom(seed uint64, labels ...uint64) *RNG {
	r := New(seed)
	for _, l := range labels {
		// Mix each label through one SplitMix64 round so that nearby
		// labels (0, 1, 2, …) land far apart in state space.
		r.state = mix(r.state ^ mix(l))
	}
	return r
}

// Split returns a new independent generator derived from r, advancing r.
func (r *RNG) Split() *RNG { return New(r.Uint64()) }

// mix is the SplitMix64 finalizer.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += golden
	return mix(r.state)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 high bits scaled into [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling would be faster, but a
	// 64-bit modulo bias over experiment-scale n (< 2^32) is below 2^-32
	// and irrelevant for simulation workloads.
	return int(r.Uint64() % uint64(n))
}

// Uniform returns a uniform float64 in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Exp returns an exponentially distributed float64 with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Norm returns a normally distributed float64 with the given mean and
// standard deviation, via the Box–Muller transform.
func (r *RNG) Norm(mean, stddev float64) float64 {
	var u1 float64
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// LogNormal returns a log-normally distributed float64 where the underlying
// normal has the given mu and sigma.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Norm(mu, sigma))
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap, in the
// Fisher–Yates manner.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// Sample returns k distinct indices drawn uniformly from [0, n) in random
// order. It panics if k > n or k < 0.
func (r *RNG) Sample(n, k int) []int {
	return r.AppendSample(nil, n, k)
}

// AppendSample appends to dst exactly the values Sample(n, k) would return,
// consuming the stream identically, so a caller sampling in a loop can reuse
// one buffer and allocate nothing (capacity beyond the k results is used as
// scratch).
func (r *RNG) AppendSample(dst []int, n, k int) []int {
	if k < 0 || k > n {
		panic("xrand: Sample called with k out of range")
	}
	if k == 0 {
		return dst
	}
	base := len(dst)
	// For small k relative to n, use rejection of repeats; otherwise do a
	// partial Fisher–Yates over the full index range.
	if k*4 < n {
		// Repeats are found by scanning the draws so far while that is
		// cheaper than a set.
		var seen map[int]struct{}
		if k > 64 {
			seen = make(map[int]struct{}, k)
		}
	draw:
		for len(dst) < base+k {
			v := r.Intn(n)
			if seen != nil {
				if _, dup := seen[v]; dup {
					continue
				}
				seen[v] = struct{}{}
			} else {
				for _, u := range dst[base:] {
					if u == v {
						continue draw
					}
				}
			}
			dst = append(dst, v)
		}
		return dst
	}
	for i := 0; i < n; i++ {
		dst = append(dst, i)
	}
	p := dst[base:]
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		p[i], p[j] = p[j], p[i]
	}
	return dst[:base+k]
}
