package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(12345), New(12345)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at step %d", i)
		}
	}
	c := New(12346)
	diverged := false
	a2 := New(12345)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestNewFromLabelIndependence(t *testing.T) {
	a := NewFrom(1, 0, 0)
	b := NewFrom(1, 0, 1)
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Fatal("adjacent labels produced correlated streams")
	}
	// Same path ⇒ same stream.
	c, d := NewFrom(9, 4, 2), NewFrom(9, 4, 2)
	for i := 0; i < 16; i++ {
		if c.Uint64() != d.Uint64() {
			t.Fatal("identical label paths diverged")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestUniformMean(t *testing.T) {
	r := New(11)
	sum := 0.0
	const n = 50000
	for i := 0; i < n; i++ {
		sum += r.Uniform(10, 20)
	}
	if m := sum / n; math.Abs(m-15) > 0.1 {
		t.Errorf("Uniform(10,20) mean = %v, want ≈15", m)
	}
}

func TestExpMean(t *testing.T) {
	r := New(13)
	sum := 0.0
	const n = 50000
	for i := 0; i < n; i++ {
		sum += r.Exp(4)
	}
	if m := sum / n; math.Abs(m-4) > 0.15 {
		t.Errorf("Exp(4) mean = %v, want ≈4", m)
	}
}

func TestNormMoments(t *testing.T) {
	r := New(17)
	const n = 50000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.Norm(5, 2)
		sum += v
		sq += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sq/n - mean*mean)
	if math.Abs(mean-5) > 0.1 || math.Abs(sd-2) > 0.1 {
		t.Errorf("Norm(5,2): mean %v sd %v", mean, sd)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(19)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) covered %d values in 1000 draws", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, n8 uint8) bool {
		n := int(n8%64) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSampleDistinct(t *testing.T) {
	f := func(seed uint64, n8, k8 uint8) bool {
		n := int(n8%100) + 1
		k := int(k8) % (n + 1)
		s := New(seed).Sample(n, k)
		if len(s) != k {
			return false
		}
		seen := make(map[int]bool, k)
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSamplePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Sample(3, 5) did not panic")
		}
	}()
	New(1).Sample(3, 5)
}

// referenceSample is Sample as it was before AppendSample existed (a set for
// the rejection path, a fresh permutation for Fisher–Yates). Every seeded
// artefact in the repository was generated from this stream.
func referenceSample(r *RNG, n, k int) []int {
	if k == 0 {
		return nil
	}
	if k*4 < n {
		seen := make(map[int]struct{}, k)
		out := make([]int, 0, k)
		for len(out) < k {
			v := r.Intn(n)
			if _, dup := seen[v]; dup {
				continue
			}
			seen[v] = struct{}{}
			out = append(out, v)
		}
		return out
	}
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		p[i], p[j] = p[j], p[i]
	}
	return p[:k]
}

// AppendSample must draw the reference values and leave the stream where the
// reference leaves it, on both paths, either side of the scan/set switch,
// with and without a prefix and spare capacity in dst.
func TestAppendSampleMatchesReference(t *testing.T) {
	buf := make([]int, 0, 4096)
	for _, c := range []struct{ n, k int }{
		{10, 0}, {10, 3}, {10, 10}, {44, 12}, {7000, 5}, {7000, 22}, {7000, 64}, {7000, 65}, {7000, 300}, {300, 100},
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			ref, got := New(seed), New(seed)
			want := referenceSample(ref, c.n, c.k)
			buf = append(buf[:0], -1, -2)
			buf = got.AppendSample(buf, c.n, c.k)
			if len(buf) != 2+c.k || buf[0] != -1 || buf[1] != -2 {
				t.Fatalf("n=%d k=%d: prefix or length disturbed: %v", c.n, c.k, buf)
			}
			for i, v := range want {
				if buf[2+i] != v {
					t.Fatalf("n=%d k=%d seed=%d: draw %d = %d, reference %d", c.n, c.k, seed, i, buf[2+i], v)
				}
			}
			if ref.Uint64() != got.Uint64() {
				t.Fatalf("n=%d k=%d seed=%d: stream position differs after sampling", c.n, c.k, seed)
			}
		}
	}
}
