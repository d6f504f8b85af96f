package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws of 100", same)
	}
}

func TestZeroSeedIsValid(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("zero seed produced only %d distinct values of 100", len(seen))
	}
}

func TestDeriveIndependentStreams(t *testing.T) {
	root := New(7)
	a, b := root.Derive(1), root.Derive(2)
	a2 := New(7).Derive(1)
	for i := 0; i < 100; i++ {
		if a.Uint64() != a2.Uint64() {
			t.Fatal("Derive is not deterministic")
		}
	}
	// Derive must not advance the parent.
	c, d := New(7), New(7)
	c.Derive(99)
	for i := 0; i < 10; i++ {
		if c.Uint64() != d.Uint64() {
			t.Fatal("Derive advanced the parent stream")
		}
	}
	_ = b
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for n := 1; n <= 64; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	r := New(1)
	for _, n := range []int{0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			r.Intn(n)
		}()
	}
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-square over 10 buckets; 100k draws. Critical value for 9 dof at
	// p=0.001 is 27.88; allow margin.
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	expected := float64(draws) / n
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 30 {
		t.Fatalf("chi-square = %.2f too high; counts = %v", chi2, counts)
	}
}

func TestUint64nPowerOfTwo(t *testing.T) {
	r := New(5)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(8); v >= 8 {
			t.Fatalf("Uint64n(8) = %d", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(9)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	mean := sum / draws
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(13)
	hits := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / draws
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) rate = %v", p)
	}
	if r.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Error("Bool(1) returned false")
	}
}

func TestExpMean(t *testing.T) {
	r := New(17)
	sum := 0.0
	const draws = 200000
	for i := 0; i < draws; i++ {
		v := r.Exp(5.0)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	mean := sum / draws
	if math.Abs(mean-5.0) > 0.1 {
		t.Fatalf("Exp(5) mean = %v", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(19)
	out := make([]int, 50)
	r.Perm(out)
	seen := make([]bool, 50)
	for _, v := range out {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", out)
		}
		seen[v] = true
	}
}

func TestShufflePreservesElements(t *testing.T) {
	r := New(23)
	s := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range s {
		sum += v
	}
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	got := 0
	for _, v := range s {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed elements: %v", s)
	}
}

// Property: Uint64n(n) < n for all n >= 1.
func TestUint64nBoundProperty(t *testing.T) {
	r := New(29)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refUint64n is the loop Uint64n replaced, kept as its reference: it
// computed the rejection threshold, a 64-bit division, on every call.
func refUint64n(r *RNG, n uint64) uint64 {
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	threshold := -n % n
	for {
		v := r.Uint64()
		if v >= threshold {
			return v % n
		}
	}
}

// TestUint64nMatchesReference: Uint64n returns the reference's values and
// leaves the generator in the reference's state, at bounds whose
// rejection threshold is 0, tiny or about half the range (2^63+1 redraws
// nearly every other draw) and at 10^6 random bounds of every magnitude.
func TestUint64nMatchesReference(t *testing.T) {
	got, want := New(5), New(5)
	check := func(n uint64, draws int) {
		for i := 0; i < draws; i++ {
			g, w := got.Uint64n(n), refUint64n(want, n)
			if g != w || got.s != want.s {
				t.Fatalf("Uint64n(%d) draw %d = %d, reference %d (states equal: %v)", n, i, g, w, got.s == want.s)
			}
		}
	}
	for _, n := range []uint64{1, 3, 1<<32 - 1, 1<<32 + 1, 1<<63 - 1, 1<<63 + 1, math.MaxUint64 - 2} {
		check(n, 10_000)
	}
	pick := New(6)
	for i := 0; i < 1_000_000; i++ {
		check(max(pick.Uint64()>>pick.Uint64n(64), 1), 1)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000)
	}
}
