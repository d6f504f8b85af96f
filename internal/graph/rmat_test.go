package graph

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"flashwalker/internal/rng"
)

// refRMAT is RMAT's sequential loop as it stood before the parallel path:
// the reference every RMAT result must equal, byte for byte.
func refRMAT(cfg RMATConfig) (*Graph, error) {
	levels := 0
	pow := uint64(1)
	for pow < cfg.NumVertices {
		pow <<= 1
		levels++
	}
	r := rng.New(cfg.Seed)
	b := NewBuilder(cfg.NumVertices)
	seen := map[uint64]struct{}{}
	attempts := uint64(0)
	maxAttempts := cfg.NumEdges*20 + 1000
	for uint64(b.NumEdges()) < cfg.NumEdges {
		attempts++
		if attempts > maxAttempts {
			// Dense duplicate-heavy corner: give up removing duplicates and
			// accept what we have rather than loop forever.
			break
		}
		var src, dst uint64
		for l := 0; l < levels; l++ {
			a, bb, c := cfg.A, cfg.B, cfg.C
			if cfg.Noise > 0 {
				// Symmetric per-level perturbation, renormalized.
				na := a * (1 - cfg.Noise + 2*cfg.Noise*r.Float64())
				nb := bb * (1 - cfg.Noise + 2*cfg.Noise*r.Float64())
				nc := c * (1 - cfg.Noise + 2*cfg.Noise*r.Float64())
				nd := cfg.D * (1 - cfg.Noise + 2*cfg.Noise*r.Float64())
				tot := na + nb + nc + nd
				a, bb, c = na/tot, nb/tot, nc/tot
			}
			u := r.Float64()
			switch {
			case u < a:
				// top-left: no bits set
			case u < a+bb:
				dst |= 1 << l
			case u < a+bb+c:
				src |= 1 << l
			default:
				src |= 1 << l
				dst |= 1 << l
			}
		}
		src %= cfg.NumVertices
		dst %= cfg.NumVertices
		if cfg.RemoveDuplicates {
			key := src*cfg.NumVertices + dst
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
		}
		if cfg.Weighted {
			b.AddWeightedEdge(src, dst, float32(r.Float64())+1e-6)
		} else {
			b.AddEdge(src, dst)
		}
	}
	return b.Build()
}

// sameCSR reports whether two graphs have identical CSR arrays, comparing
// weights by their bits.
func sameCSR(a, b *Graph) bool {
	bitsEq := func(x, y []float32) bool {
		return slices.EqualFunc(x, y, func(p, q float32) bool {
			return math.Float32bits(p) == math.Float32bits(q)
		})
	}
	return slices.Equal(a.Offsets, b.Offsets) && slices.Equal(a.Edges, b.Edges) &&
		(a.Weights == nil) == (b.Weights == nil) &&
		bitsEq(a.Weights, b.Weights) && bitsEq(a.CumWeights, b.CumWeights)
}

// rmatReferenceCases spans the inputs that decide how attempts split into
// chunks and how each one descends. With NumEdges 5003 a chunk is 625
// attempts, 2048 is exactly eight 256-attempt chunks, and 100,000 is
// twelve full 8192-attempt chunks and a partial one.
func rmatReferenceCases() []RMATConfig {
	var cases []RMATConfig
	for _, noise := range []float64{0, 0.05, 0.3, 1.5} {
		for _, dedup := range []bool{true, false} {
			for _, weighted := range []bool{false, true} {
				cfg := DefaultRMAT(1000, 5003, 3)
				cfg.Noise, cfg.RemoveDuplicates, cfg.Weighted = noise, dedup, weighted
				cases = append(cases, cfg)
			}
		}
	}
	for _, v := range []uint64{1, 1000} {
		for _, e := range []uint64{0, 100, 2048, 5003, 100_000} {
			for _, dedup := range []bool{true, false} {
				cfg := DefaultRMAT(v, e, 5)
				cfg.RemoveDuplicates = dedup
				cases = append(cases, cfg)
			}
		}
	}
	one := DefaultRMAT(1, 50, 6)
	one.Weighted = true
	// A negative probability: perturbed weights can go negative, so the
	// quadrant choice always divides.
	neg := RMATConfig{NumVertices: 777, NumEdges: 3000, A: 1.2, B: -0.2, C: 0, D: 0, Noise: 0.05, RemoveDuplicates: true, Seed: 8}
	return append(cases, one, neg, DefaultRMAT(2, 40, 7), DefaultRMAT(16_016, 30_000, 42))
}

// rmatSettled waits for RMAT's workers to exit: the goroutine count must
// fall back to base.
func rmatSettled(t *testing.T, base int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i == 1000 {
			t.Fatalf("%d goroutines after RMAT returned, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRMATMatchesReference(t *testing.T) {
	orig := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(orig) })
	// TT-S's skew on 300 vertices: duplicates pile up until the attempt
	// budget runs out short of NumEdges.
	exhausting := RMATConfig{
		NumVertices: 300, NumEdges: 60_000,
		A: 0.57, B: 0.19, C: 0.19, D: 0.05,
		Noise: 0.05, RemoveDuplicates: true, Seed: 9,
	}
	for _, cfg := range append(rmatReferenceCases(), exhausting) {
		want, err := refRMAT(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			base := runtime.NumGoroutine()
			got, err := RMAT(cfg)
			if err != nil {
				t.Fatalf("%+v: %v", cfg, err)
			}
			rmatSettled(t, base)
			if !sameCSR(got, want) {
				t.Fatalf("GOMAXPROCS %d, %+v: %d edges, reference %d; CSRs differ",
					procs, cfg, got.NumEdges(), want.NumEdges())
			}
		}
		if cfg == exhausting && want.NumEdges() != 58_097 {
			t.Fatalf("duplicate-heavy config kept %d edges, want 58097 (attempt budget spent)", want.NumEdges())
		}
	}
}

// refQuadrant is the quadrant choice as RMAT made it before quadrant:
// divide, then compare u with the cumulative quotients.
func refQuadrant(na, nb, nc, nd, u float64) uint64 {
	tot := na + nb + nc + nd
	a, bb, c := na/tot, nb/tot, nc/tot
	switch {
	case u < a:
		return 0
	case u < a+bb:
		return 1
	case u < a+bb+c:
		return 2
	}
	return 3
}

// TestQuadrantMatchesQuotients puts u on each quotient threshold and its
// neighbours, inside quadrant's margin, where the division-free compare
// cannot decide and the exact fallback must.
func TestQuadrantMatchesQuotients(t *testing.T) {
	r := rng.New(11)
	for _, noise := range []float64{0.05, 0.3, 0.999} {
		for i := 0; i < 2000; i++ {
			w := func(p float64) float64 { return p * (1 - noise + 2*noise*r.Float64()) }
			na, nb, nc, nd := w(0.45), w(0.22), w(0.22), w(0.11)
			tot := na + nb + nc + nd
			a, bb, c := na/tot, nb/tot, nc/tot
			thresholds := []float64{a, a + bb, a + bb + c}
			products := []float64{na, na + nb, na + nb + nc}
			for k, th := range thresholds {
				down, up := math.Nextafter(th, 0), math.Nextafter(th, 1)
				for _, u := range []float64{math.Nextafter(down, 0), down, th, up, math.Nextafter(up, 1)} {
					if d := math.Abs(u*tot - products[k]); d > 1e-9*tot {
						t.Fatalf("u %v is %v from threshold %d, outside the margin", u, d, k)
					}
					if got, want := quadrant(na, nb, nc, nd, u, true), refQuadrant(na, nb, nc, nd, u); got != want {
						t.Fatalf("weights %v %v %v %v, u %v: quadrant %d, quotients %d", na, nb, nc, nd, u, got, want)
					}
				}
			}
			u := r.Float64()
			if got, want := quadrant(na, nb, nc, nd, u, true), refQuadrant(na, nb, nc, nd, u); got != want {
				t.Fatalf("weights %v %v %v %v, u %v: quadrant %d, quotients %d", na, nb, nc, nd, u, got, want)
			}
		}
	}
}

// TestKeySetMatchesMap checks the dedup set's accept/reject decisions
// against a Go map, including the key whose stored successor wraps to 0.
func TestKeySetMatchesMap(t *testing.T) {
	s := newKeySet(3000)
	m := map[uint64]struct{}{}
	r := rng.New(4)
	keys := []uint64{0, 1, math.MaxUint64, math.MaxUint64 - 1}
	for i := 0; i < 3000-len(keys); i++ {
		keys = append(keys, r.Uint64n(5000))
	}
	for _, k := range append(keys, keys...) {
		_, dup := m[k]
		m[k] = struct{}{}
		if got := s.insert(k); got == dup {
			t.Fatalf("insert(%d) = %v, map had it: %v", k, got, dup)
		}
	}
}
