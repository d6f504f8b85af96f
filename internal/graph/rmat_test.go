package graph

import (
	"math"
	"math/bits"
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
			b.AddWeightedEdge(VertexID(src), VertexID(dst), float32(r.Float64())+1e-6)
		} else {
			b.AddEdge(VertexID(src), VertexID(dst))
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
	// One vertex count on each side of the dedup key's width switch: 65,536
	// vertices take 32-bit keys, 65,537 64-bit ones.
	wide := DefaultRMAT(65_537, 30_000, 13)
	wide.Weighted = true
	return append(cases, one, neg, DefaultRMAT(2, 40, 7), DefaultRMAT(16_016, 30_000, 42),
		DefaultRMAT(65_536, 30_000, 12), DefaultRMAT(65_537, 30_000, 13), wide)
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

// fuzzVertexCounts is the menu FuzzRMATMatchesReference draws |V| from:
// the degenerate graphs, powers of two and their neighbours, where the
// descent's fold and the levels change, and both sides of the dedup key's
// switch from 32 to 64 bits at 65,536.
var fuzzVertexCounts = []uint64{1, 2, 3, 5, 255, 256, 257, 777, 4096, 32_767, 32_768, 32_769,
	65_535, 65_536, 65_537, 70_001}

// FuzzRMATMatchesReference checks RMAT against refRMAT on byte-coded
// configs: |V| from fuzzVertexCounts, up to 4,096 edges, A, B and C in
// [-1.28, 1.27] with D making the sum 1 (so negative probabilities come
// up), Noise in [0, 4) — 1 and beyond included — when its flag is set,
// the dedup and weighted flags, and a seed.
func FuzzRMATMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint16(50), int8(45), int8(22), int8(22), uint8(3), uint8(0b101), uint64(1))
	f.Add(uint8(14), uint16(4096), int8(45), int8(22), int8(22), uint8(3), uint8(0b101), uint64(2))
	f.Add(uint8(13), uint16(3000), int8(57), int8(19), int8(19), uint8(3), uint8(0b111), uint64(3))
	f.Add(uint8(7), uint16(3000), int8(120), int8(-20), int8(0), uint8(3), uint8(0b101), uint64(8))
	f.Add(uint8(1), uint16(40), int8(45), int8(22), int8(22), uint8(96), uint8(0b100), uint64(7))
	f.Add(uint8(15), uint16(1000), int8(25), int8(25), int8(25), uint8(0), uint8(0b011), uint64(9))
	f.Fuzz(func(t *testing.T, vi uint8, e uint16, a, b, c int8, noise, flags uint8, seed uint64) {
		cfg := RMATConfig{
			NumVertices: fuzzVertexCounts[int(vi)%len(fuzzVertexCounts)],
			NumEdges:    uint64(e) % 4097,
			A:           float64(a) / 100, B: float64(b) / 100, C: float64(c) / 100,
			RemoveDuplicates: flags&1 != 0,
			Weighted:         flags&2 != 0,
			Seed:             seed,
		}
		cfg.D = 1 - cfg.A - cfg.B - cfg.C
		if flags&4 != 0 {
			cfg.Noise = float64(noise) / 64
		}
		want, err := refRMAT(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RMAT(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if !sameCSR(got, want) {
			t.Fatalf("%+v: %d edges, reference %d; CSRs differ", cfg, got.NumEdges(), want.NumEdges())
		}
	})
}

// TestRMATAllocBudget bounds what one unweighted, deduplicated RMAT call
// allocates to its dedup set, its CSR and the chunk ring of two
// 8,192-attempt chunks per worker, plus 15%: the set is the edge list, so
// no edge slice, fill cursor or second copy of the edges is allocated.
func TestRMATAllocBudget(t *testing.T) {
	orig := runtime.GOMAXPROCS(2)
	t.Cleanup(func() { runtime.GOMAXPROCS(orig) })
	// A first call builds the rng's jump table, which is allocated once
	// per process.
	if _, err := RMAT(DefaultRMAT(512, 4096, 1)); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultRMAT(65_536, 200_000, 3)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := RMAT(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != cfg.NumEdges {
		t.Fatalf("%d edges, want %d", g.NumEdges(), cfg.NumEdges)
	}
	set := uint64(len(newKeySet[uint32](cfg.NumEdges).slots)) * 4
	csr := 8*(cfg.NumVertices+1) + 4*cfg.NumEdges // 8-byte offsets, 4-byte edges
	ring := uint64(2*2*8192) * 8                  // a [2]VertexID pair per attempt
	budget := (set + csr + ring) * 115 / 100
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Fatalf("RMAT allocated %d bytes, budget %d (set %d, CSR %d, chunk ring %d, +15%%)",
			got, budget, set, csr, ring)
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
// against a Go map at both key widths, including the key whose stored
// successor wraps to 0 and its predecessor.
func TestKeySetMatchesMap(t *testing.T) {
	t.Run("uint32", keySetMatchesMap[uint32])
	t.Run("uint64", keySetMatchesMap[uint64])
}

func keySetMatchesMap[K uint32 | uint64](t *testing.T) {
	s := newKeySet[K](3000)
	m := map[K]struct{}{}
	r := rng.New(4)
	keys := []K{0, 1, ^K(0), ^K(0) - 1}
	for i := 0; i < 3000-len(keys); i++ {
		keys = append(keys, K(r.Uint64n(5000)))
	}
	for _, k := range append(keys, keys...) {
		_, dup := m[k]
		m[k] = struct{}{}
		if got := s.insert(k); got == dup {
			t.Fatalf("insert(%d) = %v, map had it: %v", k, got, dup)
		}
	}
}

// TestKeySetCSRMatchesBuilder builds the CSR of random edge sets from the
// dedup set and from Builder.Build, on either side of the key-width switch
// (65,536 vertices take 32-bit keys, 65,537 64-bit ones). Each set leaves
// sources without edges, and at 65,536 vertices holds the edge whose key
// is ^uint32(0), which the set keeps outside its slots.
func TestKeySetCSRMatchesBuilder(t *testing.T) {
	r := rng.New(12)
	for _, v := range []uint64{1, 2, 777, 65_536, 65_537} {
		for _, n := range []int{0, 1, 40, 5000} {
			// Sources come from a third of the vertices, destinations from
			// all of them.
			srcs := make([]uint64, max(v/3, 1))
			for i := range srcs {
				srcs[i] = r.Uint64n(v)
			}
			edges := map[[2]uint64]bool{}
			for i := 0; i < n; i++ {
				edges[[2]uint64{srcs[r.Uint64n(uint64(len(srcs)))], r.Uint64n(v)}] = true
			}
			if v == 65_536 && n > 0 {
				edges[[2]uint64{v - 1, v - 1}] = true
			}
			b := NewBuilder(v)
			for e := range edges {
				b.AddEdge(VertexID(e[0]), VertexID(e[1]))
			}
			want, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			var got *Graph
			if levels := bits.Len64(v - 1); 2*levels <= 32 {
				got = keySetCSR[uint32](v, levels, edges)
			} else {
				got = keySetCSR[uint64](v, levels, edges)
			}
			if !sameCSR(got, want) {
				t.Fatalf("|V| %d, %d edges: the set's CSR differs from Build's", v, len(edges))
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("|V| %d, %d edges: %v", v, len(edges), err)
			}
		}
	}
}

// keySetCSR inserts edges into a keySet of key type K and counts their
// sources, as RMAT's dedup does, and builds the CSR from it.
func keySetCSR[K uint32 | uint64](v uint64, levels int, edges map[[2]uint64]bool) *Graph {
	s := newKeySet[K](uint64(len(edges)))
	offsets := make([]uint64, v+1)
	for e := range edges {
		s.insert(K(e[0]<<levels | e[1]))
		offsets[e[0]+1]++
	}
	return s.csr(offsets, levels)
}
