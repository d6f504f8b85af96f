package graph

import (
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"flashwalker/internal/rng"
)

func mustBuild(t *testing.T, b *Builder) *Graph {
	t.Helper()
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return g
}

func TestEmptyGraph(t *testing.T) {
	g := mustBuild(t, NewBuilder(0))
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
}

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	g := mustBuild(t, b)
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("got %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
	if g.OutDegree(0) != 2 || g.OutDegree(1) != 0 || g.OutDegree(2) != 1 {
		t.Fatal("wrong out-degrees")
	}
	e0 := g.OutEdges(0)
	if len(e0) != 2 || e0[0] != 1 || e0[1] != 2 {
		t.Fatalf("OutEdges(0) = %v", e0)
	}
}

func TestBuilderSortsAdjacency(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 3)
	b.AddEdge(0, 2)
	g := mustBuild(t, b)
	e := g.OutEdges(0)
	for i := 1; i < len(e); i++ {
		if e[i-1] > e[i] {
			t.Fatalf("adjacency not sorted: %v", e)
		}
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 3)
	if _, err := b.Build(); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	b2 := NewBuilder(3)
	b2.AddEdge(7, 0)
	if _, err := b2.Build(); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}

func TestWeightedBuild(t *testing.T) {
	b := NewBuilder(3)
	b.AddWeightedEdge(0, 1, 2.0)
	b.AddWeightedEdge(0, 2, 3.0)
	g := mustBuild(t, b)
	if !g.Weighted() {
		t.Fatal("graph not weighted")
	}
	w := g.OutWeights(0)
	if len(w) != 2 || w[0] != 2.0 || w[1] != 3.0 {
		t.Fatalf("weights = %v", w)
	}
	cw := g.OutCumWeights(0)
	if cw[0] != 2.0 || cw[1] != 5.0 {
		t.Fatalf("cumulative weights = %v", cw)
	}
	if g.SumWeight(0) != 5.0 {
		t.Fatalf("SumWeight = %v", g.SumWeight(0))
	}
}

func TestWeightedSortKeepsPairing(t *testing.T) {
	b := NewBuilder(4)
	b.AddWeightedEdge(0, 3, 30)
	b.AddWeightedEdge(0, 1, 10)
	b.AddWeightedEdge(0, 2, 20)
	g := mustBuild(t, b)
	e, w := g.OutEdges(0), g.OutWeights(0)
	for i := range e {
		if float32(e[i]*10) != w[i] {
			t.Fatalf("edge %d paired with weight %v", e[i], w[i])
		}
	}
}

func TestUnweightedSumWeightIsDegree(t *testing.T) {
	g := Ring(10)
	if g.SumWeight(3) != 1 {
		t.Fatalf("SumWeight on ring = %v, want 1", g.SumWeight(3))
	}
	if g.SumWeight(0) != float64(g.OutDegree(0)) {
		t.Fatal("SumWeight != OutDegree for unweighted")
	}
}

func TestDuplicateEdgesKept(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	g := mustBuild(t, b)
	if g.NumEdges() != 2 {
		t.Fatalf("duplicates dropped: %d edges", g.NumEdges())
	}
}

func TestSelfLoopsKept(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(1, 1)
	g := mustBuild(t, b)
	if g.OutDegree(1) != 1 || g.OutEdges(1)[0] != 1 {
		t.Fatal("self loop lost")
	}
}

func TestCSRBytes(t *testing.T) {
	g := Ring(10) // 11 offsets + 10 edges
	if got := g.CSRBytes(4); got != (11+10)*4 {
		t.Fatalf("CSRBytes(4) = %d", got)
	}
	if got := g.CSRBytes(8); got != (11+10)*8 {
		t.Fatalf("CSRBytes(8) = %d", got)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := Ring(5)
	bad := &Graph{Offsets: append([]uint64{}, g.Offsets...), Edges: append([]VertexID{}, g.Edges...)}
	bad.Edges[0] = 99
	if bad.Validate() == nil {
		t.Fatal("out-of-range edge not caught")
	}
	bad2 := &Graph{Offsets: []uint64{0, 2, 1}, Edges: []VertexID{0, 0}}
	if bad2.Validate() == nil {
		t.Fatal("non-monotone offsets not caught")
	}
	bad3 := &Graph{Offsets: []uint64{1, 2}, Edges: []VertexID{0}}
	if bad3.Validate() == nil {
		t.Fatal("offsets[0] != 0 not caught")
	}
}

func TestRingStructure(t *testing.T) {
	g := Ring(7)
	for v := VertexID(0); v < 7; v++ {
		e := g.OutEdges(v)
		if len(e) != 1 || e[0] != (v+1)%7 {
			t.Fatalf("ring vertex %d edges %v", v, e)
		}
	}
}

func TestCompleteStructure(t *testing.T) {
	g := Complete(5)
	if g.NumEdges() != 20 {
		t.Fatalf("K5 has %d edges, want 20", g.NumEdges())
	}
	for v := VertexID(0); v < 5; v++ {
		if g.OutDegree(v) != 4 {
			t.Fatalf("vertex %d degree %d", v, g.OutDegree(v))
		}
		for _, d := range g.OutEdges(v) {
			if d == v {
				t.Fatal("self loop in Complete")
			}
		}
	}
}

func TestStarStructure(t *testing.T) {
	g := Star(100)
	if g.OutDegree(0) != 100 {
		t.Fatalf("hub degree %d", g.OutDegree(0))
	}
	for v := VertexID(1); v <= 100; v++ {
		if g.OutDegree(v) != 1 || g.OutEdges(v)[0] != 0 {
			t.Fatalf("spoke %d wrong", v)
		}
	}
}

func TestRMATBasic(t *testing.T) {
	g, err := RMAT(DefaultRMAT(1024, 8192, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 1024 {
		t.Fatalf("V = %d", g.NumVertices())
	}
	if g.NumEdges() < 8000 {
		t.Fatalf("E = %d, want ~8192", g.NumEdges())
	}
}

func TestRMATDeterministic(t *testing.T) {
	a, _ := RMAT(DefaultRMAT(512, 2048, 7))
	b, _ := RMAT(DefaultRMAT(512, 2048, 7))
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("RMAT not deterministic in edge count")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatal("RMAT not deterministic in edges")
		}
	}
}

func TestRMATSkewed(t *testing.T) {
	// R-MAT with default params must be much more skewed than uniform.
	rm, _ := RMAT(DefaultRMAT(2048, 16384, 3))
	un, _ := Uniform(2048, 16384, 3)
	srm, sun := ComputeStats(rm), ComputeStats(un)
	if srm.GiniOut <= sun.GiniOut {
		t.Fatalf("RMAT gini %.3f <= uniform gini %.3f", srm.GiniOut, sun.GiniOut)
	}
	if srm.MaxOutDeg <= sun.MaxOutDeg {
		t.Fatalf("RMAT max degree %d <= uniform %d", srm.MaxOutDeg, sun.MaxOutDeg)
	}
}

func TestRMATNoDuplicatesWhenRequested(t *testing.T) {
	cfg := DefaultRMAT(256, 2000, 5)
	g, err := RMAT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]VertexID]bool{}
	for v := VertexID(0); uint64(v) < g.NumVertices(); v++ {
		for _, d := range g.OutEdges(v) {
			k := [2]VertexID{v, d}
			if seen[k] {
				t.Fatalf("duplicate edge (%d,%d)", v, d)
			}
			seen[k] = true
		}
	}
}

func TestRMATWeighted(t *testing.T) {
	cfg := DefaultRMAT(256, 1024, 9)
	cfg.Weighted = true
	g, err := RMAT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Weighted() {
		t.Fatal("not weighted")
	}
	for _, w := range g.Weights {
		if w <= 0 {
			t.Fatalf("non-positive weight %v", w)
		}
	}
}

func TestRMATRejectsBadProbabilities(t *testing.T) {
	cfg := DefaultRMAT(64, 64, 1)
	cfg.A = 0.9
	if _, err := RMAT(cfg); err == nil {
		t.Fatal("bad probabilities accepted")
	}
	if _, err := RMAT(RMATConfig{NumVertices: 0, A: 0.25, B: 0.25, C: 0.25, D: 0.25}); err == nil {
		t.Fatal("zero vertices accepted")
	}
}

func TestPowerLawSkew(t *testing.T) {
	g, err := PowerLaw(PowerLawConfig{NumVertices: 2048, NumEdges: 16384, Alpha: 0.8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	s := ComputeStats(g)
	if s.GiniOut < 0.3 {
		t.Fatalf("power-law gini %.3f too uniform", s.GiniOut)
	}
}

func TestPowerLawDefaultsAlpha(t *testing.T) {
	g, err := PowerLaw(PowerLawConfig{NumVertices: 128, NumEdges: 512, Seed: 1})
	if err != nil || g.NumEdges() != 512 {
		t.Fatalf("err=%v edges=%d", err, g.NumEdges())
	}
	if _, err := PowerLaw(PowerLawConfig{NumVertices: 0}); err == nil {
		t.Fatal("zero vertices accepted")
	}
}

func TestUniformExactEdgeCount(t *testing.T) {
	g, err := Uniform(100, 1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1000 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	if _, err := Uniform(0, 10, 1); err == nil {
		t.Fatal("zero vertices accepted")
	}
}

func TestComputeStats(t *testing.T) {
	g := Star(10)
	s := ComputeStats(g)
	if s.MaxOutDeg != 10 {
		t.Fatalf("MaxOutDeg = %d", s.MaxOutDeg)
	}
	if s.NumEdges != 20 || s.NumVertices != 11 {
		t.Fatalf("stats %+v", s)
	}
	if s.ZeroOutDeg != 0 {
		t.Fatalf("ZeroOutDeg = %d", s.ZeroOutDeg)
	}
	// A graph with an isolated vertex.
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	g2 := mustBuild(t, b)
	if ComputeStats(g2).ZeroOutDeg != 2 {
		t.Fatal("zero-out-degree count wrong")
	}
}

func TestGiniBounds(t *testing.T) {
	if g := gini([]uint64{5, 5, 5, 5}); g > 0.001 {
		t.Fatalf("uniform gini = %v", g)
	}
	if g := gini([]uint64{0, 0, 0, 100}); g < 0.7 {
		t.Fatalf("concentrated gini = %v", g)
	}
	if g := gini(nil); g != 0 {
		t.Fatalf("empty gini = %v", g)
	}
	if g := gini([]uint64{0, 0}); g != 0 {
		t.Fatalf("all-zero gini = %v", g)
	}
}

func TestInDegrees(t *testing.T) {
	g := Star(4)
	in := g.InDegrees()
	if in[0] != 4 {
		t.Fatalf("hub in-degree %d", in[0])
	}
	for v := 1; v <= 4; v++ {
		if in[v] != 1 {
			t.Fatalf("spoke %d in-degree %d", v, in[v])
		}
	}
}

// countInDegrees counts every vertex's in-degree afresh: the reference the
// kept counts must equal.
func countInDegrees(g *Graph) []uint64 {
	in := make([]uint64, g.NumVertices())
	for _, d := range g.Edges {
		in[d]++
	}
	return in
}

// TestInDegreesKept: the counts are made once and kept, a clone shares
// them, and a mutation drops them from the mutated graph alone, whose next
// call counts its new edges.
func TestInDegreesKept(t *testing.T) {
	g, err := RMAT(DefaultRMAT(512, 4096, 3))
	if err != nil {
		t.Fatal(err)
	}
	in := g.InDegrees()
	if !slices.Equal(in, countInDegrees(g)) {
		t.Fatal("kept counts differ from a fresh count")
	}
	if &g.InDegrees()[0] != &in[0] {
		t.Fatal("a second call counted again")
	}
	c := g.Clone()
	if &c.InDegrees()[0] != &in[0] {
		t.Fatal("the clone counted again")
	}
	src := VertexID(0)
	for g.OutDegree(src) == 0 {
		src++
	}
	dst := g.OutEdges(src)[0]
	if err := c.ApplyMutations([]Mutation{
		{Op: OpDeleteEdge, Src: src, Dst: dst},
		{Op: OpInsertEdge, Src: src, Dst: (dst + 1) % VertexID(g.NumVertices())},
	}); err != nil {
		t.Fatal(err)
	}
	if got := c.InDegrees(); !slices.Equal(got, countInDegrees(c)) || slices.Equal(got, in) {
		t.Fatal("the mutated clone kept stale counts")
	}
	if got := g.InDegrees(); &got[0] != &in[0] || !slices.Equal(got, countInDegrees(g)) {
		t.Fatal("mutating the clone changed the original's counts")
	}
	cc := c.Clone()
	if !slices.Equal(cc.InDegrees(), countInDegrees(cc)) {
		t.Fatal("a clone of the mutated graph has stale counts")
	}
}

// TestInDegreesConcurrent: engines sharing a graph may ask for its counts
// at once (run under -race).
func TestInDegreesConcurrent(t *testing.T) {
	g, err := RMAT(DefaultRMAT(512, 4096, 5))
	if err != nil {
		t.Fatal(err)
	}
	want := countInDegrees(g)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !slices.Equal(g.InDegrees(), want) {
				t.Error("concurrent counts differ from a fresh count")
			}
			_ = g.Clone()
		}()
	}
	wg.Wait()
}

func TestTextSizeEstimate(t *testing.T) {
	g := Ring(100)
	if TextSizeEstimate(g) <= 0 {
		t.Fatal("estimate not positive")
	}
	empty := mustBuild(t, NewBuilder(1))
	if TextSizeEstimate(empty) != 0 {
		t.Fatal("empty estimate not zero")
	}
}

// Property: CSR preserves the multiset of edges added.
func TestCSRPreservesEdgesProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := uint64(r.Intn(50) + 1)
		m := r.Intn(200)
		type pair struct{ s, d VertexID }
		added := map[pair]int{}
		b := NewBuilder(n)
		for i := 0; i < m; i++ {
			s, d := VertexID(r.Uint64n(n)), VertexID(r.Uint64n(n))
			b.AddEdge(s, d)
			added[pair{s, d}]++
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		got := map[pair]int{}
		for v := VertexID(0); uint64(v) < n; v++ {
			for _, d := range g.OutEdges(v) {
				got[pair{v, d}]++
			}
		}
		if len(got) != len(added) {
			return false
		}
		for k, c := range added {
			if got[k] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: sum of out-degrees equals edge count.
func TestDegreeSumProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := Uniform(64, 256, seed)
		if err != nil {
			return false
		}
		var sum uint64
		for v := VertexID(0); uint64(v) < g.NumVertices(); v++ {
			sum += g.OutDegree(v)
		}
		return sum == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestReverse(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(3, 0)
	g, _ := b.Build()
	r := Reverse(g)
	if r.NumEdges() != 3 {
		t.Fatal("edge count changed")
	}
	if r.OutDegree(1) != 1 || r.OutEdges(1)[0] != 0 {
		t.Fatal("reverse edge 1->0 missing")
	}
	if r.OutDegree(0) != 1 || r.OutEdges(0)[0] != 3 {
		t.Fatal("reverse edge 0->3 missing")
	}
	// Double reverse is the original.
	rr := Reverse(r)
	for v := VertexID(0); v < 4; v++ {
		a, b := g.OutEdges(v), rr.OutEdges(v)
		if len(a) != len(b) {
			t.Fatal("double reverse changed degrees")
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("double reverse changed edges")
			}
		}
	}
}

func TestReverseWeighted(t *testing.T) {
	b := NewBuilder(2)
	b.AddWeightedEdge(0, 1, 7)
	g, _ := b.Build()
	r := Reverse(g)
	if !r.Weighted() || r.OutWeights(1)[0] != 7 {
		t.Fatal("weight not carried through reverse")
	}
}

func TestReverseInOutDegreeDuality(t *testing.T) {
	g, _ := RMAT(DefaultRMAT(512, 4096, 3))
	r := Reverse(g)
	in := g.InDegrees()
	for v := VertexID(0); uint64(v) < g.NumVertices(); v++ {
		if r.OutDegree(v) != in[v] {
			t.Fatalf("vertex %d: reverse out-degree %d != in-degree %d", v, r.OutDegree(v), in[v])
		}
	}
}
