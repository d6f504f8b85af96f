package walk

import (
	"context"
	"math"
	"testing"

	"flashwalker/internal/graph"
	"flashwalker/internal/rng"
)

func TestKindString(t *testing.T) {
	if Unbiased.String() != "unbiased" || Biased.String() != "biased" || Restart.String() != "restart" {
		t.Fatal("kind names")
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind empty")
	}
}

func TestSpecValidate(t *testing.T) {
	ring := graph.Ring(4)
	wb := graph.NewBuilder(2)
	wb.AddWeightedEdge(0, 1, 1)
	weighted, _ := wb.Build()

	cases := []struct {
		spec Spec
		g    *graph.Graph
		ok   bool
	}{
		{Spec{Kind: Unbiased, Length: 6}, ring, true},
		{Spec{Kind: Unbiased, Length: 0}, ring, false},
		{Spec{Kind: Biased, Length: 6}, ring, false},
		{Spec{Kind: Biased, Length: 6}, weighted, true},
		{Spec{Kind: Restart, Length: 100, StopProb: 0.15}, ring, true},
		{Spec{Kind: Restart, Length: 100, StopProb: 0}, ring, false},
		{Spec{Kind: Restart, Length: 100, StopProb: 1}, ring, false},
		{Spec{Kind: Kind(42), Length: 6}, ring, false},
	}
	for i, c := range cases {
		err := c.spec.Validate(c.g)
		if (err == nil) != c.ok {
			t.Errorf("case %d: err = %v, ok = %v", i, err, c.ok)
		}
	}
}

func TestChooseEdgeUnbiasedUniform(t *testing.T) {
	s := Spec{Kind: Unbiased, Length: 6}
	r := rng.New(1)
	counts := make([]int, 5)
	const draws = 50000
	for i := 0; i < draws; i++ {
		idx, ops := s.ChooseEdge(r, 5, nil)
		if ops != 0 {
			t.Fatal("unbiased choice reported extra ops")
		}
		counts[idx]++
	}
	for i, c := range counts {
		p := float64(c) / draws
		if math.Abs(p-0.2) > 0.01 {
			t.Fatalf("edge %d chosen with p=%v", i, p)
		}
	}
}

func TestChooseEdgeBiasedFollowsWeights(t *testing.T) {
	// Weights 1, 3 -> probabilities 0.25, 0.75.
	cum := []float32{1, 4}
	s := Spec{Kind: Biased, Length: 6}
	r := rng.New(2)
	counts := make([]int, 2)
	const draws = 50000
	for i := 0; i < draws; i++ {
		idx, _ := s.ChooseEdge(r, 2, cum)
		counts[idx]++
	}
	p1 := float64(counts[1]) / draws
	if math.Abs(p1-0.75) > 0.01 {
		t.Fatalf("heavy edge chosen with p=%v, want 0.75", p1)
	}
}

func TestChooseEdgeBiasedOpsLogarithmic(t *testing.T) {
	deg := uint64(1024)
	cum := make([]float32, deg)
	for i := range cum {
		cum[i] = float32(i + 1)
	}
	s := Spec{Kind: Biased, Length: 6}
	r := rng.New(3)
	for i := 0; i < 100; i++ {
		_, ops := s.ChooseEdge(r, deg, cum)
		if ops > 11 {
			t.Fatalf("ITS ops %d exceed log2(1024)+1", ops)
		}
		if ops < 1 {
			t.Fatal("ITS reported no search steps")
		}
	}
}

func TestChooseEdgeBiasedDegreeOne(t *testing.T) {
	s := Spec{Kind: Biased, Length: 6}
	r := rng.New(4)
	idx, ops := s.ChooseEdge(r, 1, []float32{2.5})
	if idx != 0 || ops != 0 {
		t.Fatalf("degree-1 biased choice = (%d,%d)", idx, ops)
	}
}

func TestChooseEdgeDeadEndPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("dead-end ChooseEdge did not panic")
		}
	}()
	Spec{Kind: Unbiased, Length: 1}.ChooseEdge(rng.New(1), 0, nil)
}

func TestTerminatesAfterHop(t *testing.T) {
	s := Spec{Kind: Unbiased, Length: 6}
	r := rng.New(5)
	if !s.TerminatesAfterHop(r, &Walk{Hop: 0}) {
		t.Fatal("exhausted budget did not terminate")
	}
	if s.TerminatesAfterHop(r, &Walk{Hop: 3}) {
		t.Fatal("unbiased walk terminated early")
	}
	// Restart: empirical stop rate near StopProb.
	rs := Spec{Kind: Restart, Length: 100, StopProb: 0.3}
	stops := 0
	const draws = 50000
	for i := 0; i < draws; i++ {
		if rs.TerminatesAfterHop(r, &Walk{Hop: 50}) {
			stops++
		}
	}
	p := float64(stops) / draws
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("restart stop rate %v", p)
	}
}

func TestNewWalks(t *testing.T) {
	spec := Spec{Kind: Unbiased, Length: 6}
	starts := []graph.VertexID{3, 7}
	ws := NewWalks(spec, starts, 5)
	if len(ws) != 5 {
		t.Fatalf("got %d walks", len(ws))
	}
	for i, w := range ws {
		want := starts[i%2]
		if w.Src != want || w.Cur != want || w.Hop != 6 {
			t.Fatalf("walk %d = %+v", i, w)
		}
	}
	if NewWalks(spec, nil, 5) != nil {
		t.Fatal("walks from no starts")
	}
	if NewWalks(spec, starts, 0) != nil {
		t.Fatal("zero walks not nil")
	}
}

func TestUniformStarts(t *testing.T) {
	g := graph.Ring(100)
	s := UniformStarts(g, 1000, 1)
	if len(s) != 1000 {
		t.Fatal("count")
	}
	for _, v := range s {
		if v >= 100 {
			t.Fatalf("start %d out of range", v)
		}
	}
	s2 := UniformStarts(g, 1000, 1)
	for i := range s {
		if s[i] != s2[i] {
			t.Fatal("UniformStarts not deterministic")
		}
	}
	if UniformStarts(g, 0, 1) != nil {
		t.Fatal("zero starts")
	}
}

func TestAllStarts(t *testing.T) {
	g := graph.Ring(10)
	s := AllStarts(g)
	if len(s) != 10 {
		t.Fatal("count")
	}
	for i, v := range s {
		if v != graph.VertexID(i) {
			t.Fatal("not identity")
		}
	}
}

func TestRunOnRingIsDeterministicPath(t *testing.T) {
	// On a ring every hop is forced, so a 6-hop walk from 0 visits 0..6.
	g := graph.Ring(10)
	spec := Spec{Kind: Unbiased, Length: 6}
	ws := NewWalks(spec, []graph.VertexID{0}, 1)
	var gotPath []graph.VertexID
	st, err := RunContext(context.Background(), g, spec, ws, 1, func(i int, path []graph.VertexID) {
		gotPath = append(gotPath, path...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 1 || st.DeadEnded != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.TotalHops != 6 {
		t.Fatalf("TotalHops = %d", st.TotalHops)
	}
	want := []graph.VertexID{0, 1, 2, 3, 4, 5, 6}
	if len(gotPath) != len(want) {
		t.Fatalf("path %v", gotPath)
	}
	for i := range want {
		if gotPath[i] != want[i] {
			t.Fatalf("path %v", gotPath)
		}
	}
	for v := 0; v <= 6; v++ {
		if st.Visits[v] != 1 {
			t.Fatalf("visits %v", st.Visits[:8])
		}
	}
}

func TestRunDeadEnd(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2) // 2 is a sink
	g, _ := b.Build()
	spec := Spec{Kind: Unbiased, Length: 10}
	st, err := RunContext(context.Background(), g, spec, NewWalks(spec, []graph.VertexID{0}, 1), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.DeadEnded != 1 || st.Completed != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.TotalHops != 2 {
		t.Fatalf("hops %d", st.TotalHops)
	}
}

func TestRunHopConservation(t *testing.T) {
	// On a graph with no dead ends every walk does exactly Length hops.
	g, _ := graph.Uniform(200, 4000, 7)
	// Ensure no dead ends by adding a ring backbone.
	b := graph.NewBuilder(200)
	for v := graph.VertexID(0); v < 200; v++ {
		b.AddEdge(v, (v+1)%200)
		for _, d := range g.OutEdges(v) {
			b.AddEdge(v, d)
		}
	}
	g2, _ := b.Build()
	spec := Spec{Kind: Unbiased, Length: 6}
	const n = 500
	ws := NewWalks(spec, UniformStarts(g2, n, 3), n)
	st, err := RunContext(context.Background(), g2, spec, ws, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != n || st.TotalHops != n*6 {
		t.Fatalf("completed %d, hops %d", st.Completed, st.TotalHops)
	}
	// Visits = starts + hops.
	var visits uint64
	for _, v := range st.Visits {
		visits += v
	}
	if visits != uint64(n)+st.TotalHops {
		t.Fatalf("visit conservation: %d != %d", visits, uint64(n)+st.TotalHops)
	}
}

func TestRunDeterministic(t *testing.T) {
	g, _ := graph.RMAT(graph.DefaultRMAT(512, 4096, 1))
	spec := Spec{Kind: Unbiased, Length: 6}
	ws := NewWalks(spec, UniformStarts(g, 200, 5), 200)
	a, _ := RunContext(context.Background(), g, spec, ws, 11, nil)
	b, _ := RunContext(context.Background(), g, spec, ws, 11, nil)
	for v := range a.Visits {
		if a.Visits[v] != b.Visits[v] {
			t.Fatal("Run not deterministic")
		}
	}
	c, _ := RunContext(context.Background(), g, spec, ws, 12, nil)
	diff := false
	for v := range a.Visits {
		if a.Visits[v] != c.Visits[v] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds gave identical visits")
	}
}

func TestRunRestartLengths(t *testing.T) {
	g := graph.Complete(50)
	spec := Spec{Kind: Restart, Length: 1000, StopProb: 0.2}
	const n = 2000
	ws := NewWalks(spec, UniformStarts(g, n, 2), n)
	st, err := RunContext(context.Background(), g, spec, ws, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != n {
		t.Fatalf("completed %d", st.Completed)
	}
	// Geometric(0.2) mean = 5 hops.
	mean := float64(st.TotalHops) / n
	if mean < 4.5 || mean > 5.5 {
		t.Fatalf("restart mean length %v, want ~5", mean)
	}
}

func TestRunBiasedPrefersHeavyEdges(t *testing.T) {
	// Vertex 0 -> 1 (weight 9), 0 -> 2 (weight 1); 1,2 -> 0.
	b := graph.NewBuilder(3)
	b.AddWeightedEdge(0, 1, 9)
	b.AddWeightedEdge(0, 2, 1)
	b.AddWeightedEdge(1, 0, 1)
	b.AddWeightedEdge(2, 0, 1)
	g, _ := b.Build()
	spec := Spec{Kind: Biased, Length: 2}
	const n = 20000
	ws := NewWalks(spec, []graph.VertexID{0}, n)
	st, err := RunContext(context.Background(), g, spec, ws, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(st.Visits[1]) / float64(st.Visits[1]+st.Visits[2])
	if math.Abs(ratio-0.9) > 0.01 {
		t.Fatalf("heavy-edge visit share %v, want ~0.9", ratio)
	}
}

func TestRunRejectsInvalidSpec(t *testing.T) {
	g := graph.Ring(4)
	if _, err := RunContext(context.Background(), g, Spec{Kind: Biased, Length: 6}, nil, 1, nil); err == nil {
		t.Fatal("biased on unweighted accepted")
	}
}

func TestStateSizes(t *testing.T) {
	if StateBytes <= DenseStateBytes {
		t.Fatal("dense walks must be smaller than regular walks")
	}
}
