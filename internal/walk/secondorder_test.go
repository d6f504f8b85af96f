package walk

import (
	"context"
	"testing"

	"flashwalker/internal/graph"
	"flashwalker/internal/rng"
)

func TestSecondOrderKindString(t *testing.T) {
	if SecondOrder.String() != "second-order" {
		t.Fatal("kind name")
	}
}

func TestSecondOrderSpecValidate(t *testing.T) {
	g := graph.Ring(8)
	good := Spec{Kind: SecondOrder, Length: 6, P: 0.5, Q: 2}
	if err := good.Validate(g); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Spec{
		{Kind: SecondOrder, Length: 6, P: 0, Q: 1},
		{Kind: SecondOrder, Length: 6, P: 1, Q: -1},
	} {
		if bad.Validate(g) == nil {
			t.Errorf("spec %+v accepted", bad)
		}
	}
}

func TestSecondOrderWeights(t *testing.T) {
	s := Spec{Kind: SecondOrder, Length: 6, P: 0.25, Q: 2}
	wr, wc, wo, wm := s.SecondOrderWeights()
	if wr != 4 || wc != 1 || wo != 0.5 {
		t.Fatalf("weights %v %v %v", wr, wc, wo)
	}
	if wm != 4 {
		t.Fatalf("max %v", wm)
	}
}

// backtrackGraph is a graph where every edge is bidirectional, so
// returning to prev is always possible.
func backtrackGraph() *graph.Graph {
	b := graph.NewBuilder(32)
	for v := graph.VertexID(0); v < 32; v++ {
		for _, d := range []graph.VertexID{(v + 1) % 32, (v + 5) % 32, (v + 11) % 32} {
			b.AddEdge(v, d)
			b.AddEdge(d, v)
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func TestChooseEdgeSecondOrderReturnBias(t *testing.T) {
	g := backtrackGraph()
	r := rng.New(1)
	countReturns := func(p float64) int {
		s := Spec{Kind: SecondOrder, Length: 6, P: p, Q: 1}
		returns := 0
		const draws = 5000
		cur, prev := graph.VertexID(0), g.OutEdges(0)[0]
		for i := 0; i < draws; i++ {
			idx, _, _ := s.ChooseEdgeSecondOrder(g, r, cur, prev)
			if g.OutEdges(cur)[idx] == prev {
				returns++
			}
		}
		return returns
	}
	low, high := countReturns(10), countReturns(0.1)
	if high <= 2*low {
		t.Fatalf("p=0.1 returns %d not >> p=10 returns %d", high, low)
	}
}

func TestChooseEdgeSecondOrderProbesCounted(t *testing.T) {
	g := backtrackGraph()
	r := rng.New(2)
	s := Spec{Kind: SecondOrder, Length: 6, P: 1, Q: 1}
	// With p=q=1 every weight is 1: no rejection, at most one probe per
	// draw (and zero when the proposal is prev).
	for i := 0; i < 200; i++ {
		_, probes, rejects := s.ChooseEdgeSecondOrder(g, r, 0, g.OutEdges(0)[0])
		if rejects != 0 {
			t.Fatalf("rejects %d with uniform weights", rejects)
		}
		if probes > 1 {
			t.Fatalf("probes %d per uniform draw", probes)
		}
	}
}

func TestChooseEdgeSecondOrderFilteredMatchesExact(t *testing.T) {
	// With an exact membership oracle the filtered variant is the same
	// sampler.
	g := backtrackGraph()
	s := Spec{Kind: SecondOrder, Length: 6, P: 0.5, Q: 2}
	r1, r2 := rng.New(7), rng.New(7)
	prev := g.OutEdges(5)[1]
	for i := 0; i < 300; i++ {
		a, _, _ := s.ChooseEdgeSecondOrder(g, r1, 5, prev)
		b, _, _ := s.ChooseEdgeSecondOrderFiltered(r2, g.OutEdges(5), prev, func(c graph.VertexID) bool {
			return containsSorted(g.OutEdges(prev), c)
		})
		if a != b {
			t.Fatalf("draw %d: exact %d vs filtered %d", i, a, b)
		}
	}
}

func TestRunSecondOrderCompletes(t *testing.T) {
	g := backtrackGraph()
	spec := Spec{Kind: SecondOrder, Length: 8, P: 0.5, Q: 2}
	ws := NewWalks(spec, UniformStarts(g, 300, 1), 300)
	st, err := RunContext(context.Background(), g, spec, ws, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 300 {
		t.Fatalf("completed %d", st.Completed)
	}
	if st.TotalHops != 300*8 {
		t.Fatalf("hops %d", st.TotalHops)
	}
}

func TestRunSecondOrderPathsAreEdges(t *testing.T) {
	g := backtrackGraph()
	spec := Spec{Kind: SecondOrder, Length: 6, P: 2, Q: 0.5}
	ws := NewWalks(spec, UniformStarts(g, 50, 2), 50)
	_, err := RunContext(context.Background(), g, spec, ws, 4, func(i int, path []graph.VertexID) {
		for j := 1; j < len(path); j++ {
			if !containsSorted(g.OutEdges(path[j-1]), path[j]) {
				t.Fatalf("walk %d: %d->%d is not an edge", i, path[j-1], path[j])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunSecondOrderReturnRateRespondsToP(t *testing.T) {
	g := backtrackGraph()
	countBacktracks := func(p float64) int {
		spec := Spec{Kind: SecondOrder, Length: 10, P: p, Q: 1}
		ws := NewWalks(spec, UniformStarts(g, 200, 5), 200)
		n := 0
		_, err := RunContext(context.Background(), g, spec, ws, 6, func(i int, path []graph.VertexID) {
			for j := 2; j < len(path); j++ {
				if path[j] == path[j-2] {
					n++
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	low, high := countBacktracks(10), countBacktracks(0.1)
	if high <= low {
		t.Fatalf("backtracks: p=0.1 %d <= p=10 %d", high, low)
	}
}
