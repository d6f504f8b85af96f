package core

import (
	"testing"

	"flashwalker/internal/graph"
	"flashwalker/internal/walk"
)

func secondOrderGraph(t *testing.T) *graph.Graph {
	t.Helper()
	// Bidirectional edges so backtracking is always available.
	b := graph.NewBuilder(512)
	for v := graph.VertexID(0); v < 512; v++ {
		for _, d := range []graph.VertexID{(v + 1) % 512, (v + 17) % 512, (v + 101) % 512} {
			b.AddEdge(v, d)
			b.AddEdge(d, v)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEngineSecondOrderCompletes(t *testing.T) {
	g := secondOrderGraph(t)
	rc := testConfig()
	rc.Spec = walk.Spec{Kind: walk.SecondOrder, Length: 8, P: 0.5, Q: 2}
	rc.NumWalks = 300
	res := runEngine(t, g, rc)
	if res.Completed != 300 {
		t.Fatalf("completed %d of 300", res.Completed)
	}
	if res.Hops != 300*8 {
		t.Fatalf("hops %d", res.Hops)
	}
	if res.FilterProbes == 0 {
		t.Fatal("second-order run never probed the edge filter")
	}
}

func TestEngineSecondOrderChargesDRAM(t *testing.T) {
	g := secondOrderGraph(t)
	rc := testConfig()
	rc.Spec = walk.Spec{Kind: walk.SecondOrder, Length: 8, P: 0.5, Q: 2}
	rc.NumWalks = 200
	res := runEngine(t, g, rc)

	rc2 := testConfig()
	rc2.NumWalks = 200
	rc2.Spec = walk.Spec{Kind: walk.Unbiased, Length: 8}
	base := runEngine(t, g, rc2)

	// The probe traffic must show up as extra DRAM reads relative to the
	// first-order run of the same shape.
	if res.DRAMReadBytes <= base.DRAMReadBytes {
		t.Fatalf("second-order DRAM reads %d not above first-order %d",
			res.DRAMReadBytes, base.DRAMReadBytes)
	}
}

func TestEngineSecondOrderBacktrackBias(t *testing.T) {
	// Low p (cheap returns) should re-visit vertices more than high p:
	// compare the number of distinct vertices visited.
	g := secondOrderGraph(t)
	distinct := func(p float64) int {
		rc := testConfig()
		rc.Spec = walk.Spec{Kind: walk.SecondOrder, Length: 12, P: p, Q: 1}
		rc.NumWalks = 400
		rc.TrackVisits = true
		res := runEngine(t, g, rc)
		n := 0
		for _, v := range res.Visits {
			if v > 0 {
				n++
			}
		}
		return n
	}
	explore, backtrack := distinct(8), distinct(0.125)
	if backtrack >= explore {
		t.Fatalf("p=0.125 visited %d distinct vertices, p=8 visited %d — no return bias",
			backtrack, explore)
	}
}

func TestEngineSecondOrderDeterministic(t *testing.T) {
	g := secondOrderGraph(t)
	rc := testConfig()
	rc.Spec = walk.Spec{Kind: walk.SecondOrder, Length: 6, P: 0.5, Q: 2}
	rc.NumWalks = 150
	a := runEngine(t, g, rc)
	b := runEngine(t, g, rc)
	if a.Time != b.Time || a.Hops != b.Hops || a.FilterProbes != b.FilterProbes {
		t.Fatal("second-order runs not deterministic")
	}
}

func TestEngineFirstOrderHasNoFilter(t *testing.T) {
	g := secondOrderGraph(t)
	rc := testConfig()
	rc.NumWalks = 100
	res := runEngine(t, g, rc)
	if res.FilterProbes != 0 {
		t.Fatal("first-order run probed the edge filter")
	}
}
