package core

import (
	"context"
	"testing"

	"flashwalker/internal/graph"
	"flashwalker/internal/stats"
	"flashwalker/internal/walk"
)

func TestVisitTrackingConservation(t *testing.T) {
	g := testGraph(t)
	rc := testConfig()
	rc.TrackVisits = true
	rc.NumWalks = 500
	res := runEngine(t, g, rc)
	if res.Visits == nil {
		t.Fatal("visits not tracked")
	}
	var total uint64
	for _, v := range res.Visits {
		total += v
	}
	// Visits = starts + hops, exactly (the reference executor's invariant).
	want := uint64(res.Started) + res.Hops
	if total != want {
		t.Fatalf("visit total %d != starts+hops %d", total, want)
	}
}

func TestVisitsDisabledByDefault(t *testing.T) {
	g := graph.Ring(64)
	rc := testConfig()
	rc.NumWalks = 50
	res := runEngine(t, g, rc)
	if res.Visits != nil {
		t.Fatal("visits tracked without TrackVisits")
	}
}

// TestVisitDistributionMatchesReference compares the engine's stationary
// visit distribution against the reference executor's on the same graph
// and workload size. Different RNG streams mean different trajectories,
// but the per-vertex visit *distribution* must agree: we compare the two
// empirical distributions with a total-variation bound.
func TestVisitDistributionMatchesReference(t *testing.T) {
	g := graph.Complete(64) // symmetric: tight expected distribution
	const n = 3000
	rc := testConfig()
	rc.TrackVisits = true
	rc.NumWalks = n
	res := runEngine(t, g, rc)

	spec := rc.Spec
	ws := walk.NewWalks(spec, walk.UniformStarts(g, n, rc.StartSeed), n)
	ref, err := walk.RunContext(context.Background(), g, spec, ws, 12345, nil)
	if err != nil {
		t.Fatal(err)
	}

	eng := make([]float64, len(res.Visits))
	refv := make([]float64, len(ref.Visits))
	for v := range res.Visits {
		eng[v] = float64(res.Visits[v])
		refv[v] = float64(ref.Visits[v])
	}
	tv, err := stats.TotalVariation(eng, refv)
	if err != nil {
		t.Fatal(err)
	}
	if tv > 0.05 {
		t.Fatalf("visit distributions diverge: TV distance %.4f", tv)
	}
}

func TestEngineCustomStarts(t *testing.T) {
	g := graph.Complete(64)
	rc := testConfig()
	rc.TrackVisits = true
	rc.NumWalks = 500
	rc.Starts = []graph.VertexID{7}
	res := runEngine(t, g, rc)
	if res.Completed != 500 {
		t.Fatalf("completed %d", res.Completed)
	}
	// Every walk started at 7, so vertex 7 has at least 500 visits.
	if res.Visits[7] < 500 {
		t.Fatalf("source visits %d", res.Visits[7])
	}
}

func TestEngineRejectsBadStarts(t *testing.T) {
	g := graph.Ring(8)
	rc := testConfig()
	rc.Starts = []graph.VertexID{99}
	if _, err := NewEngine(g, rc); err == nil {
		t.Fatal("out-of-range start accepted")
	}
}

func TestEnginePPRFromSource(t *testing.T) {
	// In-engine personalized PageRank: restart walks all from one source;
	// the visit distribution must concentrate around the source compared
	// with uniform starts.
	g, err := graph.RMAT(graph.DefaultRMAT(1024, 16384, 21))
	if err != nil {
		t.Fatal(err)
	}
	src := graph.VertexID(0)
	for g.OutDegree(src) == 0 {
		src++
	}
	rc := testConfig()
	rc.Spec = walk.Spec{Kind: walk.Restart, Length: 64, StopProb: 0.2}
	rc.NumWalks = 1000
	rc.Starts = []graph.VertexID{src}
	rc.TrackVisits = true
	res := runEngine(t, g, rc)
	if res.WalksFinished() != 1000 {
		t.Fatalf("finished %d (dead ends on sinks are fine, losses are not)", res.WalksFinished())
	}
	maxV, maxN := graph.VertexID(0), uint64(0)
	for v, n := range res.Visits {
		if n > maxN {
			maxV, maxN = graph.VertexID(v), n
		}
	}
	if maxV != src {
		t.Fatalf("most-visited vertex %d, want source %d", maxV, src)
	}
}

// TestVisitSkewOnPowerLaw: hot vertices must dominate visits the same way
// in the engine as in the reference run (rank correlation on the top set).
func TestVisitSkewOnPowerLaw(t *testing.T) {
	g, err := graph.PowerLaw(graph.PowerLawConfig{
		NumVertices: 1024, NumEdges: 16384, Alpha: 1.0, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	rc := testConfig()
	rc.TrackVisits = true
	rc.NumWalks = n
	res := runEngine(t, g, rc)

	spec := rc.Spec
	ws := walk.NewWalks(spec, walk.UniformStarts(g, n, rc.StartSeed), n)
	ref, err := walk.RunContext(context.Background(), g, spec, ws, 777, nil)
	if err != nil {
		t.Fatal(err)
	}

	// The engine's top-20 most-visited vertices should overlap heavily
	// with the reference's top-20.
	engScores := make([]float64, len(res.Visits))
	refScores := make([]float64, len(ref.Visits))
	for v := range res.Visits {
		engScores[v] = float64(res.Visits[v])
		refScores[v] = float64(ref.Visits[v])
	}
	engTop := walk.TopK(engScores, 20)
	refTop := walk.TopK(refScores, 20)
	refSet := map[graph.VertexID]bool{}
	for _, v := range refTop {
		refSet[v] = true
	}
	overlap := 0
	for _, v := range engTop {
		if refSet[v] {
			overlap++
		}
	}
	if overlap < 12 {
		t.Fatalf("top-20 hot-vertex overlap only %d/20", overlap)
	}
}
