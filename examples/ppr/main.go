// Personalized PageRank by random walks with restart: walks start at a
// seed vertex and terminate with probability alpha after each hop; the
// stationary visit distribution approximates the PPR vector (Fogaras et
// al. — one of the random-walk applications in the paper's introduction).
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"flashwalker/internal/core"
	"flashwalker/internal/graph"
	"flashwalker/internal/harness"
	"flashwalker/internal/walk"
)

func main() {
	g, err := graph.RMAT(graph.DefaultRMAT(8192, 131072, 5))
	if err != nil {
		log.Fatal(err)
	}

	const (
		seedVertex = graph.VertexID(42)
		numWalks   = 20000
		alpha      = 0.15 // restart probability
	)
	spec := walk.Spec{Kind: walk.Restart, Length: 64, StopProb: alpha}
	ws := walk.NewWalks(spec, []graph.VertexID{seedVertex}, numWalks)

	st, err := walk.RunContext(context.Background(), g, spec, ws, 7, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Rank vertices by visit count — the Monte-Carlo PPR estimate.
	type scored struct {
		v graph.VertexID
		n uint64
	}
	var ranking []scored
	for v, n := range st.Visits {
		if n > 0 {
			ranking = append(ranking, scored{graph.VertexID(v), n})
		}
	}
	sort.Slice(ranking, func(i, j int) bool { return ranking[i].n > ranking[j].n })

	total := float64(st.TotalHops + uint64(st.Started))
	fmt.Printf("personalized PageRank from vertex %d (%d walks, mean length %.1f):\n",
		seedVertex, numWalks, float64(st.TotalHops)/float64(numWalks))
	for i := 0; i < 10 && i < len(ranking); i++ {
		fmt.Printf("  #%-2d vertex %-6d ppr %.4f\n", i+1, ranking[i].v, float64(ranking[i].n)/total)
	}

	// The same computation fully in-storage: every walk starts at the
	// seed vertex, visits are tracked by the engine, and the PPR ranking
	// comes straight out of the accelerator run.
	d := harness.Dataset{Name: "ppr", IDBytes: 4, SubgraphBytes: 4 << 10}
	rc := harness.FlashWalkerConfig(d, core.AllOptions(), numWalks, 3)
	rc.Spec = spec
	rc.Starts = []graph.VertexID{seedVertex}
	rc.TrackVisits = true
	eng, err := core.NewEngine(g, rc)
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.RunContext(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nFlashWalker simulated time for %d restart walks: %v (%d hops)\n",
		numWalks, res.Time, res.Hops)
	scores := make([]float64, len(res.Visits))
	for v, n := range res.Visits {
		scores[v] = float64(n)
	}
	engTop := walk.TopK(scores, 5)
	fmt.Printf("in-storage PPR top-5: %v (reference top-5: %v)\n",
		engTop, walk.TopK(func() []float64 {
			out := make([]float64, len(st.Visits))
			for v, n := range st.Visits {
				out[v] = float64(n)
			}
			return out
		}(), 5))
}
