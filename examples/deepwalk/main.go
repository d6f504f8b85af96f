// DeepWalk-style corpus generation: fixed-length unbiased walks from every
// vertex produce the "sentences" a skip-gram model would train node
// embeddings on (Perozzi et al., KDD'14 — one of the workloads motivating
// FlashWalker).
//
// The example first materializes the walk corpus with the reference
// executor (so the paths are available to a downstream trainer), then runs
// the identical workload through the FlashWalker simulator to report what
// the in-storage accelerator would achieve.
package main

import (
	"context"
	"fmt"
	"log"

	"flashwalker/internal/core"
	"flashwalker/internal/graph"
	"flashwalker/internal/harness"
	"flashwalker/internal/walk"
)

func main() {
	// A small social-network-like graph.
	g, err := graph.PowerLaw(graph.PowerLawConfig{
		NumVertices: 4096, NumEdges: 65536, Alpha: 0.8, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}

	// DeepWalk: gamma walks per vertex, length t. Here gamma=2, t=6.
	const walksPerVertex = 2
	spec := walk.Spec{Kind: walk.Unbiased, Length: 6}
	starts := walk.AllStarts(g)
	ws := walk.NewWalks(spec, starts, len(starts)*walksPerVertex)

	corpus := make([][]graph.VertexID, 0, len(ws))
	st, err := walk.RunContext(context.Background(), g, spec, ws, 99, func(i int, path []graph.VertexID) {
		cp := append([]graph.VertexID(nil), path...)
		corpus = append(corpus, cp)
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corpus: %d walks, %d hops, %d dead-ended\n",
		len(corpus), st.TotalHops, st.DeadEnded)
	fmt.Println("sample sentences:")
	for i := 0; i < 3 && i < len(corpus); i++ {
		fmt.Printf("  walk %d: %v\n", i, corpus[i])
	}
	fmt.Printf("most-visited vertex: %d (%d visits)\n",
		st.MaxVisited, st.Visits[st.MaxVisited])

	// The same workload on the in-storage accelerator.
	d := harness.Dataset{Name: "deepwalk", IDBytes: 4, SubgraphBytes: 4 << 10}
	rc := harness.FlashWalkerConfig(d, core.AllOptions(), len(ws), 1)
	eng, err := core.NewEngine(g, rc)
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.RunContext(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nFlashWalker would generate this corpus in %v (%.1fM hops/s in-storage)\n",
		res.Time, res.HopRate()/1e6)
}
