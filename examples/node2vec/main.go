// Biased (weighted) random walks via inverse transform sampling — the
// second-order machinery behind node2vec-style sampling (Grover &
// Leskovec, KDD'16). Edge weights skew the neighbor-sampling probability
// distribution; FlashWalker implements the bias with the pre-computed
// cumulative-distribution list and a binary search in the walk updater
// (paper §III-B).
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
	// A weighted graph: R-MAT structure with uniform random edge weights.
	cfg := graph.DefaultRMAT(8192, 65536, 21)
	cfg.Weighted = true
	g, err := graph.RMAT(cfg)
	if err != nil {
		log.Fatal(err)
	}

	const numWalks = 8192
	spec := walk.Spec{Kind: walk.Biased, Length: 6}
	starts := walk.UniformStarts(g, numWalks, 13)
	ws := walk.NewWalks(spec, starts, numWalks)

	// Reference execution: verify the weight bias empirically on the
	// heaviest vertex.
	st, err := walk.RunContext(context.Background(), g, spec, ws, 17, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("biased corpus: %d walks, %d hops, most-visited vertex %d\n",
		st.Started, st.TotalHops, st.MaxVisited)

	// Show the sampling distribution at one vertex.
	v := st.MaxVisited
	if g.OutDegree(v) > 1 {
		w := g.OutWeights(v)
		sum := g.SumWeight(v)
		fmt.Printf("vertex %d neighbor-sampling probabilities (first 5 of %d):\n", v, len(w))
		for i := 0; i < 5 && i < len(w); i++ {
			fmt.Printf("  -> %-6d p=%.3f\n", g.OutEdges(v)[i], float64(w[i])/sum)
		}
	}

	// The same biased workload in-storage. Biased updates cost extra ITS
	// binary-search cycles in the walk updaters (visible as a lower hop
	// rate than the unbiased examples).
	d := harness.Dataset{Name: "node2vec", IDBytes: 4, SubgraphBytes: 8 << 10}
	rc := harness.FlashWalkerConfig(d, core.AllOptions(), numWalks, 5)
	rc.Spec = spec
	eng, err := core.NewEngine(g, rc)
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.RunContext(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nFlashWalker simulated time (1st-order biased): %v (%.1fM hops/s, %d pre-walks)\n",
		res.Time, res.HopRate()/1e6, res.PreWalks)

	// Full node2vec is second-order: the transition depends on the
	// previous vertex (return parameter p, in-out parameter q). In
	// storage this needs a neighbor test for a vertex whose subgraph may
	// not be loaded; the engine answers it from a DRAM-resident edge
	// Bloom filter, charging a channel-bus round trip per probe.
	rc2 := harness.FlashWalkerConfig(d, core.AllOptions(), numWalks, 5)
	rc2.Spec = walk.Spec{Kind: walk.SecondOrder, Length: 6, P: 0.5, Q: 2}
	eng2, err := core.NewEngine(g, rc2)
	if err != nil {
		log.Fatal(err)
	}
	res2, err := eng2.RunContext(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("FlashWalker simulated time (2nd-order p=0.5 q=2): %v (%d edge-filter probes)\n",
		res2.Time, res2.FilterProbes)
}
