package harness

import (
	"context"
	"fmt"

	"flashwalker/internal/core"
	"flashwalker/internal/graph"
	"flashwalker/internal/metrics"
	"flashwalker/internal/sim"
	"flashwalker/internal/walk"
)

// AlgorithmRow is one walk-algorithm family run through the in-storage
// accelerator — an extension beyond the paper's evaluation (which fixes
// unbiased walks of length 6) demonstrating the engine's support for
// every §II-A walk class.
type AlgorithmRow struct {
	Name    string
	Spec    walk.Spec
	Walks   int
	Time    sim.Time
	Hops    uint64
	HopRate float64 // hops per simulated second
	Probes  uint64  // edge-filter probes (second-order only)
}

// fsWeightedRMAT is the graph ExtAlgorithms walks: FS-S's shape with
// weights (biased walks need them; the unweighted kinds ignore them).
var fsWeightedRMAT = graph.RMATConfig{
	NumVertices: 16_016, NumEdges: 881_000,
	A: 0.48, B: 0.22, C: 0.22, D: 0.08,
	Noise: 0.05, RemoveDuplicates: true, Weighted: true, Seed: 42,
}

// ExtAlgorithms runs unbiased, biased (ITS), restart (PPR), and
// second-order (node2vec) walks through FlashWalker on a weighted
// Friendster-shaped graph and reports the relative cost of each sampling
// scheme. The graph is generated once up front; the four algorithm runs
// then sweep as independent grid points on workers goroutines.
func ExtAlgorithms(ctx context.Context, scale float64, seed uint64, workers int) ([]AlgorithmRow, error) {
	g, err := graph.RMAT(fsWeightedRMAT)
	if err != nil {
		return nil, err
	}
	d := Dataset{Name: "FS-S-weighted", IDBytes: 4, SubgraphBytes: 4 << 10}
	walks := scaleWalks(50_000, scale)

	specs := []struct {
		name string
		spec walk.Spec
	}{
		{"unbiased", walk.Spec{Kind: walk.Unbiased, Length: WalkLength}},
		{"biased (ITS)", walk.Spec{Kind: walk.Biased, Length: WalkLength}},
		{"restart (PPR)", walk.Spec{Kind: walk.Restart, Length: 64, StopProb: 1.0 / WalkLength}},
		{"second-order (p=0.5,q=2)", walk.Spec{Kind: walk.SecondOrder, Length: WalkLength, P: 0.5, Q: 2}},
	}
	rows := make([]AlgorithmRow, len(specs))
	err = sweep(ctx, workers, len(specs), func(i int) error {
		s := specs[i]
		rc := FlashWalkerConfig(d, core.AllOptions(), walks, seed)
		rc.Spec = s.spec
		e, err := core.NewEngine(g, rc)
		if err != nil {
			return fmt.Errorf("algorithms %s: %w", s.name, err)
		}
		res, err := e.RunContext(ctx)
		if err != nil {
			return fmt.Errorf("algorithms %s: %w", s.name, err)
		}
		rows[i] = AlgorithmRow{
			Name: s.name, Spec: s.spec, Walks: walks,
			Time: res.Time, Hops: res.Hops,
			HopRate: res.HopRate(), Probes: res.FilterProbes,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatExtAlgorithms renders the algorithm comparison.
func FormatExtAlgorithms(rows []AlgorithmRow) string {
	t := &metrics.Table{
		Title:   "Extension: walk-algorithm families on the in-storage accelerator",
		Headers: []string{"algorithm", "walks", "time", "hops", "Mhops/s", "filter probes"},
	}
	for _, r := range rows {
		t.AddRow(r.Name, fmt.Sprint(r.Walks), r.Time.String(), fmt.Sprint(r.Hops),
			fmt.Sprintf("%.1f", r.HopRate/1e6), fmt.Sprint(r.Probes))
	}
	return t.Render()
}
