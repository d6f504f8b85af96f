package flashwalker

// One benchmark per table and figure of the paper's evaluation section.
// Each benchmark runs its experiment at a reduced walk-count scale so the
// whole suite completes in minutes; cmd/experiments reproduces the same
// outputs at full scale. Custom metrics carry the figures' headline
// numbers (speedups, traffic ratios, straggler tails) into the benchmark
// output so `go test -bench=.` doubles as a results table.

import (
	"context"
	"fmt"
	"testing"

	"flashwalker/internal/core"
	"flashwalker/internal/graph"
	"flashwalker/internal/harness"
	"flashwalker/internal/sim"
	"flashwalker/internal/walk"
)

// benchScale reduces every experiment's walk counts (1.0 = the scaled
// defaults used by cmd/experiments).
const benchScale = 0.05

const benchSeed = 1

// benchWorkers runs the figure grids through the harness sweep pool at one
// worker per CPU; results are identical to serial, only wall-clock drops.
const benchWorkers = 0

// BenchmarkTable4Datasets regenerates Table IV: dataset statistics of the
// five scaled graphs (generation cost is what is measured; the registry
// caches them for the figure benchmarks).
func BenchmarkTable4Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Table4()
		if err != nil {
			b.Fatal(err)
		}
		var edges uint64
		for _, r := range rows {
			edges += r.E
		}
		b.ReportMetric(float64(edges), "edges")
	}
}

// BenchmarkFig1Breakdown regenerates Figure 1: GraphWalker's time-cost
// breakdown on the ClueWeb analogue. The headline metric is the fraction
// of time spent loading graph structure (the paper's motivation: it
// dominates).
func BenchmarkFig1Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Fig1(context.Background(), benchScale, benchSeed, benchWorkers)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(100*last.LoadGraph, "load-graph-%")
	}
}

// BenchmarkFig5Speedup regenerates Figure 5: FlashWalker speedup over
// GraphWalker across all five datasets and a walk-count sweep.
func BenchmarkFig5Speedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Fig5(context.Background(), benchScale, benchSeed, benchWorkers)
		if err != nil {
			b.Fatal(err)
		}
		min, avg, max := harness.Fig5Summary(rows)
		b.ReportMetric(min, "speedup-min")
		b.ReportMetric(avg, "speedup-avg")
		b.ReportMetric(max, "speedup-max")
	}
}

// BenchmarkFig6Traffic regenerates Figure 6: flash read-traffic ratio and
// achieved flash bandwidth improvement at the fixed walk counts.
func BenchmarkFig6Traffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Fig6(context.Background(), benchScale, benchSeed, benchWorkers)
		if err != nil {
			b.Fatal(err)
		}
		var bwGain, traffic float64
		for _, r := range rows {
			bwGain += r.BandwidthGain
			traffic += r.TrafficReduction
		}
		n := float64(len(rows))
		b.ReportMetric(bwGain/n, "bw-gain-avg")
		b.ReportMetric(traffic/n, "traffic-reduction-avg")
	}
}

// BenchmarkFig7Memory regenerates Figure 7: speedup versus GraphWalker
// with the scaled 4/8/16 GB memory budgets.
func BenchmarkFig7Memory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Fig7(context.Background(), benchScale, benchSeed, benchWorkers)
		if err != nil {
			b.Fatal(err)
		}
		var at4, at16 float64
		var n4, n16 int
		for _, r := range rows {
			switch r.MemLabel {
			case "4GB":
				at4 += r.Speedup
				n4++
			case "16GB":
				at16 += r.Speedup
				n16++
			}
		}
		b.ReportMetric(at4/float64(n4), "speedup-4GB-avg")
		b.ReportMetric(at16/float64(n16), "speedup-16GB-avg")
	}
}

// BenchmarkFig8Resource regenerates Figure 8 on the ClueWeb analogue:
// binned flash/channel bandwidth and walk progression, with the
// straggler-tail fraction as the headline metric (the paper: ~90% of
// walks finish early, the rest dominates the run).
func BenchmarkFig8Resource(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := harness.Fig8(context.Background(), "CW-S", benchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*s.StragglerTail(0.9), "straggler-tail-%")
		var peak float64
		for _, v := range s.ReadBW {
			if v > peak {
				peak = v
			}
		}
		b.ReportMetric(peak/1e9, "peak-read-GB/s")
	}
}

// BenchmarkFig9Ablation regenerates Figure 9: the incremental
// optimization study (baseline, +WQ, +WQ+HS, +WQ+HS+SS). It runs at a
// larger scale than the other benches: the optimizations amortize fixed
// costs (hot-subgraph preloads), so very small walk counts invert the
// effect the figure measures.
func BenchmarkFig9Ablation(b *testing.B) {
	const fig9Scale = 0.4
	for i := 0; i < b.N; i++ {
		rows, err := harness.Fig9(context.Background(), fig9Scale, benchSeed, benchWorkers)
		if err != nil {
			b.Fatal(err)
		}
		var full float64
		for _, r := range rows {
			full += r.WQHSSS
		}
		b.ReportMetric(full/float64(len(rows)), "all-opts-speedup-avg")
	}
}

// BenchmarkFlashWalkerTT measures a single FlashWalker run on the Twitter
// analogue (a unit of the Figure 5 grid, useful for profiling the
// simulator itself).
func BenchmarkFlashWalkerTT(b *testing.B) {
	d, err := harness.DatasetByName("TT-S")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := d.Graph(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var hops uint64
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFlashWalker(context.Background(), d, core.AllOptions(), 5000, benchSeed, 0)
		if err != nil {
			b.Fatal(err)
		}
		hops += res.Hops
		b.ReportMetric(res.HopRate()/1e6, "sim-Mhops/s")
	}
	b.ReportMetric(float64(hops)/1e6/b.Elapsed().Seconds(), "wall-Mhops/s")
}

// BenchmarkGraphWalkerTT is the baseline counterpart of
// BenchmarkFlashWalkerTT.
func BenchmarkGraphWalkerTT(b *testing.B) {
	d, err := harness.DatasetByName("TT-S")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := d.Graph(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunGraphWalker(context.Background(), d, harness.GWMem8GB, 5000, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArrayBoards measures the multi-board array on the multi-shard
// dataset at each board count of the scaling extension. The per-count
// sim-Mhops/s metric is the 1-board vs N-board step-rate comparison
// BENCH_PR6.json stores; speedup-vs-1board carries the simulated-time
// scaling alongside it. Walk outcomes are identical at every count, so
// the ratio isolates the fabric model's cost and the shard parallelism.
func BenchmarkArrayBoards(b *testing.B) {
	d, err := harness.DatasetByName("MB-S")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := d.Graph(); err != nil {
		b.Fatal(err)
	}
	const walks = 20_000
	var base sim.Time
	for _, nb := range harness.ExtBoardCounts {
		b.Run(fmt.Sprintf("boards=%d", nb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := harness.RunFlashWalkerBoards(context.Background(), d, core.AllOptions(), walks, nb, benchSeed)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.HopRate()/1e6, "sim-Mhops/s")
				if nb == 1 {
					base = res.Time
				} else if base > 0 {
					b.ReportMetric(float64(base)/float64(res.Time), "speedup-vs-1board")
				}
			}
		})
	}
}

// BenchmarkEnergyExtension regenerates the energy-comparison extension
// experiment (the paper's §I energy motivation quantified).
func BenchmarkEnergyExtension(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.ExtEnergy(context.Background(), benchScale, benchSeed, benchWorkers)
		if err != nil {
			b.Fatal(err)
		}
		var ratio float64
		for _, r := range rows {
			ratio += r.Ratio
		}
		b.ReportMetric(ratio/float64(len(rows)), "energy-ratio-avg")
	}
}

// --- Ablation benches for the design choices DESIGN.md calls out. ---
// Each sweeps one modelling knob on the FS-S workload and reports the
// simulated time per setting, so the sensitivity of the headline results
// to that choice is measurable.

// runFSWith runs FS-S with a tweaked configuration.
func runFSWith(b *testing.B, mutate func(rc *core.RunConfig)) *core.Result {
	b.Helper()
	d, err := harness.DatasetByName("FS-S")
	if err != nil {
		b.Fatal(err)
	}
	g, err := d.Graph()
	if err != nil {
		b.Fatal(err)
	}
	rc := harness.FlashWalkerConfig(d, core.AllOptions(), 5000, benchSeed)
	mutate(&rc)
	e, err := core.NewEngine(g, rc)
	if err != nil {
		b.Fatal(err)
	}
	res, err := e.RunContext(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationRovingInterval sweeps the channel-level roving-walk
// fetch interval (§III-B's "fixed time interval").
func BenchmarkAblationRovingInterval(b *testing.B) {
	for _, iv := range []sim.Time{500 * sim.Nanosecond, 2 * sim.Microsecond, 8 * sim.Microsecond, 32 * sim.Microsecond} {
		iv := iv
		b.Run(iv.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runFSWith(b, func(rc *core.RunConfig) { rc.Cfg.RovingFetchInterval = iv })
				b.ReportMetric(res.Time.Seconds()*1e6, "sim-us")
			}
		})
	}
}

// BenchmarkAblationLoadBatching sweeps MinWalksToLoad (the scaled-density
// compensation documented in DESIGN.md §6 and EXPERIMENTS.md).
func BenchmarkAblationLoadBatching(b *testing.B) {
	for _, min := range []int{1, 4, 8, 32} {
		min := min
		b.Run(fmt.Sprintf("min=%d", min), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runFSWith(b, func(rc *core.RunConfig) { rc.Cfg.MinWalksToLoad = min })
				b.ReportMetric(res.Time.Seconds()*1e6, "sim-us")
				b.ReportMetric(float64(res.Flash.ReadBytes)/(1<<20), "read-MiB")
			}
		})
	}
}

// BenchmarkAblationQueryCache sweeps the walk query cache size (§III-D).
func BenchmarkAblationQueryCache(b *testing.B) {
	for _, kb := range []int64{1, 4, 16} {
		kb := kb
		b.Run(fmt.Sprintf("%dKiB", kb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runFSWith(b, func(rc *core.RunConfig) { rc.Cfg.QueryCacheBytes = kb << 10 })
				b.ReportMetric(100*res.QueryCacheHitRate(), "hit-%")
				b.ReportMetric(res.Time.Seconds()*1e6, "sim-us")
			}
		})
	}
}

// BenchmarkAblationTablePorts sweeps the mapping-table bank count (the
// contention the query cache relieves).
func BenchmarkAblationTablePorts(b *testing.B) {
	for _, ports := range []int{1, 4, 16} {
		ports := ports
		b.Run(fmt.Sprintf("ports=%d", ports), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runFSWith(b, func(rc *core.RunConfig) { rc.Cfg.TablePorts = ports })
				b.ReportMetric(res.Time.Seconds()*1e6, "sim-us")
			}
		})
	}
}

// BenchmarkSecondOrderWalks measures the in-storage dynamic (node2vec
// p/q) walk extension against first-order walks of the same shape: the
// overhead is the edge-filter probe traffic.
func BenchmarkSecondOrderWalks(b *testing.B) {
	var hops uint64
	for i := 0; i < b.N; i++ {
		res := runFSWith(b, func(rc *core.RunConfig) {
			rc.Spec = walk.Spec{Kind: walk.SecondOrder, Length: 6, P: 0.5, Q: 2}
		})
		hops += res.Hops
		b.ReportMetric(res.Time.Seconds()*1e6, "sim-us")
		b.ReportMetric(float64(res.FilterProbes), "filter-probes")
	}
	b.ReportMetric(float64(hops)/1e6/b.Elapsed().Seconds(), "wall-Mhops/s")
}

// BenchmarkBatchSecondOrder is the figure-scale second-order workload: the
// FS-S node2vec run at the full scaled walk count, where per-hop CPU —
// adjacency gathers and rejection-sampler bloom probes — dominates
// wall-clock. wall-Mhops/s is simulated hops retired per wall-clock second
// (host throughput). The name dates from the batched update kernel this
// row once measured; BENCH_PR7.json gates it under that name.
func BenchmarkBatchSecondOrder(b *testing.B) {
	d, err := harness.DatasetByName("FS-S")
	if err != nil {
		b.Fatal(err)
	}
	g, err := d.Graph()
	if err != nil {
		b.Fatal(err)
	}
	const walks = 40_000
	var hops uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Engine construction (partitioning, edge-filter build) is setup,
		// not step rate: only the walk drain is timed.
		b.StopTimer()
		rc := harness.FlashWalkerConfig(d, core.AllOptions(), walks, benchSeed)
		rc.Spec = walk.Spec{Kind: walk.SecondOrder, Length: 6, P: 0.5, Q: 2}
		e, err := core.NewEngine(g, rc)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := e.RunContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		hops += res.Hops
		b.ReportMetric(res.Time.Seconds()*1e6, "sim-us")
	}
	b.ReportMetric(float64(hops)/1e6/b.Elapsed().Seconds(), "wall-Mhops/s")
}

// BenchmarkAblationBiasedSampler compares the paper's ITS binary search
// against O(1) alias tables for biased walks (KnightKing's choice): the
// alias tables trade 2x per-edge metadata for constant-time sampling.
func BenchmarkAblationBiasedSampler(b *testing.B) {
	d, err := harness.DatasetByName("FS-S")
	if err != nil {
		b.Fatal(err)
	}
	gcfg := harness.Dataset{Name: "FS-W", IDBytes: 4, SubgraphBytes: d.SubgraphBytes}
	// A weighted FS-shaped graph.
	wg, err := weightedFS()
	if err != nil {
		b.Fatal(err)
	}
	for _, alias := range []bool{false, true} {
		alias := alias
		name := "its"
		if alias {
			name = "alias"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rc := harness.FlashWalkerConfig(gcfg, core.AllOptions(), 5000, benchSeed)
				rc.Spec = walk.Spec{Kind: walk.Biased, Length: 6}
				rc.UseAliasSampling = alias
				e, err := core.NewEngine(wg, rc)
				if err != nil {
					b.Fatal(err)
				}
				res, err := e.RunContext(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Time.Seconds()*1e6, "sim-us")
			}
		})
	}
}

var weightedFSCache *graph.Graph

func weightedFS() (*graph.Graph, error) {
	if weightedFSCache != nil {
		return weightedFSCache, nil
	}
	cfg := graph.RMATConfig{
		NumVertices: 16_016, NumEdges: 881_000,
		A: 0.48, B: 0.22, C: 0.22, D: 0.08,
		Noise: 0.05, RemoveDuplicates: true, Weighted: true, Seed: 42,
	}
	g, err := graph.RMAT(cfg)
	if err != nil {
		return nil, err
	}
	weightedFSCache = g
	return g, nil
}

// BenchmarkAblationAlpha sweeps Eq. 1's α (the Fig. 9 SS discussion: a
// lower α de-prioritizes buffered walks to relieve the channel bus).
func BenchmarkAblationAlpha(b *testing.B) {
	for _, alpha := range []float64{0.4, 1.2, 2.4} {
		alpha := alpha
		b.Run(fmt.Sprintf("alpha=%.1f", alpha), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runFSWith(b, func(rc *core.RunConfig) { rc.Cfg.Alpha = alpha })
				b.ReportMetric(res.Time.Seconds()*1e6, "sim-us")
				b.ReportMetric(float64(res.PWBOverflows), "pwb-overflows")
			}
		})
	}
}
