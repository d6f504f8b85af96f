package core

// Cross-validation tests: the simulated accelerator must execute the same
// random-walk semantics as the plain reference executor (internal/walk)
// and the GraphWalker baseline — not the same trajectories (different RNG
// streams), but the same statistical behaviour and exact accounting
// invariants.

import (
	"context"
	"math"
	"testing"

	"flashwalker/internal/baseline"
	"flashwalker/internal/graph"
	"flashwalker/internal/walk"
)

// TestEngineMatchesReferenceHopCounts: on a dead-end-free graph both the
// engine and the reference executor must complete every walk in exactly
// Length hops.
func TestEngineMatchesReferenceHopCounts(t *testing.T) {
	g := graph.Complete(128)
	rc := testConfig()
	rc.NumWalks = 400
	res := runEngine(t, g, rc)

	spec := rc.Spec
	ws := walk.NewWalks(spec, walk.UniformStarts(g, 400, rc.StartSeed), 400)
	ref, err := walk.RunContext(context.Background(), g, spec, ws, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hops != ref.TotalHops {
		t.Fatalf("engine hops %d != reference %d", res.Hops, ref.TotalHops)
	}
	if res.Completed != ref.Completed {
		t.Fatalf("engine completed %d != reference %d", res.Completed, ref.Completed)
	}
}

// TestEngineDeadEndRateMatchesReference: on a graph with sinks, the
// fraction of dead-ended walks must statistically agree between the
// engine and the reference executor.
func TestEngineDeadEndRateMatchesReference(t *testing.T) {
	// Half the vertices are sinks.
	b := graph.NewBuilder(400)
	for v := graph.VertexID(0); v < 200; v++ {
		b.AddEdge(v, (v+1)%200) // live cycle
		b.AddEdge(v, 200+v)     // edge into a sink
		b.AddEdge(v, (v+7)%200) // more live edges
		b.AddEdge(v, 200+(v+3)%200)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	rc := testConfig()
	rc.NumWalks = n
	res := runEngine(t, g, rc)

	spec := rc.Spec
	ws := walk.NewWalks(spec, walk.UniformStarts(g, n, rc.StartSeed), n)
	ref, err := walk.RunContext(context.Background(), g, spec, ws, 99, nil)
	if err != nil {
		t.Fatal(err)
	}
	engRate := float64(res.DeadEnded) / float64(res.Started)
	refRate := float64(ref.DeadEnded) / float64(ref.Started)
	if math.Abs(engRate-refRate) > 0.05 {
		t.Fatalf("dead-end rates diverge: engine %.3f vs reference %.3f", engRate, refRate)
	}
}

// TestEngineMatchesBaselineOutcomes: both simulated systems run the same
// workload; their aggregate outcomes (completions, dead-ends, total hops)
// must agree within statistical noise.
func TestEngineMatchesBaselineOutcomes(t *testing.T) {
	g := testGraph(t)
	const n = 1500
	rc := testConfig()
	rc.NumWalks = n
	fw := runEngine(t, g, rc)

	cfg := baseline.Config{
		MemoryBytes:  1 << 20,
		WalkMemBytes: 1 << 20,
		BlockBytes:   8 << 10,
		IDBytes:      4,
		CPUHopTime:   100,
		Threads:      8,
		Seed:         5,
	}
	e, err := baseline.New(g, cfg, rc.Spec, n, rc.StartSeed)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := e.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if fw.Started != gw.Started {
		t.Fatal("different workloads")
	}
	fwDead := float64(fw.DeadEnded) / float64(fw.Started)
	gwDead := float64(gw.DeadEnded) / float64(gw.Started)
	if math.Abs(fwDead-gwDead) > 0.05 {
		t.Fatalf("dead-end rates: FlashWalker %.3f vs GraphWalker %.3f", fwDead, gwDead)
	}
	// Hops per completed walk must be exactly Length in both.
	if fw.Hops < uint64(fw.Completed)*6 || gw.Hops < uint64(gw.Completed)*6 {
		t.Fatal("completed walks under-hopped")
	}
}

// TestWalkCountConservation: started = completed + dead-ended, exactly, in
// every option configuration and partitioning regime.
func TestWalkCountConservation(t *testing.T) {
	g := testGraph(t)
	for _, spp := range []int{4, 16, 64, 4096} {
		for _, opts := range []Options{{}, AllOptions()} {
			rc := testConfig()
			rc.PartCfg.SubgraphsPerPartition = spp
			rc.Cfg.Opts = opts
			rc.NumWalks = 700
			res := runEngine(t, g, rc)
			if res.Completed+res.DeadEnded != res.Started {
				t.Fatalf("spp=%d opts=%+v: %d + %d != %d",
					spp, opts, res.Completed, res.DeadEnded, res.Started)
			}
		}
	}
}

// TestAuditModeCleanRun: the conservation auditor must stay silent on a
// healthy run across partitioning regimes and option sets.
func TestAuditModeCleanRun(t *testing.T) {
	g := testGraph(t)
	for _, spp := range []int{8, 64, 4096} {
		rc := testConfig()
		rc.Audit = true
		rc.PartCfg.SubgraphsPerPartition = spp
		rc.NumWalks = 600
		res := runEngine(t, g, rc)
		if res.WalksFinished() != 600 {
			t.Fatalf("spp=%d: finished %d", spp, res.WalksFinished())
		}
	}
}

// TestEngineVisitSkewMatchesReference: the engine's traffic should reflect
// the same hot-vertex skew the reference executor sees — hot subgraphs
// must absorb a meaningful share of updates on a skewed graph.
func TestEngineVisitSkewMatchesReference(t *testing.T) {
	g, err := graph.PowerLaw(graph.PowerLawConfig{
		NumVertices: 2048, NumEdges: 32768, Alpha: 1.0, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rc := testConfig()
	rc.NumWalks = 1000
	res := runEngine(t, g, rc)
	hotShare := float64(res.HotHitsBoard+res.HotHitsChannel) /
		float64(res.Hops+uint64(res.DeadEnded))
	if hotShare < 0.02 {
		t.Fatalf("hot subgraphs absorbed only %.1f%% of updates on a skewed graph", 100*hotShare)
	}
}

// TestTinyBuffersStillComplete: pathologically small buffers must degrade
// performance, never correctness.
func TestTinyBuffersStillComplete(t *testing.T) {
	g := testGraph(t)
	rc := testConfig()
	rc.Cfg.ChipRovingBufBytes = 64 // ~3 walks
	rc.Cfg.ChipWalkQueueBytes = 256
	rc.Cfg.PartitionWalkEntryBytes = 64
	rc.Cfg.ForeignerBufBytes = 128
	rc.Cfg.CompletedBufBytes = 64
	rc.Cfg.ChipCompletedBufBytes = 64
	rc.Cfg.ChannelWalkQueueBytes = 128
	rc.Cfg.BoardWalkQueueBytes = 128
	rc.NumWalks = 400
	res := runEngine(t, g, rc)
	if res.WalksFinished() != res.Started {
		t.Fatalf("finished %d of %d with tiny buffers", res.WalksFinished(), res.Started)
	}
	if res.GuiderStalls == 0 {
		t.Error("tiny roving buffer never stalled a guider")
	}
}

// TestSingleChipGeometry: degenerate SSD geometries must work.
func TestSingleChipGeometry(t *testing.T) {
	g := graph.Ring(256)
	rc := testConfig()
	rc.FlashCfg.Channels = 1
	rc.FlashCfg.ChipsPerChannel = 1
	rc.NumWalks = 100
	res := runEngine(t, g, rc)
	if res.WalksFinished() != 100 {
		t.Fatalf("finished %d of 100 on a single chip", res.WalksFinished())
	}
}

// TestManySlotsGeometry: a chip buffer far larger than the graph must keep
// everything resident after warmup.
func TestManySlotsGeometry(t *testing.T) {
	g := graph.Ring(256) // 1 or 2 blocks
	rc := testConfig()
	rc.Cfg.ChipSubgraphBufBytes = 64 << 10 // 64 slots of 1 KiB
	rc.NumWalks = 200
	res := runEngine(t, g, rc)
	if res.WalksFinished() != 200 {
		t.Fatal("incomplete")
	}
}

// TestLongWalks: hop budgets far above the default stress the roving
// pipeline (each walk crosses many subgraphs).
func TestLongWalks(t *testing.T) {
	g := testGraph(t)
	rc := testConfig()
	rc.Spec.Length = 40
	rc.NumWalks = 150
	res := runEngine(t, g, rc)
	if res.WalksFinished() != 150 {
		t.Fatal("incomplete")
	}
	if res.Hops < uint64(res.Completed)*40 {
		t.Fatal("hop accounting wrong for long walks")
	}
}

// TestChannelDetectsForeigners: when a subgraph range lies entirely in a
// non-current partition, the channel-level approximate search classifies
// the walk as a foreigner without board-guider involvement — observable as
// foreigners appearing while the full mapping-table search stays cold for
// those walks (range queries >> table searches for out-of-partition hits).
func TestChannelDetectsForeigners(t *testing.T) {
	g := testGraph(t)
	rc := testConfig()
	// Align ranges within partitions so most ranges are unambiguous.
	rc.PartCfg.SubgraphsPerPartition = 16
	rc.PartCfg.RangeSize = 8
	rc.NumWalks = 800
	res := runEngine(t, g, rc)
	if res.WalksFinished() != 800 {
		t.Fatalf("finished %d", res.WalksFinished())
	}
	if res.ForeignerWalks == 0 {
		t.Fatal("no foreigners with 16-block partitions")
	}
	if res.RangeQueries == 0 {
		t.Fatal("approximate search never ran")
	}
}

// TestZeroLengthBudgetRejected guards the config boundary.
func TestZeroLengthBudgetRejected(t *testing.T) {
	g := graph.Ring(8)
	rc := testConfig()
	rc.Spec.Length = 0
	if _, err := NewEngine(g, rc); err == nil {
		t.Fatal("zero-length walks accepted")
	}
}
