package core

import (
	"context"
	"testing"

	"flashwalker/internal/dram"
	"flashwalker/internal/flash"
	"flashwalker/internal/graph"
	"flashwalker/internal/partition"
	"flashwalker/internal/sim"
	"flashwalker/internal/walk"
)

// testConfig returns a small, fast configuration: a 4-channel x 2-chip SSD,
// 1 KiB blocks, and accelerator buffers scaled to match.
func testConfig() RunConfig {
	fc := flash.Default()
	fc.Channels = 4
	fc.ChipsPerChannel = 2
	cfg := Default()
	cfg.ChipSubgraphBufBytes = 4 << 10 // 4 slots of 1 KiB
	cfg.ChannelSubgraphBufBytes = 8 << 10
	cfg.BoardSubgraphBufBytes = 16 << 10
	cfg.ChipWalkQueueBytes = 16 << 10
	cfg.PartitionWalkEntryBytes = 4 << 10
	cfg.Seed = 1
	return RunConfig{
		Cfg:      cfg,
		FlashCfg: fc,
		DRAMCfg:  dram.Default(),
		PartCfg: partition.Config{
			BlockBytes:            1 << 10,
			IDBytes:               4,
			SubgraphsPerPartition: 64,
			RangeSize:             8,
		},
		Spec:      walk.Spec{Kind: walk.Unbiased, Length: 6},
		NumWalks:  200,
		StartSeed: 7,
	}
}

func runEngine(t *testing.T, g *graph.Graph, rc RunConfig) *Result {
	t.Helper()
	e, err := NewEngine(g, rc)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	res, err := e.RunContext(context.Background())
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	return res
}

func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := graph.RMAT(graph.DefaultRMAT(2048, 16384, 3))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAllWalksFinish(t *testing.T) {
	g := testGraph(t)
	res := runEngine(t, g, testConfig())
	if res.WalksFinished() != res.Started {
		t.Fatalf("finished %d of %d walks", res.WalksFinished(), res.Started)
	}
	if res.Started != 200 {
		t.Fatalf("started %d", res.Started)
	}
	if res.Time <= 0 {
		t.Fatal("no simulated time elapsed")
	}
}

func TestHopConservation(t *testing.T) {
	// Every completed walk does exactly Length hops; dead-ended walks do
	// fewer. With dead ends possible, hops <= started*Length and
	// hops >= completed*Length.
	g := testGraph(t)
	rc := testConfig()
	res := runEngine(t, g, rc)
	maxHops := uint64(res.Started) * uint64(rc.Spec.Length)
	minHops := uint64(res.Completed) * uint64(rc.Spec.Length)
	if res.Hops > maxHops || res.Hops < minHops {
		t.Fatalf("hops %d outside [%d, %d] (completed=%d dead=%d)",
			res.Hops, minHops, maxHops, res.Completed, res.DeadEnded)
	}
}

func TestNoDeadEndsOnRing(t *testing.T) {
	g := graph.Ring(512)
	rc := testConfig()
	res := runEngine(t, g, rc)
	if res.DeadEnded != 0 {
		t.Fatalf("%d dead ends on a ring", res.DeadEnded)
	}
	if res.Completed != res.Started {
		t.Fatalf("completed %d of %d", res.Completed, res.Started)
	}
	if res.Hops != uint64(res.Started)*6 {
		t.Fatalf("hops = %d, want %d", res.Hops, res.Started*6)
	}
}

func TestDeterminism(t *testing.T) {
	g := testGraph(t)
	rc := testConfig()
	a := runEngine(t, g, rc)
	b := runEngine(t, g, rc)
	if a.Time != b.Time {
		t.Fatalf("times differ: %v vs %v", a.Time, b.Time)
	}
	if a.Hops != b.Hops || a.Completed != b.Completed {
		t.Fatal("walk outcomes differ between identical runs")
	}
	if a.Flash.ReadBytes != b.Flash.ReadBytes || a.Flash.ChannelBytes != b.Flash.ChannelBytes {
		t.Fatal("traffic differs between identical runs")
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	g := testGraph(t)
	rc := testConfig()
	a := runEngine(t, g, rc)
	rc.Cfg.Seed = 99
	b := runEngine(t, g, rc)
	if a.Hops == b.Hops && a.Time == b.Time && a.Flash.ReadBytes == b.Flash.ReadBytes {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestFlashTrafficRecorded(t *testing.T) {
	g := testGraph(t)
	res := runEngine(t, g, testConfig())
	if res.Flash.ReadBytes == 0 {
		t.Fatal("no flash reads recorded")
	}
	if res.SubgraphLoads == 0 {
		t.Fatal("no subgraph loads recorded")
	}
	if res.ChipUpdates == 0 {
		t.Fatal("no chip updates recorded")
	}
}

func TestBaselineOptionsWork(t *testing.T) {
	g := testGraph(t)
	rc := testConfig()
	rc.Cfg.Opts = Options{} // no WQ, no HS, no SS
	res := runEngine(t, g, rc)
	if res.WalksFinished() != res.Started {
		t.Fatalf("baseline finished %d of %d", res.WalksFinished(), res.Started)
	}
	if res.QueryCacheHits+res.QueryCacheMisses != 0 {
		t.Fatal("query cache used with WQ disabled")
	}
	if res.HotHitsBoard+res.HotHitsChannel != 0 {
		t.Fatal("hot subgraphs used with HS disabled")
	}
	if res.RangeQueries != 0 {
		t.Fatal("range queries with WQ disabled")
	}
}

func TestEachOptionIndividually(t *testing.T) {
	g := testGraph(t)
	for _, opts := range []Options{
		{WalkQuery: true},
		{HotSubgraphs: true},
		{SmartSchedule: true},
		AllOptions(),
	} {
		rc := testConfig()
		rc.Cfg.Opts = opts
		res := runEngine(t, g, rc)
		if res.WalksFinished() != res.Started {
			t.Fatalf("opts %+v: finished %d of %d", opts, res.WalksFinished(), res.Started)
		}
	}
}

func TestWalkQueryCacheUsed(t *testing.T) {
	g := testGraph(t)
	rc := testConfig()
	res := runEngine(t, g, rc)
	if res.QueryCacheHits+res.QueryCacheMisses == 0 {
		t.Skip("no roving walks reached the board (tiny run)")
	}
	if res.QueryCacheHitRate() <= 0 {
		t.Fatal("query cache never hit")
	}
}

func TestDenseVertexPreWalking(t *testing.T) {
	// A star with a hub too big for one block forces pre-walking: every
	// spoke->hub hop routes through the dense table.
	g := graph.Star(2000) // hub degree 2000 > 1KiB/4B edges per block
	rc := testConfig()
	rc.NumWalks = 100
	res := runEngine(t, g, rc)
	if res.WalksFinished() != res.Started {
		t.Fatalf("finished %d of %d", res.WalksFinished(), res.Started)
	}
	if res.PreWalks == 0 {
		t.Fatal("no pre-walks on a dense-hub graph")
	}
}

func TestBiasedWalks(t *testing.T) {
	cfg := graph.DefaultRMAT(1024, 8192, 5)
	cfg.Weighted = true
	g, err := graph.RMAT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rc := testConfig()
	rc.Spec = walk.Spec{Kind: walk.Biased, Length: 6}
	res := runEngine(t, g, rc)
	if res.WalksFinished() != res.Started {
		t.Fatalf("biased finished %d of %d", res.WalksFinished(), res.Started)
	}
}

func TestRestartWalks(t *testing.T) {
	g := graph.Complete(256)
	rc := testConfig()
	rc.Spec = walk.Spec{Kind: walk.Restart, Length: 100, StopProb: 0.25}
	rc.NumWalks = 300
	res := runEngine(t, g, rc)
	if res.Completed != res.Started {
		t.Fatalf("restart completed %d of %d", res.Completed, res.Started)
	}
	// Mean geometric(0.25) length is 4; with 300 walks the total should be
	// nowhere near the 100-hop cap.
	if res.Hops > uint64(res.Started)*20 {
		t.Fatalf("restart walks too long: %d hops", res.Hops)
	}
}

func TestMultiplePartitions(t *testing.T) {
	g := testGraph(t)
	rc := testConfig()
	rc.PartCfg.SubgraphsPerPartition = 8 // force many partitions
	res := runEngine(t, g, rc)
	if res.WalksFinished() != res.Started {
		t.Fatalf("finished %d of %d", res.WalksFinished(), res.Started)
	}
	if res.PartitionSwitches < 2 {
		t.Fatalf("only %d partition switches", res.PartitionSwitches)
	}
	if res.ForeignerWalks == 0 {
		t.Fatal("no foreigners despite many partitions")
	}
}

func TestForeignerFlushing(t *testing.T) {
	g := testGraph(t)
	rc := testConfig()
	rc.PartCfg.SubgraphsPerPartition = 8
	rc.Cfg.ForeignerBufBytes = 256 // tiny: force flushes
	rc.NumWalks = 500
	res := runEngine(t, g, rc)
	if res.WalksFinished() != res.Started {
		t.Fatalf("finished %d of %d", res.WalksFinished(), res.Started)
	}
	if res.ForeignerFlushes == 0 {
		t.Fatal("tiny foreigner buffer never flushed")
	}
	if res.Flash.WriteBytes == 0 {
		t.Fatal("foreigner flushes wrote nothing")
	}
}

func TestPWBOverflow(t *testing.T) {
	g := testGraph(t)
	rc := testConfig()
	rc.Cfg.PartitionWalkEntryBytes = 64 // ~3 walks per entry
	rc.NumWalks = 1000
	res := runEngine(t, g, rc)
	if res.WalksFinished() != res.Started {
		t.Fatalf("finished %d of %d", res.WalksFinished(), res.Started)
	}
	if res.PWBOverflows == 0 {
		t.Fatal("tiny walk buffer entries never overflowed")
	}
}

func TestProgressTimeSeries(t *testing.T) {
	g := testGraph(t)
	rc := testConfig()
	rc.ProgressBin = 100 * sim.Microsecond
	res := runEngine(t, g, rc)
	if res.ProgressTS == nil || res.ReadTS == nil {
		t.Fatal("time series not attached")
	}
	if int(res.ProgressTS.Total()) != res.WalksFinished() {
		t.Fatalf("progress total %v != finished %d", res.ProgressTS.Total(), res.WalksFinished())
	}
	if res.ReadTS.Total() != float64(res.Flash.ReadBytes) {
		t.Fatalf("read TS %v != counter %d", res.ReadTS.Total(), res.Flash.ReadBytes)
	}
}

func TestNewEngineRejectsBadInput(t *testing.T) {
	g := testGraph(t)
	rc := testConfig()
	rc.NumWalks = 0
	if _, err := NewEngine(g, rc); err == nil {
		t.Fatal("zero walks accepted")
	}
	rc = testConfig()
	rc.Spec.Length = 0
	if _, err := NewEngine(g, rc); err == nil {
		t.Fatal("invalid spec accepted")
	}
	rc = testConfig()
	rc.Cfg.OpsPerUpdate = 0
	if _, err := NewEngine(g, rc); err == nil {
		t.Fatal("invalid core config accepted")
	}
	rc = testConfig()
	rc.FlashCfg.Channels = 0
	if _, err := NewEngine(g, rc); err == nil {
		t.Fatal("invalid flash config accepted")
	}
	rc = testConfig()
	rc.PartCfg.BlockBytes = 0
	if _, err := NewEngine(g, rc); err == nil {
		t.Fatal("invalid partition config accepted")
	}
}

func TestRovingWalksMove(t *testing.T) {
	g := testGraph(t)
	res := runEngine(t, g, testConfig())
	if res.RovingTransfers == 0 || res.RovingWalks == 0 {
		t.Fatal("no roving traffic on a multi-block graph")
	}
	if res.Flash.ChannelBytes == 0 {
		t.Fatal("no channel-bus traffic")
	}
}

func TestHotSubgraphsAbsorbWalks(t *testing.T) {
	// A heavily skewed graph whose hot blocks fit in the channel/board
	// buffers should see hot hits.
	g, err := graph.PowerLaw(graph.PowerLawConfig{NumVertices: 1024, NumEdges: 16384, Alpha: 1.2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rc := testConfig()
	rc.NumWalks = 500
	res := runEngine(t, g, rc)
	if res.HotHitsChannel+res.HotHitsBoard == 0 {
		t.Fatal("no hot-subgraph hits on a skewed graph")
	}
}

func TestUtilizationsInRange(t *testing.T) {
	g := testGraph(t)
	res := runEngine(t, g, testConfig())
	for name, u := range map[string]float64{
		"chipUpd":    res.ChipUpdaterUtil,
		"chipUpdMax": res.ChipUpdaterUtilMax,
		"chanGuider": res.ChannelGuiderUtil,
		"boardGuide": res.BoardGuiderUtil,
		"busMax":     res.ChannelBusUtilMax,
		"dram":       res.DRAMPortUtil,
	} {
		if u < 0 || u > 1 {
			t.Fatalf("%s utilization %v outside [0,1]", name, u)
		}
	}
}

func TestSmallGraphSingleBlock(t *testing.T) {
	// A graph that fits in one block: no roving, no foreigners.
	g := graph.Ring(32)
	rc := testConfig()
	rc.NumWalks = 50
	res := runEngine(t, g, rc)
	if res.WalksFinished() != res.Started {
		t.Fatalf("finished %d of %d", res.WalksFinished(), res.Started)
	}
	if res.ForeignerWalks != 0 {
		t.Fatalf("foreigners on a single-block graph: %d", res.ForeignerWalks)
	}
}

func TestHopRateAndHitRateHelpers(t *testing.T) {
	r := &Result{Hops: 100, Time: sim.Second}
	if r.HopRate() != 100 {
		t.Fatal("HopRate")
	}
	r2 := &Result{}
	if r2.HopRate() != 0 || r2.QueryCacheHitRate() != 0 {
		t.Fatal("zero-value helpers")
	}
	r3 := &Result{QueryCacheHits: 3, QueryCacheMisses: 1}
	if r3.QueryCacheHitRate() != 0.75 {
		t.Fatal("hit rate")
	}
}
