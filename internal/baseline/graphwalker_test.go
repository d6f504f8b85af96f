package baseline

import (
	"context"
	"testing"

	"flashwalker/internal/flash"
	"flashwalker/internal/graph"
	"flashwalker/internal/sim"
	"flashwalker/internal/walk"
)

// testCfg is a scaled configuration: 16 KiB memory, 1 KiB blocks.
func testCfg() Config {
	return Config{
		MemoryBytes:  16 << 10,
		WalkMemBytes: 32 << 10,
		BlockBytes:   1 << 10,
		IDBytes:      4,
		CPUHopTime:   120 * sim.Nanosecond,
		Threads:      8,
		Seed:         1,
	}
}

func smallSSD() flash.Config {
	c := flash.Default()
	c.Channels = 4
	c.ChipsPerChannel = 2
	return c
}

func run(t *testing.T, g *graph.Graph, cfg Config, spec walk.Spec, n int) *Result {
	t.Helper()
	e, err := NewWithSSD(g, cfg, smallSSD(), spec, n, 7)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := e.RunContext(context.Background())
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	return res
}

func rmat(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.RMAT(graph.DefaultRMAT(2048, 16384, 3))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func unbiased6() walk.Spec { return walk.Spec{Kind: walk.Unbiased, Length: 6} }

func TestAllWalksFinish(t *testing.T) {
	res := run(t, rmat(t), testCfg(), unbiased6(), 300)
	if res.WalksFinished() != res.Started || res.Started != 300 {
		t.Fatalf("finished %d of %d", res.WalksFinished(), res.Started)
	}
	if res.Time <= 0 {
		t.Fatal("no time elapsed")
	}
}

func TestHopBudgetRespected(t *testing.T) {
	res := run(t, rmat(t), testCfg(), unbiased6(), 300)
	if res.Hops > uint64(res.Started)*6 {
		t.Fatalf("hops %d exceed budget", res.Hops)
	}
	if res.Hops < uint64(res.Completed)*6 {
		t.Fatalf("completed walks under-hopped: %d", res.Hops)
	}
}

func TestRingWalkExactness(t *testing.T) {
	res := run(t, graph.Ring(512), testCfg(), unbiased6(), 100)
	if res.Completed != 100 || res.DeadEnded != 0 {
		t.Fatalf("completed %d dead %d", res.Completed, res.DeadEnded)
	}
	if res.Hops != 600 {
		t.Fatalf("hops %d", res.Hops)
	}
}

func TestDeterminism(t *testing.T) {
	g := rmat(t)
	a := run(t, g, testCfg(), unbiased6(), 200)
	b := run(t, g, testCfg(), unbiased6(), 200)
	if a.Time != b.Time || a.Hops != b.Hops || a.BlockLoads != b.BlockLoads {
		t.Fatal("runs with the same seed differ")
	}
}

func TestIOPathUsesPCIe(t *testing.T) {
	res := run(t, rmat(t), testCfg(), unbiased6(), 300)
	if res.Flash.HostBytes == 0 {
		t.Fatal("no bytes crossed PCIe")
	}
	if res.Flash.ChannelBytes == 0 {
		t.Fatal("no bytes crossed channel buses")
	}
	if res.BlockLoads == 0 {
		t.Fatal("no block loads")
	}
}

func TestSmallMemoryLoadsMore(t *testing.T) {
	g := rmat(t)
	small := testCfg()
	small.MemoryBytes = 4 << 10
	large := testCfg()
	large.MemoryBytes = 1 << 20 // whole graph fits
	rs := run(t, g, small, unbiased6(), 300)
	rl := run(t, g, large, unbiased6(), 300)
	if rs.BlockBytes <= rl.BlockBytes {
		t.Fatalf("smaller memory read less: %d vs %d", rs.BlockBytes, rl.BlockBytes)
	}
	if rs.Time <= rl.Time {
		t.Fatalf("smaller memory was faster: %v vs %v", rs.Time, rl.Time)
	}
}

func TestWholeGraphInMemoryLoadsOnce(t *testing.T) {
	g := rmat(t)
	cfg := testCfg()
	cfg.MemoryBytes = 1 << 20
	res := run(t, g, cfg, unbiased6(), 300)
	// Every block is loaded at most once.
	nb := res.BlockLoads
	var blocks uint64
	// Count blocks by reading the graph's partitioning indirectly: loads
	// never exceed the number of blocks when memory holds everything.
	blocks = uint64(g.NumEdges()*4/uint64(cfg.BlockBytes)) + 2
	if nb > blocks*2 {
		t.Fatalf("in-memory run loaded %d blocks (graph ~%d)", nb, blocks)
	}
}

func TestWalkSpilling(t *testing.T) {
	cfg := testCfg()
	cfg.WalkMemBytes = 512 // force spills
	res := run(t, rmat(t), cfg, unbiased6(), 2000)
	if res.WalksFinished() != res.Started {
		t.Fatalf("finished %d of %d", res.WalksFinished(), res.Started)
	}
	if res.WalkSpills == 0 || res.WalkSpillBytes == 0 {
		t.Fatal("tiny walk memory never spilled")
	}
	if res.WalkLoadBytes == 0 {
		t.Fatal("spilled walks never loaded back")
	}
}

func TestBreakdownPopulated(t *testing.T) {
	res := run(t, rmat(t), testCfg(), unbiased6(), 300)
	if res.Breakdown.Get("load graph") == 0 {
		t.Fatal("no load-graph time")
	}
	if res.Breakdown.Get("update walks") == 0 {
		t.Fatal("no update time")
	}
	// Out-of-core runs on slow storage are I/O bound (Figure 1).
	if res.Breakdown.Get("load graph") < res.Breakdown.Get("update walks") {
		t.Fatalf("I/O %v not dominant over CPU %v",
			res.Breakdown.Get("load graph"), res.Breakdown.Get("update walks"))
	}
}

func TestDenseVertexHandling(t *testing.T) {
	res := run(t, graph.Star(2000), testCfg(), unbiased6(), 200)
	if res.WalksFinished() != res.Started {
		t.Fatalf("finished %d of %d on star", res.WalksFinished(), res.Started)
	}
}

func TestBiasedWalks(t *testing.T) {
	cfg := graph.DefaultRMAT(1024, 8192, 5)
	cfg.Weighted = true
	g, err := graph.RMAT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, g, testCfg(), walk.Spec{Kind: walk.Biased, Length: 6}, 200)
	if res.WalksFinished() != res.Started {
		t.Fatal("biased walks incomplete")
	}
}

func TestRestartWalks(t *testing.T) {
	res := run(t, graph.Complete(128), testCfg(), walk.Spec{Kind: walk.Restart, Length: 100, StopProb: 0.25}, 500)
	if res.Completed != res.Started {
		t.Fatal("restart walks incomplete")
	}
	mean := float64(res.Hops) / float64(res.Started)
	if mean < 3 || mean > 6 {
		t.Fatalf("restart mean length %v, want ~4", mean)
	}
}

func TestDeadEnds(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3) // 3 is a sink
	g, _ := b.Build()
	res := run(t, g, testCfg(), unbiased6(), 50)
	if res.DeadEnded != 50 {
		t.Fatalf("dead-ended %d of 50", res.DeadEnded)
	}
}

func TestConfigValidation(t *testing.T) {
	g := graph.Ring(8)
	bads := []Config{
		{MemoryBytes: 0, WalkMemBytes: 1, BlockBytes: 1, IDBytes: 4, CPUHopTime: 1, Threads: 1},
		{MemoryBytes: 1, WalkMemBytes: 1, BlockBytes: 1 << 10, IDBytes: 5, CPUHopTime: 1, Threads: 1},
		{MemoryBytes: 1, WalkMemBytes: 1, BlockBytes: 1 << 10, IDBytes: 4, CPUHopTime: 0, Threads: 1},
	}
	for i, bad := range bads {
		if _, err := New(g, bad, unbiased6(), 10, 1); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := New(g, testCfg(), unbiased6(), 0, 1); err == nil {
		t.Error("zero walks accepted")
	}
	if _, err := New(g, testCfg(), walk.Spec{Kind: walk.Biased, Length: 6}, 10, 1); err == nil {
		t.Error("biased on unweighted accepted")
	}
}

func TestDefaultConfigValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestIterationsCounted(t *testing.T) {
	res := run(t, rmat(t), testCfg(), unbiased6(), 300)
	if res.Iterations == 0 {
		t.Fatal("no iterations recorded")
	}
}
