package baseline

import (
	"testing"

	"flashwalker/internal/graph"
	"flashwalker/internal/walk"
)

func TestPrefetchCompletesAllWalks(t *testing.T) {
	cfg := testCfg()
	cfg.Prefetch = true
	res := run(t, rmat(t), cfg, unbiased6(), 400)
	if res.WalksFinished() != 400 {
		t.Fatalf("finished %d of 400 with prefetch", res.WalksFinished())
	}
	if res.Prefetches == 0 {
		t.Fatal("prefetch mode issued no prefetches")
	}
}

func TestPrefetchNeverSlower(t *testing.T) {
	// On an I/O-bound configuration, overlap must help (or at least not
	// hurt beyond mispredicted loads' extra traffic).
	g := rmat(t)
	cfg := testCfg()
	cfg.MemoryBytes = 8 << 10 // heavy pressure
	serial := run(t, g, cfg, unbiased6(), 1000)
	cfg.Prefetch = true
	overlapped := run(t, g, cfg, unbiased6(), 1000)
	if overlapped.Time > serial.Time*11/10 {
		t.Fatalf("prefetch slowed the run: %v vs %v", overlapped.Time, serial.Time)
	}
}

func TestPrefetchDeterminism(t *testing.T) {
	g := rmat(t)
	cfg := testCfg()
	cfg.Prefetch = true
	a := run(t, g, cfg, unbiased6(), 300)
	b := run(t, g, cfg, unbiased6(), 300)
	if a.Time != b.Time || a.Prefetches != b.Prefetches {
		t.Fatal("prefetch runs not deterministic")
	}
}

func TestPrefetchMayReadMore(t *testing.T) {
	// Mispredictions cost extra block loads; the counters must expose
	// them rather than hide them.
	g := rmat(t)
	cfg := testCfg()
	cfg.MemoryBytes = 8 << 10
	serial := run(t, g, cfg, unbiased6(), 1000)
	cfg.Prefetch = true
	overlapped := run(t, g, cfg, unbiased6(), 1000)
	if overlapped.BlockLoads < serial.BlockLoads {
		t.Fatalf("prefetch loaded fewer blocks (%d < %d)?", overlapped.BlockLoads, serial.BlockLoads)
	}
}

func TestSecondOrderWalksOnBaseline(t *testing.T) {
	// The baseline executes dynamic walks with exact adjacency (host
	// memory holds the graph blocks).
	b := graph.NewBuilder(64)
	for v := graph.VertexID(0); v < 64; v++ {
		b.AddEdge(v, (v+1)%64)
		b.AddEdge((v+1)%64, v)
		b.AddEdge(v, (v+9)%64)
		b.AddEdge((v+9)%64, v)
	}
	g, _ := b.Build()
	spec := walk.Spec{Kind: walk.SecondOrder, Length: 8, P: 0.5, Q: 2}
	res := run(t, g, testCfg(), spec, 200)
	if res.Completed != 200 {
		t.Fatalf("completed %d", res.Completed)
	}
	if res.Hops != 200*8 {
		t.Fatalf("hops %d", res.Hops)
	}
}
