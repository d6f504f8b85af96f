package core_test

import (
	"context"
	"testing"

	"flashwalker/internal/core"
	"flashwalker/internal/graph"
	"flashwalker/internal/harness"
	"flashwalker/internal/walk"
)

var engineSink *core.Engine

// BenchmarkNewEngine times engine construction on the benchmark's
// set-ups: TT-S with 100k walks on one board (tt-unbiased) and MB-S with
// 50k walks on four boards (mb-array-mutate, without its rewire stream),
// and MB-S node2vec with 50k walks on one and four boards, with and
// without a one-mutation stream. A node2vec run builds its edge filter,
// a counting one with a stream, once for all its boards, so the four-board
// cases cost about what the one-board cases do. The graphs are generated
// once, outside the timed loop.
func BenchmarkNewEngine(b *testing.B) {
	node2vec := walk.Spec{Kind: walk.SecondOrder, Length: 6, P: 0.5, Q: 2}
	for _, c := range []struct {
		name, dataset string
		walks, boards int
		spec          *walk.Spec
		stream        bool
	}{
		{"TT-S", "TT-S", 100_000, 1, nil, false},
		{"MB-S-4", "MB-S", 50_000, 4, nil, false},
		{"MB-S-node2vec-1", "MB-S", 50_000, 1, &node2vec, false},
		{"MB-S-node2vec-4", "MB-S", 50_000, 4, &node2vec, false},
		{"MB-S-node2vec-1-stream", "MB-S", 50_000, 1, &node2vec, true},
		{"MB-S-node2vec-4-stream", "MB-S", 50_000, 4, &node2vec, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			d, err := harness.DatasetByName(c.dataset)
			if err != nil {
				b.Fatal(err)
			}
			g, err := d.Graph()
			if err != nil {
				b.Fatal(err)
			}
			rc := harness.FlashWalkerConfig(d, core.AllOptions(), c.walks, 1)
			rc.Cfg.Boards = c.boards
			if c.spec != nil {
				rc.Spec = *c.spec
			}
			if c.stream {
				// Delete the first edge of the first vertex with out-edges
				// that is not dense, once the run has started.
				v := graph.VertexID(0)
				for g.OutDegree(v) == 0 || g.OutDegree(v) > rc.PartCfg.EdgesPerBlock(g.Weighted()) {
					v++
				}
				rc.Mutations = graph.MutationStream{{At: 1000, Op: graph.OpDeleteEdge, Src: v, Dst: g.OutEdges(v)[0]}}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, err := core.NewEngine(g, rc)
				if err != nil {
					b.Fatal(err)
				}
				engineSink = e
			}
		})
	}
}

// TestFilterAnswersOnlyDecidingProbes counts the edge filter's answers on
// an FS-S node2vec run at the benchmark's p = 0.5, q = 2: the sampler asks
// only when the rejection dart falls between the common and other
// thresholds, about a quarter of the modelled probes, where it used to ask
// every time.
func TestFilterAnswersOnlyDecidingProbes(t *testing.T) {
	d, err := harness.DatasetByName("FS-S")
	if err != nil {
		t.Fatal(err)
	}
	g, err := d.Graph()
	if err != nil {
		t.Fatal(err)
	}
	rc := harness.FlashWalkerConfig(d, core.AllOptions(), 5_000, 1)
	rc.Spec = walk.Spec{Kind: walk.SecondOrder, Length: 6, P: 0.5, Q: 2}
	e, err := core.NewEngine(g, rc)
	if err != nil {
		t.Fatal(err)
	}
	answers := core.CountFilterAnswers(e)
	res, err := e.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := *answers
	t.Logf("filter answered %d of %d modelled probes (%.1f%%)", got, res.FilterProbes,
		100*float64(got)/float64(res.FilterProbes))
	if res.FilterProbes == 0 || got == 0 || 10*got > 3*res.FilterProbes {
		t.Fatalf("filter answered %d of %d modelled probes, want at most 30%%", got, res.FilterProbes)
	}
}
