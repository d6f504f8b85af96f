package core

import (
	"testing"

	"flashwalker/internal/graph"
	"flashwalker/internal/rng"
	"flashwalker/internal/walk"
)

// Tests for the board-level routing decision logic (route.go) and the
// shared hot-update admission (tier.go). The engine is built but never
// run: classify and route are called directly with crafted walk states,
// so each decision path is pinned independently of event ordering.

// newRouteEngine builds an engine and pretends partition 0 is active, the
// state classify sees mid-run.
func newRouteEngine(t *testing.T, g *graph.Graph, rc RunConfig) *boardEngine {
	t.Helper()
	x, err := NewEngine(g, rc)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	e := x.boards[0]
	e.curPart = 0
	return e
}

// routeWalk is a fresh, untagged walk sitting at v. The walk gets its own
// seeded RNG stream (a zero-value stream is degenerate and must never be
// drawn from).
func routeWalk(v graph.VertexID) wstate {
	return wstate{w: walk.Walk{Src: v, Cur: v, Hop: 6}, denseBlock: -1, rangeTag: -1, prev: noPrev,
		rng: *rng.New(uint64(v) + 1)}
}

// firstNonDense returns the first non-dense block of partition p and a
// vertex stored in it.
func firstNonDense(t *testing.T, e *boardEngine, p int) (blockID int, v graph.VertexID) {
	t.Helper()
	first, last := e.part.PartitionSpan(p)
	for b := first; b <= last; b++ {
		if !e.part.Blocks[b].Dense {
			return b, e.part.Blocks[b].LowVertex
		}
	}
	t.Fatalf("partition %d has no non-dense block", p)
	return -1, 0
}

func TestClassifyDecisions(t *testing.T) {
	g := testGraph(t)
	base := testConfig()
	base.PartCfg.SubgraphsPerPartition = 8 // force multiple partitions

	cases := []struct {
		name string
		opts Options
		// prep returns the walk to classify, possibly after warming caches.
		prep  func(t *testing.T, e *boardEngine) wstate
		check func(t *testing.T, e *boardEngine, d routeDecision)
	}{
		{
			name: "binary search without walk query",
			opts: Options{},
			prep: func(t *testing.T, e *boardEngine) wstate {
				_, v := firstNonDense(t, e, 0)
				return routeWalk(v)
			},
			check: func(t *testing.T, e *boardEngine, d routeDecision) {
				blk, _ := firstNonDense(t, e, 0)
				if d.blockID != blk {
					t.Fatalf("blockID = %d, want %d", d.blockID, blk)
				}
				if d.searchSteps < 1 {
					t.Fatal("binary search charged no table steps")
				}
				if d.foreignPart != -1 {
					t.Fatalf("local walk marked foreign (partition %d)", d.foreignPart)
				}
				if e.res.QueryCacheHits+e.res.QueryCacheMisses != 0 {
					t.Fatal("query cache consulted with WalkQuery disabled")
				}
			},
		},
		{
			name: "query cache miss falls back to search",
			opts: Options{WalkQuery: true},
			prep: func(t *testing.T, e *boardEngine) wstate {
				_, v := firstNonDense(t, e, 0)
				return routeWalk(v)
			},
			check: func(t *testing.T, e *boardEngine, d routeDecision) {
				if e.res.QueryCacheMisses != 1 || e.res.QueryCacheHits != 0 {
					t.Fatalf("hits=%d misses=%d, want cold miss", e.res.QueryCacheHits, e.res.QueryCacheMisses)
				}
				if d.searchSteps < 1 {
					t.Fatal("miss did not search the mapping table")
				}
				if blk, _ := firstNonDense(t, e, 0); d.blockID != blk {
					t.Fatalf("blockID = %d, want %d", d.blockID, blk)
				}
			},
		},
		{
			name: "query cache hit skips the table",
			opts: Options{WalkQuery: true},
			prep: func(t *testing.T, e *boardEngine) wstate {
				_, v := firstNonDense(t, e, 0)
				// The board rotates round-robin over its caches; one miss per
				// cache fills them all, so the next classify must hit.
				for range e.board.caches {
					e.board.classify(e.addWalk(routeWalk(v)))
				}
				return routeWalk(v)
			},
			check: func(t *testing.T, e *boardEngine, d routeDecision) {
				if e.res.QueryCacheHits != 1 {
					t.Fatalf("hits = %d after warming every cache", e.res.QueryCacheHits)
				}
				if d.searchSteps != 0 {
					t.Fatal("cache hit still searched the mapping table")
				}
				if blk, _ := firstNonDense(t, e, 0); d.blockID != blk {
					t.Fatalf("blockID = %d, want %d", d.blockID, blk)
				}
			},
		},
		{
			name: "foreigner resolves its destination partition",
			opts: Options{},
			prep: func(t *testing.T, e *boardEngine) wstate {
				if e.part.NumPartitions < 2 {
					t.Skip("graph fits one partition")
				}
				_, v := firstNonDense(t, e, 1)
				return routeWalk(v)
			},
			check: func(t *testing.T, e *boardEngine, d routeDecision) {
				if d.blockID != -1 {
					t.Fatalf("foreigner got local block %d", d.blockID)
				}
				if d.foreignPart != 1 {
					t.Fatalf("foreignPart = %d, want 1", d.foreignPart)
				}
			},
		},
		{
			name: "range tag restricts the search to the right block",
			opts: Options{},
			prep: func(t *testing.T, e *boardEngine) wstate {
				blk, v := firstNonDense(t, e, 0)
				st := routeWalk(v)
				for _, r := range e.part.Ranges {
					if r.FirstBlock <= blk && blk <= r.LastBlock {
						st.rangeTag = int32(r.ID)
						break
					}
				}
				if st.rangeTag < 0 {
					t.Fatalf("no range covers block %d", blk)
				}
				return st
			},
			check: func(t *testing.T, e *boardEngine, d routeDecision) {
				if blk, _ := firstNonDense(t, e, 0); d.blockID != blk {
					t.Fatalf("tagged search found block %d, want %d", d.blockID, blk)
				}
				if d.foreignPart != -1 {
					t.Fatal("tagged local walk marked foreign")
				}
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rc := base
			rc.Cfg.Opts = tc.opts
			e := newRouteEngine(t, g, rc)
			st := tc.prep(t, e)
			d := e.board.classify(e.addWalk(st))
			tc.check(t, e, d)
		})
	}
}

func TestClassifyDensePreWalk(t *testing.T) {
	// A star hub too big for one block lands in the dense-vertices table.
	g := graph.Star(2000)
	e := newRouteEngine(t, g, testConfig())
	var hub graph.VertexID
	found := false
	for v := graph.VertexID(0); uint64(v) < g.NumVertices(); v++ {
		if _, ok := e.part.Dense.Lookup(v); ok {
			hub, found = v, true
			break
		}
	}
	if !found {
		t.Fatal("no dense vertex on a 2000-spoke star")
	}

	w := e.addWalk(routeWalk(hub))
	d := e.board.classify(w)
	st := e.walk(w)
	if st.denseBlock < 0 {
		t.Fatal("dense vertex not pre-walked")
	}
	if d.blockID != int(st.denseBlock) {
		t.Fatalf("routed to %d, pre-walked block is %d", d.blockID, st.denseBlock)
	}
	if d.searchSteps != 0 {
		t.Fatal("dense path searched the mapping table")
	}
	if e.res.PreWalks != 1 {
		t.Fatalf("PreWalks = %d", e.res.PreWalks)
	}
	if e.inCurrentPartition(d.blockID) != (d.foreignPart == -1) {
		t.Fatalf("partition membership and foreignPart disagree: block %d, foreignPart %d",
			d.blockID, d.foreignPart)
	}

	// A pre-walked walk arriving at the board keeps its chosen block and is
	// not pre-walked again.
	d2 := e.board.classify(w)
	if d2.blockID != int(st.denseBlock) || d2.ops != 1 {
		t.Fatalf("re-classify: blockID=%d ops=%d", d2.blockID, d2.ops)
	}
	if e.res.PreWalks != 1 {
		t.Fatalf("PreWalks = %d after re-classify", e.res.PreWalks)
	}
}

func TestRouteHotSubgraphAdmission(t *testing.T) {
	g := testGraph(t)
	e := newRouteEngine(t, g, testConfig())
	b := e.board
	blk, v := firstNonDense(t, e, 0)
	st := routeWalk(v)
	e.activeCur = 10 // keep demotions from ending the (unstarted) partition

	// Not hot: the walk buffers into the block's PWB entry.
	b.route(e.addWalk(st), blk, -1)
	if len(e.pwb[blk]) != 1 {
		t.Fatalf("PWB entry holds %d walks, want 1", len(e.pwb[blk]))
	}

	// Hot and under the queue cap: updated in place, not buffered.
	b.hot = newHotIndex(e.part, []int{blk})
	b.hotReady = true
	before := b.queueBytes
	b.route(e.addWalk(st), blk, -1)
	if len(e.pwb[blk]) != 1 {
		t.Fatal("hot walk was buffered to the PWB")
	}
	if b.queueBytes != before+st.sizeBytes() {
		t.Fatalf("queueBytes = %d, want %d", b.queueBytes, before+st.sizeBytes())
	}

	// Queue full: hot routing falls back to the PWB.
	b.queueBytes = b.queueCap
	b.route(e.addWalk(st), blk, -1)
	if len(e.pwb[blk]) != 2 {
		t.Fatal("over-cap hot walk not buffered to the PWB")
	}

	// A foreign decision wins over everything else. pendingMem[1] already
	// holds seeded walks, so compare against the pre-route length.
	if e.part.NumPartitions >= 2 {
		seeded := len(e.pendingMem[1])
		b.route(e.addWalk(st), -1, 1)
		if e.res.ForeignerWalks != 1 || len(e.pendingMem[1]) != seeded+1 {
			t.Fatalf("foreigner not demoted: walks=%d pending=%d (seeded %d)",
				e.res.ForeignerWalks, len(e.pendingMem[1]), seeded)
		}
	}
}
