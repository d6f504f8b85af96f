package core

import (
	"fmt"
	"testing"

	"flashwalker/internal/graph"
	"flashwalker/internal/walk"
)

// TestBatchKernelEquivalence is the batched kernel's correctness property:
// deciding a burst of walks in locality-sorted order (batch.go) must be
// indistinguishable — bit-identical digest, including the simulated
// timeline, and identical per-vertex visit counts — from deciding them one
// at a time in arrival order. The matrix crosses every spec kind with fault
// injection and board counts because each axis exercises a different batch
// path: unbiased/biased stress the chip slot-load bursts, second-order adds
// the (prev, cur) sort over bloom probes, faults shift burst composition,
// and 2 boards route batches across the fabric.
func TestBatchKernelEquivalence(t *testing.T) {
	plain := testGraph(t)
	weighted := weightedGraph(t)

	kinds := []struct {
		name string
		g    *graph.Graph
		spec walk.Spec
	}{
		{"unbiased", plain, walk.Spec{Kind: walk.Unbiased, Length: 6}},
		{"biased", weighted, walk.Spec{Kind: walk.Biased, Length: 6}},
		{"secondorder", plain, walk.Spec{Kind: walk.SecondOrder, Length: 8, P: 0.5, Q: 2}},
	}

	for _, k := range kinds {
		for _, faults := range []bool{false, true} {
			for _, boards := range []int{1, 2} {
				name := fmt.Sprintf("%s/faults=%v/boards=%d", k.name, faults, boards)
				t.Run(name, func(t *testing.T) {
					rc := goldenConfig()
					rc.Spec = k.spec
					rc.TrackVisits = true
					rc.Cfg.Boards = boards
					if faults {
						rc.Cfg.Faults = aggressiveFaults()
					}

					run := func(disable bool) *Result {
						rc := rc
						rc.Cfg.DisableBatchKernel = disable
						return runEngine(t, k.g, rc)
					}
					batched := run(false)
					perWalk := run(true)

					bd, pd := digestResult(batched), digestResult(perWalk)
					if bd != pd {
						t.Errorf("digest diverged:\nbatched:  %s\nper-walk: %s", bd, pd)
					}
					if len(batched.Visits) != len(perWalk.Visits) {
						t.Fatalf("visit table length %d vs %d", len(batched.Visits), len(perWalk.Visits))
					}
					for v := range batched.Visits {
						if batched.Visits[v] != perWalk.Visits[v] {
							t.Fatalf("visit count diverged at vertex %d: batched %d, per-walk %d",
								v, batched.Visits[v], perWalk.Visits[v])
						}
					}
				})
			}
		}
	}
}

// TestSortedPermOrders pins sortedPerm's contract across both code paths
// (the small-batch insertion sort and the sort.Sort fallback): the result
// is a permutation of the batch indices in nondecreasing locality order.
func TestSortedPermOrders(t *testing.T) {
	g := testGraph(t)
	rc := goldenConfig()
	rc.Spec = walk.Spec{Kind: walk.SecondOrder, Length: 8, P: 0.5, Q: 2}
	e, err := NewEngine(g, rc)
	if err != nil {
		t.Fatal(err)
	}
	nv := graph.VertexID(g.NumVertices())
	for _, n := range []int{0, 1, 2, insertionSortMax, insertionSortMax + 1, 300} {
		for _, byPrev := range []bool{false, true} {
			walks := make([]wstate, n)
			for i := range walks {
				walks[i].w.Cur = graph.VertexID(i*2654435761) % nv
				walks[i].prev = graph.VertexID(i*40503+7) % nv
			}
			perm := e.boards[0].sortedPerm(walks, byPrev)
			if len(perm) != n {
				t.Fatalf("n=%d byPrev=%v: perm length %d", n, byPrev, len(perm))
			}
			seen := make([]bool, n)
			for _, p := range perm {
				if seen[p] {
					t.Fatalf("n=%d byPrev=%v: index %d appears twice", n, byPrev, p)
				}
				seen[p] = true
			}
			for i := 1; i < n; i++ {
				a, b := &walks[perm[i-1]], &walks[perm[i]]
				if walkLess(b, a, byPrev) {
					t.Fatalf("n=%d byPrev=%v: out of order at %d: (%d,%d) after (%d,%d)",
						n, byPrev, i, b.prev, b.w.Cur, a.prev, a.w.Cur)
				}
			}
		}
	}
}
