package core

import (
	"context"
	"slices"
	"testing"

	"flashwalker/internal/graph"
	"flashwalker/internal/walk"
)

// TestSteadyStateHopAllocFree guards the tentpole invariant of the typed-
// event refactor: once the pools are warm (a full run has grown them), the
// per-hop machinery — deciding the hop in the walk table, recycling a
// batch buffer and a table index — performs zero allocations. Together
// with the sim-level guards (TestTypedSchedulingAllocFree,
// TestQueueAcquireEventAllocFree) this pins the whole hop path: every event
// it schedules is typed and carries its walk, and every record it touches
// is pooled.
func TestSteadyStateHopAllocFree(t *testing.T) {
	g := testGraph(t)
	x, err := NewEngine(g, goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	e := x.boards[0]

	// A live walk at a vertex with outgoing edges, far from termination.
	var v graph.VertexID
	for v = 0; v < g.NumVertices(); v++ {
		if g.OutDegree(v) > 0 {
			break
		}
	}
	w := e.addWalk(wstate{w: walk.Walk{Cur: v, Hop: 1 << 20}, denseBlock: -1, rangeTag: -1, prev: noPrev,
		rng: *x.rootRNG.Derive(1)})

	allocs := testing.AllocsPerRun(1000, func() {
		e.decideHop(e.walk(w))

		buf := e.getWalkBuf()
		buf = append(buf, w)
		bref := e.newBatch(buf)
		e.putWalkBuf(e.takeBatch(bref))

		st := *e.walk(w)
		e.dropWalk(w)
		w = e.addWalk(st)
	})
	if allocs != 0 {
		t.Fatalf("steady-state hop path allocated %.1f times per run, want 0", allocs)
	}
}

// TestQueryCacheFrontHitNoShift pins the LRU fast path: a hit on the front
// entry must not reorder the entries.
func TestQueryCacheFrontHitNoShift(t *testing.T) {
	qc := spanCache(4*16, 16, span{10, 19, 1}, span{20, 29, 2}, span{30, 39, 3})
	qc.insert(3)
	qc.insert(2)
	qc.insert(1) // front
	if id, ok := qc.lookup(15); !ok || id != 1 {
		t.Fatalf("front lookup = %d,%v", id, ok)
	}
	want := []int{1, 2, 3}
	if got := qc.blocks(nil); !slices.Equal(got, want) {
		t.Fatalf("entry order after front hit = %v, want %v", got, want)
	}
	// A non-front hit still promotes.
	if id, ok := qc.lookup(35); !ok || id != 3 {
		t.Fatalf("mid lookup = %d,%v", id, ok)
	}
	if got := qc.blocks(nil); got[0] != 3 {
		t.Fatalf("entry %d at front after touch, want 3", got[0])
	}
}

// BenchmarkQueryCacheLookup measures the LRU probe at the paper's geometry
// (a 4 KiB cache of 32-byte mapping entries holds 128): a front hit (the
// common case under power-law walk skew), a mid-cache hit that moves its
// entry to the front, and a miss. Each is O(1) whatever the depth or the
// capacity; the scan this replaced paid up to 128 compares per probe.
func BenchmarkQueryCacheLookup(b *testing.B) {
	const entries = 128
	spans := make([]span, entries+1)
	for i := range spans {
		lo := graph.VertexID(i * 10)
		spans[i] = span{lo, lo + 9, i}
	}
	// build caches blocks 0..entries-1 with block 0 at the front and
	// block entries (the miss target) left out.
	build := func() *queryCache {
		qc := spanCache(4<<10, 32, spans...)
		for i := entries - 1; i >= 0; i-- {
			qc.insert(i)
		}
		return qc
	}
	b.Run("front-hit", func(b *testing.B) {
		qc := build()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			qc.lookup(spans[0].lo + 5)
		}
	})
	b.Run("mid-hit", func(b *testing.B) {
		qc := build()
		b.ReportAllocs()
		const d = entries / 2
		for i := 0; i < b.N; i++ {
			// Probing block d, d-1, ..., 0 in turn always hits the entry at
			// depth d and moves it to the front; after d+1 probes the order
			// is back where it started.
			qc.lookup(spans[d-i%(d+1)].lo + 5)
		}
	})
	b.Run("miss", func(b *testing.B) {
		qc := build()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			qc.lookup(spans[entries].lo + 5)
		}
	})
}
