package core

import (
	"context"
	"testing"

	"flashwalker/internal/graph"
	"flashwalker/internal/walk"
)

// TestSteadyStateHopAllocFree guards the tentpole invariant of the typed-
// event refactor: once the pools are warm (a full run has grown them), the
// per-hop machinery — claiming a walk node, deciding the hop, recycling a
// batch buffer — performs zero allocations. Together with the sim-level
// guards (TestTypedSchedulingAllocFree, TestQueueAcquireEventAllocFree)
// this pins the whole hop path: every event it schedules is typed and every
// record it touches is pooled.
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
	st := wstate{w: walk.Walk{Cur: v, Hop: 1 << 20}, denseBlock: -1, rangeTag: -1, prev: noPrev,
		rng: *x.rootRNG.Derive(1)}

	allocs := testing.AllocsPerRun(1000, func() {
		ref, n := e.newNode()
		h := e.decideHop(st)
		n.st, n.terminal, n.deadEnd = h.next, h.terminal, h.deadEnd
		e.freeNodeRef(ref)

		buf := e.getWalkBuf()
		buf = append(buf, h.next)
		bref := e.newBatch(buf)
		e.putWalkBuf(e.takeBatch(bref))
	})
	if allocs != 0 {
		t.Fatalf("steady-state hop path allocated %.1f times per run, want 0", allocs)
	}
}

// TestQueryCacheFrontHitNoShift pins the LRU fast path: a hit on the front
// entry must not reorder (or copy) the entries.
func TestQueryCacheFrontHitNoShift(t *testing.T) {
	qc := newQueryCache(4*16, 16)
	qc.insert(30, 39, 3)
	qc.insert(20, 29, 2)
	qc.insert(10, 19, 1) // front
	if id, ok := qc.lookup(15); !ok || id != 1 {
		t.Fatalf("front lookup = %d,%v", id, ok)
	}
	want := []int32{1, 2, 3}
	for i := 0; i < qc.n; i++ {
		id := qc.blockIDs[qc.slot(i)]
		if id != want[i] {
			t.Fatalf("entry order after front hit = %v at %d, want %v", id, i, want)
		}
	}
	// A non-front hit still promotes.
	if id, ok := qc.lookup(35); !ok || id != 3 {
		t.Fatalf("mid lookup = %d,%v", id, ok)
	}
	if qc.blockIDs[qc.head] != 3 {
		t.Fatalf("entry %d at front after touch, want 3", qc.blockIDs[qc.head])
	}
}

// BenchmarkQueryCacheLookup measures the LRU probe: the front-hit fast path
// (the common case under power-law walk skew) versus a mid-cache hit that
// pays the promotion shift, at a realistic cache population.
func BenchmarkQueryCacheLookup(b *testing.B) {
	const entries = 64
	build := func() *queryCache {
		qc := newQueryCache(entries*16, 16)
		for i := 0; i < entries; i++ {
			lo := graph.VertexID(i * 10)
			qc.insert(lo, lo+9, i)
		}
		return qc
	}
	b.Run("front-hit", func(b *testing.B) {
		qc := build()
		front := qc.ranges[qc.slot(0)].lo
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			qc.lookup(front + 5)
		}
	})
	b.Run("mid-hit", func(b *testing.B) {
		qc := build()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// The hit promotes to front, so probing two spots alternates
			// between them and every lookup pays a mid-depth shift.
			qc.lookup(qc.ranges[qc.slot(entries/2)].lo + 5)
		}
	})
	b.Run("miss", func(b *testing.B) {
		qc := build()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			qc.lookup(graph.VertexID(entries*10 + 5))
		}
	})
}
