package core

import (
	"testing"

	"flashwalker/internal/graph"
	"flashwalker/internal/sim"
)

// span places block on vertices [lo, hi] of a synthetic vertex→block index.
type span struct {
	lo, hi graph.VertexID
	block  int
}

// spanCache builds a query cache over a synthetic index holding the given
// spans; every other vertex below the highest span end + 8 is dense (-1).
func spanCache(capacityBytes, entryBytes int64, spans ...span) *queryCache {
	var n graph.VertexID
	blocks := 0
	for _, s := range spans {
		n = max(n, s.hi+9)
		blocks = max(blocks, s.block+1)
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = -1
	}
	for _, s := range spans {
		for v := s.lo; v <= s.hi; v++ {
			idx[v] = int32(s.block)
		}
	}
	return newQueryCache(capacityBytes, entryBytes, idx, blocks)
}

func TestQueryCacheHitAfterInsert(t *testing.T) {
	qc := spanCache(4<<10, 32, span{10, 20, 3}, span{21, 30, 4}) // 128 entries
	qc.insert(3)
	hits := 0
	lookup := func(v graph.VertexID) (int, bool) {
		b, ok := qc.lookup(v)
		if ok {
			hits++
		}
		return b, ok
	}
	if b, ok := lookup(15); !ok || b != 3 {
		t.Fatalf("lookup(15) = %d,%v", b, ok)
	}
	if b, ok := lookup(10); !ok || b != 3 {
		t.Fatalf("boundary low miss: %d,%v", b, ok)
	}
	if b, ok := lookup(20); !ok || b != 3 {
		t.Fatalf("boundary high miss: %d,%v", b, ok)
	}
	if _, ok := lookup(21); ok {
		t.Fatal("hit outside the cached range")
	}
	if hits != 3 {
		t.Fatalf("%d of 4 probes hit, want 3", hits)
	}
}

func TestQueryCacheLRUEviction(t *testing.T) {
	qc := spanCache(64, 32, span{0, 9, 1}, span{10, 19, 2}, span{20, 29, 3}) // capacity 2 entries
	qc.insert(1)
	qc.insert(2)
	// Touch entry 1 so entry 2 becomes LRU.
	if _, ok := qc.lookup(5); !ok {
		t.Fatal("entry 1 evicted prematurely")
	}
	qc.insert(3) // evicts LRU (entry 2)
	if _, ok := qc.lookup(15); ok {
		t.Fatal("LRU entry not evicted")
	}
	if _, ok := qc.lookup(5); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, ok := qc.lookup(25); !ok {
		t.Fatal("new entry missing")
	}
}

func TestQueryCacheInvalidate(t *testing.T) {
	qc := spanCache(4<<10, 32, span{0, 100, 7})
	qc.insert(7)
	qc.reset(0)
	if _, ok := qc.lookup(50); ok {
		t.Fatal("hit after invalidate")
	}
	if got := qc.blocks(nil); len(got) != 0 {
		t.Fatalf("entries after reset: %v", got)
	}
}

func TestQueryCacheMinimumCapacity(t *testing.T) {
	qc := spanCache(8, 32, span{0, 5, 1}, span{6, 9, 2}) // smaller than one entry -> capacity 1
	qc.insert(1)
	if _, ok := qc.lookup(3); !ok {
		t.Fatal("single-entry cache broken")
	}
	qc.insert(2)
	if _, ok := qc.lookup(3); ok {
		t.Fatal("capacity-1 cache kept two entries")
	}
}

// endLog is a completion target recording the time of each delivery.
type endLog struct {
	eng *sim.Engine
	at  []sim.Time
}

func (l *endLog) HandleEvent(sim.Event) { l.at = append(l.at, l.eng.Now()) }

func TestUnitPoolSingleUnitSerializes(t *testing.T) {
	eng := sim.New()
	p := newUnitPool(eng, 1)
	ends := &endLog{eng: eng}
	p.dispatch(10, sim.Event{Target: ends})
	p.dispatch(10, sim.Event{Target: ends})
	eng.Run()
	if len(ends.at) != 2 || ends.at[0] != 10 || ends.at[1] != 20 {
		t.Fatalf("ends = %v", ends.at)
	}
}

func TestUnitPoolParallelUnits(t *testing.T) {
	eng := sim.New()
	p := newUnitPool(eng, 4)
	ends := &endLog{eng: eng}
	for i := 0; i < 4; i++ {
		p.dispatch(10, sim.Event{Target: ends})
	}
	eng.Run()
	for _, e := range ends.at {
		if e != 10 {
			t.Fatalf("4 jobs on 4 units did not run in parallel: %v", ends.at)
		}
	}
	// A 5th job queues behind the least busy unit.
	p.dispatch(10, sim.Event{Target: ends})
	eng.Run()
	if ends.at[4] != 20 {
		t.Fatalf("5th job ended at %v", ends.at[4])
	}
}

func TestUnitPoolUtilization(t *testing.T) {
	eng := sim.New()
	p := newUnitPool(eng, 2)
	p.dispatch(50, sim.Event{})
	eng.Run()
	eng.RunUntil(100)
	// One unit busy 50 of 100 ns, the other idle: mean 0.25.
	if u := p.utilization(); u != 0.25 {
		t.Fatalf("utilization = %v", u)
	}
	if p.jobs != 1 {
		t.Fatalf("jobs = %d", p.jobs)
	}
}

func TestHotIndexFind(t *testing.T) {
	g := testGraph(t)
	rc := testConfig()
	e, err := NewEngine(g, rc)
	if err != nil {
		t.Fatal(err)
	}
	hot := e.boards[0].board.hot
	if hot == nil || len(hot.blocks) == 0 {
		t.Skip("no hot blocks selected")
	}
	// Every hot entry's own range must be findable.
	for i, id := range hot.blocks {
		b, steps := hot.find(hot.lows[i])
		if b != int(id) {
			t.Fatalf("find(%d) = %d, want %d", hot.lows[i], b, id)
		}
		if steps < 1 {
			t.Fatal("no steps counted")
		}
		if !hot.contains(int(id)) {
			t.Fatal("contains() disagrees with entries")
		}
	}
	members := 0
	for id := 0; id < e.part.NumBlocks(); id++ {
		if hot.contains(id) {
			members++
		}
	}
	if members != len(hot.blocks) {
		t.Fatalf("contains() admits %d blocks, index holds %d", members, len(hot.blocks))
	}
	if hot.contains(-5) || hot.contains(e.part.NumBlocks()+64) {
		t.Fatal("contains() admits an out-of-range block")
	}
	if got := len(hot.ids()); got != len(hot.blocks) {
		t.Fatalf("ids() len %d", got)
	}
}

func TestHotIndexEmptyFind(t *testing.T) {
	h := &hotIndex{}
	b, steps := h.find(5)
	if b != -1 || steps != 1 {
		t.Fatalf("empty find = %d,%d", b, steps)
	}
	var nilIdx *hotIndex
	if nilIdx.contains(1) {
		t.Fatal("nil contains")
	}
	if nilIdx.ids() != nil {
		t.Fatal("nil ids")
	}
}
