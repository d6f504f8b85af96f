package core

import (
	"testing"

	"flashwalker/internal/sim"
)

func TestQueryCacheHitAfterInsert(t *testing.T) {
	qc := newQueryCache(4<<10, 32) // 128 entries
	qc.insert(10, 20, 3)
	if b, ok := qc.lookup(15); !ok || b != 3 {
		t.Fatalf("lookup(15) = %d,%v", b, ok)
	}
	if b, ok := qc.lookup(10); !ok || b != 3 {
		t.Fatalf("boundary low miss: %d,%v", b, ok)
	}
	if b, ok := qc.lookup(20); !ok || b != 3 {
		t.Fatalf("boundary high miss: %d,%v", b, ok)
	}
	if _, ok := qc.lookup(21); ok {
		t.Fatal("hit outside the cached range")
	}
	if qc.hits != 3 || qc.misses != 1 {
		t.Fatalf("hits=%d misses=%d", qc.hits, qc.misses)
	}
}

func TestQueryCacheLRUEviction(t *testing.T) {
	qc := newQueryCache(64, 32) // capacity 2 entries
	qc.insert(0, 9, 1)
	qc.insert(10, 19, 2)
	// Touch entry 1 so entry 2 becomes LRU.
	if _, ok := qc.lookup(5); !ok {
		t.Fatal("entry 1 evicted prematurely")
	}
	qc.insert(20, 29, 3) // evicts LRU (entry 2)
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
	qc := newQueryCache(4<<10, 32)
	qc.insert(0, 100, 7)
	qc.invalidate()
	if _, ok := qc.lookup(50); ok {
		t.Fatal("hit after invalidate")
	}
}

func TestQueryCacheMinimumCapacity(t *testing.T) {
	qc := newQueryCache(8, 32) // smaller than one entry -> capacity 1
	qc.insert(0, 5, 1)
	if _, ok := qc.lookup(3); !ok {
		t.Fatal("single-entry cache broken")
	}
	qc.insert(6, 9, 2)
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
	if hot == nil || len(hot.entries) == 0 {
		t.Skip("no hot blocks selected")
	}
	// Every hot entry's own range must be findable.
	for _, he := range hot.entries {
		b, steps := hot.find(he.low)
		if b != he.block {
			t.Fatalf("find(%d) = %d, want %d", he.low, b, he.block)
		}
		if steps < 1 {
			t.Fatal("no steps counted")
		}
		if !hot.contains(he.block) {
			t.Fatal("contains() disagrees with entries")
		}
	}
	if hot.contains(-5) {
		t.Fatal("contains(-5)")
	}
	if got := len(hot.ids()); got != len(hot.entries) {
		t.Fatalf("ids() len %d", got)
	}
}

func TestHotIndexEmptyFind(t *testing.T) {
	h := &hotIndex{set: map[int]bool{}}
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
