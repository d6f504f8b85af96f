package core

import (
	"math/rand"
	"slices"
	"testing"

	"flashwalker/internal/graph"
	"flashwalker/internal/partition"
	"flashwalker/internal/sim"
)

// This file holds the reference models the board tables are checked
// against: the recency-scan walk query cache and the k-queue least-busy
// unit pool that queryCache and unitPool replaced. Both answer by scanning
// every entry or unit, which is what the hardware does and what the O(1)
// models must reproduce exactly.

// scanCache is the recency-ordered query cache as a ring: logical position
// i (0 = most recent) occupies physical slot (head+i) % capacity. A probe
// scans front to back and the first covering entry answers; a hit moves its
// entry to the front, an insert goes in at the front and evicts the tail.
type scanCache struct {
	capacity int
	ranges   []vrange
	blockIDs []int32
	head     int
	n        int
}

type vrange struct{ lo, hi graph.VertexID }

func newScanCache(capacityBytes, entryBytes int64) *scanCache {
	c := int(capacityBytes / entryBytes)
	if c < 1 {
		c = 1
	}
	return &scanCache{capacity: c, ranges: make([]vrange, c), blockIDs: make([]int32, c)}
}

func (qc *scanCache) slot(i int) int {
	p := qc.head + i
	if p >= qc.capacity {
		p -= qc.capacity
	}
	return p
}

func (qc *scanCache) lookup(v graph.VertexID) (blockID int, ok bool) {
	for i := 0; i < qc.n; i++ {
		if r := qc.ranges[qc.slot(i)]; r.lo <= v && v <= r.hi {
			qc.promote(i)
			return int(qc.blockIDs[qc.head]), true
		}
	}
	return -1, false
}

// promote moves the entry at logical depth i to the front, shifting
// entries [0, i) one position later.
func (qc *scanCache) promote(i int) {
	p := qc.slot(i)
	r, id := qc.ranges[p], qc.blockIDs[p]
	for j := i; j > 0; j-- {
		to, from := qc.slot(j), qc.slot(j-1)
		qc.ranges[to], qc.blockIDs[to] = qc.ranges[from], qc.blockIDs[from]
	}
	qc.ranges[qc.head], qc.blockIDs[qc.head] = r, id
}

func (qc *scanCache) insert(low, high graph.VertexID, blockID int) {
	qc.head--
	if qc.head < 0 {
		qc.head = qc.capacity - 1
	}
	if qc.n < qc.capacity {
		qc.n++
	}
	qc.ranges[qc.head] = vrange{lo: low, hi: high}
	qc.blockIDs[qc.head] = int32(blockID)
}

func (qc *scanCache) invalidate() { qc.head, qc.n = 0, 0 }

// blocks lists the cached block IDs front first.
func (qc *scanCache) blocks() []int {
	out := []int{}
	for i := 0; i < qc.n; i++ {
		out = append(out, int(qc.blockIDs[qc.slot(i)]))
	}
	return out
}

// queuePool is the unit pool as k sim.Queues: a job goes to the unit with
// the earliest BusyUntil, the first such unit on ties.
type queuePool struct{ units []*sim.Queue }

func newQueuePool(eng *sim.Engine, n int) *queuePool {
	p := &queuePool{}
	for i := 0; i < n; i++ {
		p.units = append(p.units, sim.NewQueue(eng))
	}
	return p
}

func (p *queuePool) dispatch(service sim.Time) sim.Time {
	best := p.units[0]
	for _, u := range p.units[1:] {
		if u.BusyUntil() < best.BusyUntil() {
			best = u
		}
	}
	return best.AcquireEvent(service, sim.Event{})
}

// state exports the pool the way a snapshot written by the queue model
// did: one full QueueState per unit, in unit order.
func (p *queuePool) state() UnitPoolState {
	st := UnitPoolState{}
	for _, u := range p.units {
		st.Units = append(st.Units, u.State())
	}
	return st
}

// fuzzPartitioning is the partitioning FuzzQueryCache probes: the engine
// tests' graph in 256-byte blocks, small enough that its hubs are dense and
// its blocks fill several partitions.
func fuzzPartitioning(t testing.TB) *partition.Partitioned {
	cfg := testConfig().PartCfg
	cfg.BlockBytes = 256
	part, err := partition.Partition(testGraph(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if part.Dense.Len() == 0 || part.NumPartitions < 2 {
		t.Fatalf("fuzz partitioning has %d dense vertices and %d partitions", part.Dense.Len(), part.NumPartitions)
	}
	return part
}

// FuzzQueryCache drives the O(1) cache and the scan reference through the
// same random sequence of probes — each miss inserting the probed vertex's
// block when the current partition holds it, as the board router does —
// partition switches and snapshot round trips (export front first, restore
// by tail inserts), over a real partitioning with several partitions.
// Answers, hit and miss counts and the recency order must agree after
// every step.
func FuzzQueryCache(f *testing.F) {
	part := fuzzPartitioning(f)
	span := min(part.Cfg.SubgraphsPerPartition, part.NumBlocks())
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 0, 10, 0, 10, 0, 200, 1, 0, 10, 0, 250, 3})
	f.Add([]byte{4, 0, 1, 0, 2, 0, 3, 0, 1, 255, 0, 2, 0, 7, 254, 1, 3, 5, 40, 9})
	f.Add([]byte{0, 10, 0, 100, 0, 10, 0}) // a hit one entry deep moves to the front
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		entryBytes := []int64{4 << 10, 2 << 10, 1 << 10, 512, 32}[int(ops[0])%5]
		ops = ops[1:]
		first, last := part.PartitionSpan(0)
		fast := newQueryCache(4<<10, entryBytes, part.VertexBlocks(), span)
		ref := newScanCache(4<<10, entryBytes)
		nv := int(part.G.NumVertices())
		for len(ops) > 0 {
			op := ops[0]
			ops = ops[1:]
			switch {
			case op == 254:
				// Partition switch, to the partition the next byte names.
				p := 0
				if len(ops) > 0 {
					p = int(ops[0]) % part.NumPartitions
					ops = ops[1:]
				}
				first, last = part.PartitionSpan(p)
				fast.reset(first)
				ref.invalidate()
			case op == 255:
				// Snapshot round trip: the restored cache continues.
				saved := fast.blocks(nil)
				fast = newQueryCache(4<<10, entryBytes, part.VertexBlocks(), span)
				fast.reset(first)
				for _, id := range saved {
					fast.insertTail(id)
				}
			default:
				// Probe a vertex; op selects a region so short inputs
				// revisit blocks.
				v := graph.VertexID(int(op) * nv / 254)
				if len(ops) > 0 {
					v = graph.VertexID((int(op)*nv/254 + int(ops[0])) % nv)
					ops = ops[1:]
				}
				gotID, gotOK := fast.lookup(v)
				wantID, wantOK := ref.lookup(v)
				if gotID != wantID || gotOK != wantOK {
					t.Fatalf("lookup(%d) = %d,%v, reference %d,%v", v, gotID, gotOK, wantID, wantOK)
				}
				if !gotOK {
					if id, _ := part.BlockOf(v); id >= first && id <= last {
						b := &part.Blocks[id]
						fast.insert(id)
						ref.insert(b.LowVertex, b.HighVertex, id)
					}
				}
			}
			if got, want := fast.blocks(nil), ref.blocks(); !slices.Equal(got, want) {
				t.Fatalf("recency order %v, reference %v", got, want)
			}
		}
	})
}

// TestUnitPoolMatchesQueues checks the idle-count + busy-heap pool against
// k queues under random arrivals and service times at k = 1, 4 and 128:
// every dispatch must complete at the same time. Half way through, the pool
// is replaced by one restored from its own snapshot state and a second one
// restored from the queue model's per-unit state (the layout images written
// before the heap carried); all three continue in lockstep.
func TestUnitPoolMatchesQueues(t *testing.T) {
	for _, k := range []int{1, 4, 128} {
		r := rand.New(rand.NewSource(int64(k)))
		eng := sim.New()
		ref := newQueuePool(eng, k)
		pools := []*unitPool{newUnitPool(eng, k)}
		const steps = 20000
		queued := 0
		for i := 0; i < steps; i++ {
			if i == steps/2 {
				own := newUnitPool(eng, k)
				if err := poolIn(own, poolOut(pools[0]), "own"); err != nil {
					t.Fatal(err)
				}
				legacy := newUnitPool(eng, k)
				if err := poolIn(legacy, ref.state(), "legacy"); err != nil {
					t.Fatal(err)
				}
				pools = []*unitPool{own, legacy}
			}
			// Phases alternate every 1000 dispatches: sparse, where the
			// clock moves before one dispatch in four, and bursty, where
			// about 2k dispatches land on one instant so every unit is
			// busy and jobs queue.
			advance := 4
			if i/1000%2 == 1 {
				advance = 2 * k
			}
			if r.Intn(advance) == 0 {
				eng.RunUntil(eng.Now() + sim.Time(r.Intn(40*k)))
			}
			service := sim.Time(r.Intn(100))
			want := ref.dispatch(service)
			if want > eng.Now()+service {
				queued++
			}
			for j, p := range pools {
				if got := p.dispatch(service, sim.Event{}); got != want {
					t.Fatalf("k=%d step %d pool %d: completion %d, queues %d", k, i, j, got, want)
				}
			}
		}
		if queued == 0 {
			t.Fatalf("k=%d: no job ever queued, so the saturated path went untested", k)
		}
	}
}

// BenchmarkUnitPoolDispatch measures one dispatch on a 128-unit pool (the
// board guider's width). idle-heavy: arrivals spaced so most units are free
// and the busy heap stays small. saturated: every unit busy, so each job
// queues behind the earliest-free unit.
func BenchmarkUnitPoolDispatch(b *testing.B) {
	const k = 128
	b.Run("idle-heavy", func(b *testing.B) {
		eng := sim.New()
		p := newUnitPool(eng, k)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%4 == 0 {
				eng.RunUntil(eng.Now() + 10)
			}
			p.dispatch(30, sim.Event{})
		}
	})
	b.Run("saturated", func(b *testing.B) {
		eng := sim.New()
		p := newUnitPool(eng, k)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.dispatch(sim.Time(1+i%5), sim.Event{})
		}
	})
}
