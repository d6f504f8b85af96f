package core

import (
	"flashwalker/internal/graph"
	"flashwalker/internal/sim"
)

// queryCache is one walk query cache (§III-D): a tiny LRU of recently
// resolved subgraph mapping entries. A probe hits when a cached entry's
// vertex range covers the queried vertex; hot subgraphs therefore stay
// resident in every cache, which is exactly the locality argument the
// paper makes (binary-search upper levels + power-law walk skew).
//
// The hardware compares a probe against every entry; the model answers it
// in O(1) without changing a single answer. Only non-dense blocks are ever
// cached — the mapping-table search never returns a dense one — so cached
// ranges are pairwise disjoint, and a block is inserted only after a miss
// on one of its own vertices, so it is never cached twice. At most one
// entry can therefore cover v: the entry for vertexBlock[v], the
// partitioning's vertex→block index. The search is also confined to the
// current partition, which a switch clears the caches for, so every
// cached block lies in the span starting at base and slotOf maps a block's
// offset in that span to its entry. The entries form an index-linked
// recency list, so a hit is a move-to-front splice and a full-cache miss
// evicts the tail: the hits, evictions and recency order of a
// front-to-back scan, at a cost that does not grow with the capacity.
type queryCache struct {
	capacity    int
	vertexBlock []int32      // shared vertex → non-dense block index, -1 dense
	base        int32        // first block of the partition being cached
	slotOf      []int32      // block - base → entry slot, -1 when not cached
	ents        []cacheEntry // the slots in use
	head, tail  int32        // most and least recent slots, -1 when empty
}

// cacheEntry is one cached mapping entry, linked into the recency list.
type cacheEntry struct {
	block      int32
	prev, next int32 // toward the front / the tail, -1 at the ends
}

// newQueryCache sizes a cache for partitions of at most span blocks.
func newQueryCache(capacityBytes, entryBytes int64, vertexBlock []int32, span int) *queryCache {
	cap := int(capacityBytes / entryBytes)
	if cap < 1 {
		cap = 1
	}
	qc := &queryCache{capacity: cap, vertexBlock: vertexBlock, slotOf: make([]int32, span),
		ents: make([]cacheEntry, 0, cap), head: -1, tail: -1}
	for i := range qc.slotOf {
		qc.slotOf[i] = -1
	}
	return qc
}

// lookup probes the cache for v, returning the covering block ID on hit. A
// dense vertex (block -1) or one outside the partition lands outside slotOf.
func (qc *queryCache) lookup(v graph.VertexID) (blockID int, ok bool) {
	if i := uint32(qc.vertexBlock[v] - qc.base); i < uint32(len(qc.slotOf)) {
		if s := qc.slotOf[i]; s >= 0 {
			if s != qc.head {
				qc.unlink(s)
				qc.pushFront(s)
			}
			return int(qc.base) + int(i), true
		}
	}
	return -1, false
}

// insert caches a block resolved after a miss at the front, evicting the
// least recently used entry when full.
func (qc *queryCache) insert(blockID int) {
	s := qc.claim()
	qc.set(s, blockID)
	qc.pushFront(s)
}

// insertTail appends an entry at the LRU tail, preserving the order of the
// entries already present. Snapshot restore uses it to rebuild the recency
// order exactly as saved (front first); the caller has checked that the
// entries fit and are distinct.
func (qc *queryCache) insertTail(blockID int) {
	s := qc.claim()
	qc.set(s, blockID)
	qc.ents[s].prev, qc.ents[s].next = qc.tail, -1
	if qc.tail >= 0 {
		qc.ents[qc.tail].next = s
	} else {
		qc.head = s
	}
	qc.tail = s
}

// claim returns a free slot: a fresh one while the cache fills, then the
// evicted tail's.
func (qc *queryCache) claim() int32 {
	if len(qc.ents) < qc.capacity {
		qc.ents = append(qc.ents, cacheEntry{})
		return int32(len(qc.ents) - 1)
	}
	s := qc.tail
	qc.unlink(s)
	qc.slotOf[qc.ents[s].block-qc.base] = -1
	return s
}

func (qc *queryCache) set(s int32, blockID int) {
	qc.ents[s].block = int32(blockID)
	qc.slotOf[int32(blockID)-qc.base] = s
}

// unlink removes slot s from the recency list.
func (qc *queryCache) unlink(s int32) {
	en := &qc.ents[s]
	if en.prev >= 0 {
		qc.ents[en.prev].next = en.next
	} else {
		qc.head = en.next
	}
	if en.next >= 0 {
		qc.ents[en.next].prev = en.prev
	} else {
		qc.tail = en.prev
	}
}

// pushFront links slot s in as the most recent entry.
func (qc *queryCache) pushFront(s int32) {
	qc.ents[s].prev, qc.ents[s].next = -1, qc.head
	if qc.head >= 0 {
		qc.ents[qc.head].prev = s
	} else {
		qc.tail = s
	}
	qc.head = s
}

// blocks appends the cached block IDs to dst, most recent first (the
// snapshot's CacheState order).
func (qc *queryCache) blocks(dst []int) []int {
	for s := qc.head; s >= 0; s = qc.ents[s].next {
		dst = append(dst, int(qc.ents[s].block))
	}
	return dst
}

// reset clears the cache for the partition whose first block is base (used
// on partition switches: entries map vertices of the old partition's
// table).
func (qc *queryCache) reset(base int) {
	for _, en := range qc.ents {
		qc.slotOf[en.block-qc.base] = -1
	}
	qc.ents = qc.ents[:0]
	qc.head, qc.tail = -1, -1
	qc.base = int32(base)
}

// unitPool models a pool of identical hardware units (updaters or guiders)
// as k serializing servers with least-loaded dispatch: a job of the given
// service time starts on whichever unit frees first. Units are
// interchangeable — a pool exposes only its jobs' completion times — so it
// keeps a count of idle units and a min-heap of the busy units' busy-until
// times rather than k queues: a dispatch costs O(log busy), not a scan of
// every unit, and which idle unit takes a job never changes a later
// completion.
type unitPool struct {
	eng   *sim.Engine
	units int
	idle  int        // units known to be free
	until []sim.Time // min-heap of the other units' busy-until times
	jobs  uint64
	busy  sim.Time
}

func newUnitPool(eng *sim.Engine, n int) *unitPool {
	return &unitPool{eng: eng, units: n, idle: n}
}

// dispatch schedules a job on the least-busy unit and returns its
// completion time, max(now, earliest busy-until) + service; done (the zero
// event for none) fires then.
func (p *unitPool) dispatch(service sim.Time, done sim.Event) sim.Time {
	if service < 0 {
		panic("core: negative service time")
	}
	p.jobs++
	p.busy += service
	now := p.eng.Now()
	h := p.until
	// Units whose jobs have ended are idle again.
	for len(h) > 0 && h[0] <= now {
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		siftDown(h)
		p.idle++
	}
	var end sim.Time
	if p.idle > 0 {
		p.idle--
		end = now + service
		h = append(h, end)
		siftUp(h)
	} else {
		// Every unit is busy: the job queues on the one that frees first.
		end = h[0] + service
		h[0] = end
		siftDown(h)
	}
	p.until = h
	if !done.None() {
		p.eng.Schedule(end, done)
	}
	return end
}

// siftDown restores the min-heap order after h[0] grew.
func siftDown(h []sim.Time) {
	i, n := 0, len(h)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && h[r] < h[c] {
			c = r
		}
		if h[i] <= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// siftUp restores the min-heap order after an append.
func siftUp(h []sim.Time) {
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// utilization reports mean unit utilization.
func (p *unitPool) utilization() float64 {
	el := p.eng.Now()
	if el <= 0 {
		return 0
	}
	u := float64(p.busy) / (float64(el) * float64(p.units))
	if u > 1 {
		u = 1
	}
	return u
}
