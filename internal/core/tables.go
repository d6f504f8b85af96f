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
// Entries live in a fixed ring ordered by recency: logical position i
// (0 = most recent) occupies physical slot (head+i) % capacity. The miss
// path — the common case at figure scale, where ~80% of probes resolve
// outside the cache — scans all entries and then inserts, so both halves
// are engineered for it: the scan streams dense 16-byte {lo, hi} pairs a
// prefetcher can follow, and the ring makes insert-at-front O(1) where a
// shifted array paid a full-cache memmove per miss. Hits still pay the
// move-to-front shift, but under power-law walk skew they sit near the
// front.
// Recency order is semantically load-bearing, not just an eviction policy:
// a dense single-vertex block's range can sit inside a normal block's
// range, and on overlap the MOST RECENTLY touched entry answers — so hits
// must keep the exact shift-to-front behavior (a cheaper swap would
// reorder the middle of the cache and change later answers).
type vrange struct{ lo, hi graph.VertexID }

type queryCache struct {
	capacity int
	ranges   []vrange // ring, physical slot = (head + logical) % capacity
	blockIDs []int32
	head     int // physical slot of the most recent entry
	n        int // live entries
	hits     uint64
	misses   uint64
}

func newQueryCache(capacityBytes, entryBytes int64) *queryCache {
	cap := int(capacityBytes / entryBytes)
	if cap < 1 {
		cap = 1
	}
	return &queryCache{capacity: cap}
}

// slot maps a logical recency position to its physical ring slot.
func (qc *queryCache) slot(i int) int {
	p := qc.head + i
	if p >= qc.capacity {
		p -= qc.capacity
	}
	return p
}

// lookup probes the cache for v, returning the covering block ID on hit.
// The scan costs one unsigned compare per entry: lo <= v <= hi is exactly
// v-lo <= hi-lo in uint64 arithmetic (v < lo wraps v-lo past any width),
// and the re-sliced spans let the compiler drop per-element bounds checks.
func (qc *queryCache) lookup(v graph.VertexID) (blockID int, ok bool) {
	r := qc.ranges
	// Scan the ring in recency order: [head, end) then the wrapped prefix.
	hi := qc.head + qc.n
	if hi > len(r) {
		hi = len(r)
	}
	s := r[qc.head:hi]
	for j := range s {
		if v-s[j].lo <= s[j].hi-s[j].lo {
			qc.hits++
			if j > 0 {
				qc.promote(j)
			}
			return int(qc.blockIDs[qc.head]), true
		}
	}
	if w := qc.head + qc.n - len(r); w > 0 {
		s := r[:w]
		for j := range s {
			if v-s[j].lo <= s[j].hi-s[j].lo {
				qc.hits++
				qc.promote(j + len(r) - qc.head)
				return int(qc.blockIDs[qc.head]), true
			}
		}
	}
	qc.misses++
	return -1, false
}

// promote shifts logical entries [0, i) one position later and moves the
// entry at logical depth i to the front — the exact move-to-front the
// recency semantics require. The shift is at most three memmoves (the ring
// wraps once at most), not an element-by-element walk.
func (qc *queryCache) promote(i int) {
	p := qc.slot(i)
	lohi, id := qc.ranges[p], qc.blockIDs[p]
	r, b := qc.ranges, qc.blockIDs
	if p >= qc.head {
		// Contiguous: physical [head, p) moves to [head+1, p+1).
		copy(r[qc.head+1:p+1], r[qc.head:p])
		copy(b[qc.head+1:p+1], b[qc.head:p])
	} else {
		// Wrapped: shift the prefix [0, p) first, carry the last slot
		// around the seam, then shift the tail [head, cap-1).
		copy(r[1:p+1], r[:p])
		copy(b[1:p+1], b[:p])
		last := len(r) - 1
		r[0], b[0] = r[last], b[last]
		copy(r[qc.head+1:], r[qc.head:last])
		copy(b[qc.head+1:], b[qc.head:last])
	}
	r[qc.head] = lohi
	b[qc.head] = id
}

// insert caches a resolved entry at the front, evicting the LRU tail when
// full: the ring's head steps back onto the tail slot, so eviction is the
// overwrite itself — no shifting.
func (qc *queryCache) insert(low, high graph.VertexID, blockID int) {
	if qc.ranges == nil {
		qc.ranges = make([]vrange, qc.capacity)
		qc.blockIDs = make([]int32, qc.capacity)
	}
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

// insertTail appends an entry at the LRU tail, preserving the order of the
// entries already present. Snapshot restore uses it to rebuild the recency
// order exactly as saved (front first).
func (qc *queryCache) insertTail(low, high graph.VertexID, blockID int) {
	if qc.ranges == nil {
		qc.ranges = make([]vrange, qc.capacity)
		qc.blockIDs = make([]int32, qc.capacity)
	}
	if qc.n == qc.capacity {
		return // restoring more entries than capacity cannot happen; guard anyway
	}
	p := qc.slot(qc.n)
	qc.ranges[p] = vrange{lo: low, hi: high}
	qc.blockIDs[p] = int32(blockID)
	qc.n++
}

// invalidate clears the cache (used on partition switches: entries map
// vertices of the old partition's table).
func (qc *queryCache) invalidate() {
	qc.head = 0
	qc.n = 0
}

// unitPool models a pool of identical hardware units (updaters or guiders)
// as N serializing servers with least-loaded dispatch: a job of the given
// service time starts on whichever unit frees first.
type unitPool struct {
	eng   *sim.Engine
	units []*sim.Queue
	jobs  uint64
	busy  sim.Time
}

func newUnitPool(eng *sim.Engine, n int) *unitPool {
	p := &unitPool{eng: eng}
	for i := 0; i < n; i++ {
		p.units = append(p.units, sim.NewQueue(eng))
	}
	return p
}

// dispatch schedules a job on the least-busy unit and returns its
// completion time; done (the zero event for none) fires then.
func (p *unitPool) dispatch(service sim.Time, done sim.Event) sim.Time {
	p.jobs++
	p.busy += service
	return p.pick().AcquireEvent(service, done)
}

// pick returns the least-busy unit (first wins ties, matching FIFO issue
// order on an idle pool).
func (p *unitPool) pick() *sim.Queue {
	best := p.units[0]
	for _, u := range p.units[1:] {
		if u.BusyUntil() < best.BusyUntil() {
			best = u
		}
	}
	return best
}

// utilization reports mean unit utilization.
func (p *unitPool) utilization() float64 {
	el := p.eng.Now()
	if el <= 0 {
		return 0
	}
	u := float64(p.busy) / (float64(el) * float64(len(p.units)))
	if u > 1 {
		u = 1
	}
	return u
}
