package core

import (
	"flashwalker/internal/partition"
)

// This file holds the board-level routing decision logic — the one place a
// walk's destination is resolved. The tiers below it (channel, chip) only
// test membership in their own residents; everything that consults the
// subgraph mapping table, the dense-vertices table, or the walk query
// caches is here, so a new routing policy is a localized change.

// routeDecision is a precomputed guider classification of a walk. Its four
// words stay in registers between classify and Guide; a fifth would send
// the decision through the stack.
type routeDecision struct {
	blockID     int // destination block in current partition, -1 if n/a
	foreignPart int // >=0: walk leaves the current partition
	ops         int // guider operations
	searchSteps int // mapping table accesses needing a port
}

// classify decides a walk's destination: dense pre-walk, query-cache hit,
// or mapping-table binary search (restricted to the tagged range when the
// approximate walk search ran). A dense pre-walk tags the walk in place.
func (b *boardAccel) classify(w int32) routeDecision {
	e := b.e
	st := e.walk(w)
	d := routeDecision{blockID: -1, foreignPart: -1, ops: 1}

	// Pre-walked dense walks already know their block.
	if st.denseBlock >= 0 {
		d.blockID = int(st.denseBlock)
		if !e.inCurrentPartition(d.blockID) {
			d.foreignPart = e.part.PartitionOf(d.blockID)
		}
		return d
	}

	// Dense-vertices mapping table: bloom filter, then hash table
	// (§III-D). The serial lookup is cheap because the filter rejects
	// almost every non-dense vertex.
	d.ops++ // bloom probe
	if e.part.Dense.Contains(st.w.Cur) {
		d.ops++ // hash probe
		if meta, ok := e.part.Dense.Lookup(st.w.Cur); ok {
			// Pre-walking: choose the next edge now, before loading any of
			// the dense vertex's graph blocks, and route the walk to the
			// block holding that edge. The draw comes from the walk's own
			// stream via the same sampler decideHop uses, so pre-walked and
			// directly-updated paths consume the stream identically.
			idx, extra, probes := e.chooseNextEdge(st, meta.OutDegree)
			e.chargeFilterProbes(hopOutcome{filterProbes: probes}, nil)
			d.ops += 1 + extra
			blockID, _ := partition.DenseBlockFor(meta, idx)
			st.denseBlock = int32(blockID)
			st.denseEdge = idx
			d.blockID = blockID
			e.res.PreWalks++
			if !e.inCurrentPartition(blockID) {
				d.foreignPart = e.part.PartitionOf(blockID)
			}
			return d
		}
		// Bloom false positive: fall through to the normal search; the
		// design stays correct (§III-D).
	}

	// Walk query cache (§III-D).
	if e.cfg.Opts.WalkQuery && len(b.caches) > 0 {
		qc := b.caches[b.cacheRR]
		b.cacheRR = (b.cacheRR + 1) % len(b.caches)
		d.ops++ // cache probe
		if blockID, ok := qc.lookup(st.w.Cur); ok {
			e.res.QueryCacheHits++
			d.blockID = blockID
			if !e.inCurrentPartition(blockID) {
				d.foreignPart = e.part.PartitionOf(blockID)
			}
			return d
		}
		e.res.QueryCacheMisses++
		blockID, steps := b.search(st)
		d.searchSteps = steps
		d.blockID = blockID
		if blockID >= 0 {
			qc.insert(blockID)
			if !e.inCurrentPartition(blockID) {
				d.foreignPart = e.part.PartitionOf(blockID)
			}
		} else {
			d.foreignPart, d.searchSteps = b.resolveForeign(st, d.searchSteps)
		}
		return d
	}

	// No walk-query optimization: full binary search over the current
	// partition's mapping entries.
	blockID, steps := b.search(st)
	d.searchSteps = steps
	d.blockID = blockID
	if blockID >= 0 {
		if !e.inCurrentPartition(blockID) {
			d.foreignPart = e.part.PartitionOf(blockID)
		}
	} else {
		d.foreignPart, d.searchSteps = b.resolveForeign(st, d.searchSteps)
	}
	return d
}

// search binary-searches the subgraph mapping table for the walk's current
// vertex. With a range tag the search is restricted to the intersection of
// the tagged range and the current partition; otherwise it spans the
// current partition's entries.
func (b *boardAccel) search(st *wstate) (blockID, steps int) {
	e := b.e
	first, last := e.part.PartitionSpan(e.curPart)
	if st.rangeTag >= 0 {
		r := e.part.Ranges[st.rangeTag]
		if r.FirstBlock > first {
			first = r.FirstBlock
		}
		if r.LastBlock < last {
			last = r.LastBlock
		}
		if first > last {
			return -1, 1
		}
	}
	blockID, steps = e.part.BlockOfInRange(st.w.Cur, partition.Range{FirstBlock: first, LastBlock: last})
	e.res.TableSearchSteps += uint64(steps)
	return blockID, steps
}

// resolveForeign determines a foreigner's destination partition with a
// global table search (charged on top of the failed partition search).
func (b *boardAccel) resolveForeign(st *wstate, steps int) (part, totalSteps int) {
	e := b.e
	blockID, extra := e.part.BlockOf(st.w.Cur)
	e.res.TableSearchSteps += uint64(extra)
	if blockID < 0 {
		// Unmapped vertex (can only be dense, which was handled above) —
		// treat as home partition to stay safe.
		return e.homePartition(st.w.Cur), steps + extra
	}
	return e.part.PartitionOf(blockID), steps + extra
}
