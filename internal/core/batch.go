package core

import (
	"sort"

	"flashwalker/internal/walk"
)

// Batched, cache-conscious walk-update kernel.
//
// When an updater receives a burst of walks at once — a chip slot
// activating with its claimed walks (chip.go loadPartDone) or a roving
// batch landing at a channel guider (events.go evChanBatch) — the decisions
// for the whole burst are made in a single pass ORDERED BY CURRENT VERTEX
// (and by (prev, cur) for second-order walks, so edge-bloom probes for the
// same vertex pair coalesce). Sorting means the adjacency ranges,
// cumulative-weight arrays, and alias rows the pass touches stream through
// the CPU caches sequentially instead of hopping randomly across the graph.
//
// This reordering is outcome-safe — and keeps every golden digest
// bit-identical — for two reasons:
//
//  1. Every sampling draw comes from the walk's PRIVATE RNG stream
//     (wstate.rng), so the values a walk draws are independent of which
//     other walks were decided before it. decideHop's only shared write is
//     res.Visits[v]++, an order-independent sum.
//
//  2. Only the pure decision pass is reordered. Everything with a
//     device-visible effect — filter-probe DRAM/bus charges, wnode
//     allocation, and the completion-event dispatch with its service time —
//     runs afterwards in the ORIGINAL arrival order, so the simulated
//     timeline is byte-for-byte the same as deciding one walk at a time.
//
// Sites that mutate shared state during classification (the board guider's
// query-cache LRU and pre-walk draws, route.go) are never batch-reordered.

// batchSorter sorts a permutation of batch indices by walk locality. It is
// a boardEngine field (not a local) so the sort.Interface conversion in
// sort.Sort(&e.bsort) does not allocate — the steady-state hop path must
// stay allocation-free (alloc_test.go).
type batchSorter struct {
	walks  []wstate
	perm   []int32
	byPrev bool
}

func (s *batchSorter) Len() int      { return len(s.perm) }
func (s *batchSorter) Swap(i, j int) { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] }
func (s *batchSorter) Less(i, j int) bool {
	return walkLess(&s.walks[s.perm[i]], &s.walks[s.perm[j]], s.byPrev)
}

// walkLess is the batch locality order: by (prev, cur) when byPrev is set
// (second-order walks, coalescing edge-bloom probes per vertex pair), by
// current vertex otherwise.
func walkLess(a, b *wstate, byPrev bool) bool {
	if byPrev && a.prev != b.prev {
		return a.prev < b.prev
	}
	return a.w.Cur < b.w.Cur
}

// insertionSortMax is the batch size up to which sortedPerm uses a direct
// insertion sort. Update bursts are slot claims and roving batches — tens
// of walks — where insertion sort beats sort.Sort's interface-call overhead
// by a wide margin; the comparison sort remains as the large-batch fallback.
const insertionSortMax = 48

// sortedPerm returns the indices of walks ordered by current vertex (and
// previous vertex first when byPrev is set). The permutation slice is
// engine-owned scratch, valid until the next call.
func (e *boardEngine) sortedPerm(walks []wstate, byPrev bool) []int32 {
	n := len(walks)
	if cap(e.bsort.perm) < n {
		e.bsort.perm = make([]int32, n)
	}
	perm := e.bsort.perm[:n]
	e.bsort.perm = perm
	for i := range perm {
		perm[i] = int32(i)
	}
	if n <= insertionSortMax {
		for i := 1; i < n; i++ {
			p := perm[i]
			j := i
			for j > 0 && walkLess(&walks[p], &walks[perm[j-1]], byPrev) {
				perm[j] = perm[j-1]
				j--
			}
			perm[j] = p
		}
		return perm
	}
	e.bsort.walks, e.bsort.byPrev = walks, byPrev
	sort.Sort(&e.bsort)
	e.bsort.walks = nil
	return perm
}

// decideBatch decides every walk's hop in one locality-sorted pass.
// Outcomes land at each walk's ORIGINAL index so the caller dispatches them
// in arrival order; the returned slice is engine-owned scratch, valid until
// the next call.
func (e *boardEngine) decideBatch(walks []wstate) []hopOutcome {
	n := len(walks)
	if cap(e.batchOuts) < n {
		e.batchOuts = make([]hopOutcome, n)
	}
	outs := e.batchOuts[:n]
	e.batchOuts = outs
	for _, idx := range e.sortedPerm(walks, e.spec.Kind == walk.SecondOrder) {
		outs[idx] = e.decideHop(walks[idx])
	}
	return outs
}
