package core

import (
	"flashwalker/internal/sim"
	"flashwalker/internal/walk"
)

// boardAccel is the board-level accelerator (§III-D): it resolves roving
// walks through the subgraph mapping table (with walk query caches), runs
// dense-vertex pre-walking, updates walks in its hot subgraphs (the shared
// tierCommon pipeline), manages the partition walk buffer / foreigner /
// completed buffers, and hosts the subgraph scheduler (implemented in
// boardEngine.insertPWB / chipAccel.scheduleSlot). The classification itself
// lives in route.go.
type boardAccel struct {
	tierCommon

	// ports are the mapping table's banks; binary-search accesses
	// serialize per bank, modelling the contention the query cache
	// relieves (§III-D).
	ports   []*sim.Queue
	portRR  int
	caches  []*queryCache
	cacheRR int

	completedBytes int64
}

// Guide runs a walk through the board-level walk guider: classify first
// (route.go), then charge the guider ops and any mapping-table port time,
// then apply the decision (evBoardGuided / evBoardPortDone continuations).
func (b *boardAccel) Guide(w int32) {
	d := b.classify(w)
	b.dispatchGuide(d.ops, sim.Event{Target: b.e, Kind: evBoardGuided, A: w,
		B: int32(d.searchSteps), C: packC(int32(d.blockID), int32(d.foreignPart))})
}

// route applies a classification.
func (b *boardAccel) route(d routeDecision) {
	e := b.e
	if d.foreignPart >= 0 {
		e.demoteWalk(d.foreignPart, d.w)
		return
	}
	if d.blockID < 0 {
		e.fail(errUnroutable)
		return
	}
	// Board-level hot subgraph: update in place (§III-D).
	if e.cfg.Opts.HotSubgraphs && b.hotReady && e.walk(d.w).denseBlock < 0 &&
		b.hot.contains(d.blockID) && b.tryHotUpdate(d.w) {
		return
	}
	// Degraded destination chip: try the channel-level failover copy first
	// (degrade.go); a miss falls through — the chip still works, just slow.
	if e.rerouteDegraded(d.blockID, d.w) {
		return
	}
	e.insertPWB(d.blockID, d.w)
}

// completed accumulates a finished walk in the board's completed-walk
// buffer, flushing to flash when full.
func (b *boardAccel) completed() {
	e := b.e
	b.completedBytes += walk.StateBytes
	if b.completedBytes >= e.cfg.CompletedBufBytes {
		pages := int((b.completedBytes + e.ssd.Cfg.PageBytes - 1) / e.ssd.Cfg.PageBytes)
		e.ssd.ProgramPagesFromBoard(e.flushChip(), pages, sim.Event{})
		b.completedBytes = 0
		e.res.CompletedFlushes++
	}
}

var errUnroutable = &unroutableError{}

type unroutableError struct{}

func (*unroutableError) Error() string {
	return "core: walk had no destination block in the current partition"
}
