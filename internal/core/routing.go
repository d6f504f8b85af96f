package core

import (
	"flashwalker/internal/flash"
	"flashwalker/internal/sim"
	"flashwalker/internal/trace"
	"flashwalker/internal/walk"
)

// This file is the engine-side walk routing support shared by the tiers —
// the foreigner path (demotion, buffer flush, read-back debt) — and the
// per-board store counts the driver's walk-conservation audit sums.

// demoteWalk moves a foreigner out of the current partition: the walk
// lands in the board's foreigner buffer (tracked as the tail of
// pendingMem[p]); if the buffer fills, every buffered foreigner is flushed
// to flash (§III-C/D). A destination partition on another board's shard is
// serialized over the inter-board fabric instead.
func (e *boardEngine) demoteWalk(p int, st wstate) {
	// Only the range tag is partition-relative; the dense pre-walk decision
	// (denseBlock/denseEdge) is globally valid and already consumed a draw
	// from the walk's RNG stream, so it must survive demotion — clearing it
	// would make the walk re-draw when its partition starts, desyncing the
	// stream between runs whose demotion timing differs.
	st.rangeTag = -1
	e.res.ForeignerWalks++
	if e.drv.shard.BoardOf(p) != e.boardID {
		e.drv.sendForeigner(e, p, st)
	} else {
		if e.pendingMem[p] == nil {
			e.pendingMem[p] = e.getWalkBuf()
		}
		e.pendingMem[p] = append(e.pendingMem[p], st)
		e.foreignerBufBytes += walk.StateBytes
		if e.foreignerBufBytes >= e.cfg.ForeignerBufBytes {
			e.flushForeigners()
		}
	}
	e.activeCur--
	e.checkPartitionDone()
}

// flushForeigners writes every foreigner-buffer resident to flash and
// records the read-back debt per destination partition.
func (e *boardEngine) flushForeigners() {
	var totalBytes int64
	for p := range e.pendingMem {
		tail := e.pendingMem[p][e.flushMark[p]:]
		if len(tail) == 0 {
			continue
		}
		bytes := int64(len(tail)) * walk.StateBytes
		e.pendingFlash[p] = append(e.pendingFlash[p], tail...)
		e.pendingFlashBytes[p] += bytes
		e.pendingMem[p] = e.pendingMem[p][:e.flushMark[p]]
		totalBytes += bytes
	}
	e.foreignerBufBytes = 0
	if totalBytes == 0 {
		return
	}
	e.res.ForeignerFlushes++
	e.emit(trace.ForeignerFlush, totalBytes, 0)
	e.dr.Read(totalBytes, nil)
	pages := int((totalBytes + e.ssd.Cfg.PageBytes - 1) / e.ssd.Cfg.PageBytes)
	e.ssd.ProgramPagesFromBoard(e.flushChip(), pages, sim.Event{})
}

// flushChip picks the next chip for board-side flash writes (round-robin).
func (e *boardEngine) flushChip() *flash.Chip {
	c := e.ssd.Chip(e.flushChipRR)
	e.flushChipRR = (e.flushChipRR + 1) % e.ssd.NumChips()
	return c
}

// inCurrentPartition reports whether block b belongs to the active
// partition.
func (e *boardEngine) inCurrentPartition(b int) bool {
	return e.part.PartitionOf(b) == e.curPart
}

// storedWalks counts every walk parked in this board's stores (pending
// lists plus per-block buffers).
func (e *boardEngine) storedWalks() int {
	stored := 0
	for p := range e.pendingMem {
		stored += len(e.pendingMem[p]) + len(e.pendingFlash[p])
	}
	for b := range e.pwb {
		stored += len(e.pwb[b]) + len(e.fls[b])
	}
	return stored
}

// activeCurStoredOverlap counts walks that are both active and sitting in
// a per-block store of the current partition (pwb/fls double-count
// against activeCur in the audit sum).
func (e *boardEngine) activeCurStoredOverlap() int {
	if e.curPart < 0 {
		return 0
	}
	first, last := e.part.PartitionSpan(e.curPart)
	n := 0
	for b := first; b <= last; b++ {
		n += len(e.pwb[b]) + len(e.fls[b])
	}
	return n
}
