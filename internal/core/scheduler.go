package core

import (
	"flashwalker/internal/sim"
	"flashwalker/internal/trace"
)

// This file is the subgraph scheduler's engine side: the Eq. 1 critical
// degree scores and the partition walk buffer (PWB) with its
// overflow-to-flash path (§III-D). The per-chip candidate scan consuming
// these scores lives in chipAccel.scheduleSlot.

// blockScore computes the Eq. 1 critical degree for block b. With
// SmartSchedule disabled it degrades to the walk count (GraphWalker-style
// most-walks-first).
func (e *boardEngine) blockScore(b int) float64 {
	pwb := float64(len(e.pwb[b]))
	fl := float64(len(e.fls[b]))
	if !e.cfg.Opts.SmartSchedule {
		return pwb + fl
	}
	s := pwb*e.cfg.Alpha + fl
	if !e.part.Blocks[b].Dense {
		s *= e.cfg.Beta
	}
	return s
}

// refreshScore recomputes block b's cached score.
func (e *boardEngine) refreshScore(b int) {
	e.score[b] = e.blockScore(b)
	e.scorePend[b] = 0
}

// insertPWB places a walk into the partition walk buffer entry of block b,
// overflowing the entry to flash when it fills (§III-D). The record is
// written through the DRAM port.
func (e *boardEngine) insertPWB(b int, w int32) {
	sz := e.walk(w).sizeBytes()
	e.dr.Write(sz, nil)
	e.pwb[b] = append(e.pwb[b], w)
	e.pwbBytes[b] += sz
	if e.pwbBytes[b] > e.cfg.PartitionWalkEntryBytes {
		e.overflowPWB(b)
	}
	e.scorePend[b]++
	if e.scorePend[b] >= e.cfg.ScoreUpdateEveryM {
		e.refreshScore(b)
	}
	// A chip with an idle slot may now have work.
	c := e.chips[e.place.ChipOf(b)]
	c.noteWork(b)
	c.trySchedule()
}

// overflowPWB flushes block b's walk buffer entry to flash.
func (e *boardEngine) overflowPWB(b int) {
	walks := e.pwb[b]
	bytes := e.pwbBytes[b]
	e.pwbBytes[b] = 0
	e.fls[b] = append(e.fls[b], walks...)
	e.pwb[b] = walks[:0] // entry keeps its capacity for the next fill
	pages := int((bytes + e.ssd.Cfg.PageBytes - 1) / e.ssd.Cfg.PageBytes)
	e.flsPages[b] += pages
	e.res.PWBOverflows++
	e.emit(trace.PWBOverflow, int64(b), int64(len(walks)))
	// The entry moves through the chip-level walk-overflow buffer and is
	// programmed on the block's own chip, so the read-back later is local.
	e.dr.Read(bytes, nil)
	e.ssd.ProgramPagesFromBoard(e.ssd.Chip(e.place.ChipOf(b)), pages, sim.Event{})
	e.refreshScore(b)
}
