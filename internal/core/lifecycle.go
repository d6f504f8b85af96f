package core

import (
	"fmt"

	"flashwalker/internal/graph"
	"flashwalker/internal/sim"
	"flashwalker/internal/trace"
	"flashwalker/internal/walk"
)

// This file is a board's walk lifecycle: retiring finished walks and
// advancing through the board's partitions as each drains.

// homePartition reports which partition a vertex's subgraph belongs to
// (dense vertices use their first block).
func (e *boardEngine) homePartition(v graph.VertexID) int {
	if id := e.part.VertexBlocks()[v]; id >= 0 {
		return e.part.PartitionOf(int(id))
	}
	if m, ok := e.part.Dense.Lookup(v); ok {
		return e.part.PartitionOf(m.FirstBlockID)
	}
	return 0
}

// finishWalk retires walk w (completed or dead-ended): the completed-walk
// export (export.go) reads its final state from the table, then its index
// is freed.
func (e *boardEngine) finishWalk(w int32, completed bool) {
	if completed {
		e.res.Completed++
		e.emit(trace.WalkDone, 1, 0)
	} else {
		e.res.DeadEnded++
		e.emit(trace.WalkDone, 0, 0)
	}
	if e.res.ProgressTS != nil {
		e.res.ProgressTS.Add(e.eng.Now(), 1)
	}
	if e.drv.obs.OnWalks != nil {
		e.drv.exportWalk(e, e.walk(w), completed)
	}
	e.dropWalk(w)
	e.drv.walkFinished()
	e.activeCur--
	e.checkPartitionDone()
}

// checkPartitionDone advances to the next partition once the current one is
// fully drained.
func (e *boardEngine) checkPartitionDone() {
	if e.finished || e.activeCur > 0 {
		return
	}
	if e.activeCur < 0 {
		e.fail(fmt.Errorf("core: activeCur went negative"))
		return
	}
	// The board just drained: ship every batched foreigner now so no walk
	// waits on an egress threshold that will never be reached.
	e.drv.flushEgressFrom(e.boardID)
	if e.drv.dead[e.boardID] {
		// A dead board is done: its shard was re-placed, so it has no
		// partition to advance to, and arrivals are re-forwarded, so
		// nothing can wake it.
		e.finished = true
		return
	}
	// An idle board is not done: fabric deliveries can wake it.
	e.advancePartition()
}

// advancePartition selects the next partition of this board's shard holding
// walks and dispatches its pending set. It reports false when the board has
// none.
func (e *boardEngine) advancePartition() bool {
	e.drv.auditConservation("partition-switch")
	np := e.part.NumPartitions
	for step := 1; step <= np; step++ {
		p := (e.curPart + step) % np
		if e.curPart < 0 {
			p = step - 1
		}
		if len(e.pendingMem[p]) == 0 && len(e.pendingFlash[p]) == 0 {
			continue
		}
		if e.drv.shard.BoardOf(p) != e.boardID {
			// Not this board's shard (possible only transiently around a
			// device kill, while evacuated walks are still in flight).
			continue
		}
		e.startPartition(p)
		return true
	}
	return false
}

// startPartition switches the engine to partition p: invalidates the query
// caches (their entries map the old partition's table), refreshes each
// chip's candidate block list, reads back flushed foreigner walks, and
// routes every pending walk through the board guider.
func (e *boardEngine) startPartition(p int) {
	e.curPart = p
	e.res.PartitionSwitches++
	e.emit(trace.PartitionSwitch, int64(p),
		int64(len(e.pendingMem[p])+len(e.pendingFlash[p])))
	first, _ := e.part.PartitionSpan(p)
	for _, qc := range e.board.caches {
		qc.reset(first)
	}
	for _, c := range e.chips {
		c.refreshBlocks()
	}

	// Foreigner-buffer residents bound for p are consumed now.
	e.foreignerBufBytes -= int64(len(e.pendingMem[p])-e.flushMark[p]) * walk.StateBytes
	e.flushMark[p] = 0
	mem := e.pendingMem[p]
	e.pendingMem[p] = nil
	fl := e.pendingFlash[p]
	e.pendingFlash[p] = nil

	e.activeCur = len(mem) + len(fl)

	for _, w := range mem {
		e.board.Guide(w)
	}
	e.putWalkBuf(mem)
	if len(fl) > 0 {
		// Read the flushed foreigner pages back (striped over chips, the
		// same way they were written). The last page's evSwitchPage
		// completion dispatches the batch.
		flBytes := int64(len(fl)) * walk.StateBytes
		pages := int((flBytes + e.ssd.Cfg.PageBytes - 1) / e.ssd.Cfg.PageBytes)
		e.switchLeft = pages
		e.switchWalks = fl
		for i := 0; i < pages; i++ {
			chip := e.ssd.Chip(e.flushChipRR)
			e.flushChipRR = (e.flushChipRR + 1) % e.ssd.NumChips()
			e.ssd.ReadPagesToChannel(chip, 1, sim.Event{Target: e, Kind: evSwitchPage})
		}
	}
	if e.activeCur == 0 {
		// Nothing was pending after all (shouldn't happen, lists checked).
		e.checkPartitionDone()
	}
}
