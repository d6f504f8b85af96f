package core

import "flashwalker/internal/sim"

// This file is the engine's typed-event layer. Every continuation the
// accelerator tiers schedule — the time-0 hot-subgraph preload included —
// is a sim.Event targeting the board engine, dispatched through the jump
// table in HandleEvent. The walk being carried across the event boundary
// lives in a pooled wnode addressed by the event's A payload, so the hop
// path performs no allocation once the pools are warm.
//
// Ownership rule: a wnode holds a walk only across a single event boundary
// (dispatch -> completion). The durable stores (pwb, fls, roving, pending
// lists, slot load buffers) hold walk values, never node references, so a
// node is always freed inside the handler that consumes it — before any
// re-routing that might claim a fresh node.

// Core event kinds (private to boardEngine.HandleEvent; the sim and flash
// layers each have their own kind space behind their own Handlers).
const (
	evChipRoute      uint16 = iota // chip guider done (or stall retry): route walk at chip
	evChipUpdateDone               // chip updater done: apply hop outcome to slot
	evTierUpdateDone               // channel/board updater done (shared hot pipeline)
	evChanGuided                   // channel guider done: apply classification
	evChanBatch                    // roving batch crossed the channel bus
	evChanTick                     // periodic roving fetch
	evBoardGuided                  // board guider done: maybe hit the table port
	evBoardPortDone                // mapping-table port access done: route
	evSlotRetry                    // deferred-load timer fired
	evLoadPart                     // one gating part of a slot load finished
	evSwitchPage                   // one flushed-foreigner page read back
	evHotLoaded                    // one preloaded hot block reached its tier
)

// wnode carries one walk (plus per-event scratch) across an event boundary.
type wnode struct {
	st       wstate
	prevSize int64 // tier update: queueBytes claimed at dispatch
	hot      int32 // channel guide: hot block, -1 none
	foreign  int32 // guide: destination partition when leaving, -1 none
	rangeID  int32 // channel guide: approximate-search range tag
	block    int32 // board guide: destination block, -1 none
	steps    int32 // board guide: mapping-table port steps
	terminal bool  // update: walk finished
	deadEnd  bool  // update: finished at a zero-degree vertex
	free     int32 // free-list link
}

// newNode claims a pooled node.
func (e *boardEngine) newNode() (int32, *wnode) {
	var ref int32
	if e.freeNode >= 0 {
		ref = e.freeNode
		e.freeNode = e.nodes[ref].free
	} else {
		e.nodes = append(e.nodes, wnode{})
		ref = int32(len(e.nodes) - 1)
	}
	n := &e.nodes[ref]
	*n = wnode{free: -1}
	return ref, n
}

// node resolves a reference. The pointer is only valid until the next
// newNode call (the backing array may grow).
func (e *boardEngine) node(ref int32) *wnode { return &e.nodes[ref] }

// freeNodeRef recycles a node.
func (e *boardEngine) freeNodeRef(ref int32) {
	e.nodes[ref] = wnode{free: e.freeNode}
	e.freeNode = ref
}

// getWalkBuf hands out a recycled walk batch buffer (len 0).
func (e *boardEngine) getWalkBuf() []wstate {
	if n := len(e.wbufs); n > 0 {
		b := e.wbufs[n-1]
		e.wbufs[n-1] = nil
		e.wbufs = e.wbufs[:n-1]
		return b
	}
	return make([]wstate, 0, 16)
}

// putWalkBuf recycles a batch buffer once its walks have been handed on.
func (e *boardEngine) putWalkBuf(b []wstate) {
	if b == nil {
		return
	}
	e.wbufs = append(e.wbufs, b[:0])
}

// walkBatch is an in-flight roving batch crossing a channel bus.
type walkBatch struct {
	walks []wstate
	free  int32
}

// newBatch parks a roving batch for the duration of its bus transfer.
func (e *boardEngine) newBatch(walks []wstate) int32 {
	var ref int32
	if e.freeBatch >= 0 {
		ref = e.freeBatch
		e.freeBatch = e.batches[ref].free
	} else {
		e.batches = append(e.batches, walkBatch{})
		ref = int32(len(e.batches) - 1)
	}
	e.batches[ref] = walkBatch{walks: walks, free: -1}
	return ref
}

// takeBatch releases a batch record, returning its walks.
func (e *boardEngine) takeBatch(ref int32) []wstate {
	walks := e.batches[ref].walks
	e.batches[ref] = walkBatch{free: e.freeBatch}
	e.freeBatch = ref
	return walks
}

// HandleEvent is the engine's event jump table. A carries a wnode or batch
// reference, B an accelerator index, C a slot index — per kind. It is
// exported only to satisfy sim.Handler.
func (e *boardEngine) HandleEvent(ev sim.Event) {
	switch ev.Kind {
	case evChipRoute:
		c := e.chips[ev.B]
		st := e.node(ev.A).st
		e.freeNodeRef(ev.A)
		c.route(st)

	case evChipUpdateDone:
		c := e.chips[ev.B]
		s := c.slots[ev.C]
		n := e.node(ev.A)
		st, terminal, deadEnd := n.st, n.terminal, n.deadEnd
		e.freeNodeRef(ev.A)
		c.finishUpdate(s, st, terminal, deadEnd)

	case evTierUpdateDone:
		t := e.tier(ev.B)
		n := e.node(ev.A)
		st, size, terminal, deadEnd := n.st, n.prevSize, n.terminal, n.deadEnd
		e.freeNodeRef(ev.A)
		t.finishHotUpdate(st, size, terminal, deadEnd)

	case evChanGuided:
		ca := e.chans[ev.B]
		n := e.node(ev.A)
		st, hot, foreign, rangeID := n.st, n.hot, n.foreign, n.rangeID
		e.freeNodeRef(ev.A)
		ca.applyGuide(st, hot, foreign, rangeID)

	case evChanBatch:
		batch := e.takeBatch(ev.A)
		ca := e.chans[ev.B]
		if len(batch) > 1 && !e.cfg.DisableBatchKernel {
			ca.guideBatch(batch)
		} else {
			for i := range batch {
				ca.Guide(batch[i])
			}
		}
		e.putWalkBuf(batch)

	case evChanTick:
		ca := e.chans[ev.B]
		ca.tick()
		ca.scheduleTick()

	case evBoardGuided:
		n := e.node(ev.A)
		if n.steps > 0 {
			b := e.board
			port := b.ports[b.portRR]
			b.portRR = (b.portRR + 1) % len(b.ports)
			port.AcquireEvent(simTime(int(n.steps))*b.guiderCycle,
				sim.Event{Target: e, Kind: evBoardPortDone, A: ev.A})
			return
		}
		e.routeBoardNode(ev.A)

	case evBoardPortDone:
		e.routeBoardNode(ev.A)

	case evSlotRetry:
		c := e.chips[ev.B]
		s := c.slots[ev.C]
		if s.defers > 0 && !s.loading && s.pending == 0 {
			c.scheduleSlot(s)
		}

	case evLoadPart:
		e.chips[ev.B].loadPartDone(e.chips[ev.B].slots[ev.C])

	case evHotLoaded:
		t := e.tier(ev.B)
		t.hotPending--
		if t.hotPending == 0 {
			t.hotReady = true
		}

	case evSwitchPage:
		e.switchLeft--
		if e.switchLeft == 0 {
			ws := e.switchWalks
			e.switchWalks = nil
			for i := range ws {
				e.board.Guide(ws[i])
			}
			e.putWalkBuf(ws)
		}

	default:
		panic("core: unknown event kind")
	}
}

// tier resolves a channel index, or -1 for the board, to its tier state
// (tierCommon.tierID in reverse).
func (e *boardEngine) tier(id int32) *tierCommon {
	if id >= 0 {
		return &e.chans[id].tierCommon
	}
	return &e.board.tierCommon
}

// routeBoardNode applies a board classification parked in a node.
func (e *boardEngine) routeBoardNode(ref int32) {
	n := e.node(ref)
	d := routeDecision{st: n.st, blockID: int(n.block), foreignPart: int(n.foreign)}
	e.freeNodeRef(ref)
	e.board.route(d)
}
