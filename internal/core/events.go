package core

import (
	"fmt"

	"flashwalker/internal/sim"
)

// This file is the engine's typed-event layer. Every continuation the
// accelerator tiers schedule — the time-0 hot-subgraph preload included —
// is a sim.Event targeting the board engine, dispatched through the jump
// table in HandleEvent. An event that hands a walk from one pipeline stage
// to the next is the whole record of the hand-off: A names the walk's index
// in the board's walk table, and B and C carry the kind's verdict (a chip
// or tier, a slot, the hop's outcome, a destination block or range and a
// foreign partition), so the hop path performs no allocation and keeps no
// side record.
//
// Ownership rule: a walk lives in its board's walk table (boardEngine.wtab)
// from the moment it lands on the board until it finishes or leaves over
// the fabric. Events, batches and the durable stores (pwb, fls, roving,
// pending lists, slot load buffers) hold its 4-byte table index, never a
// copy, and a tier advances the walk in place. At most one pending event
// carries a given walk.

// Core event kinds (private to boardEngine.HandleEvent; the sim and flash
// layers each have their own kind space behind their own Handlers).
const (
	evChipRoute      uint16 = iota // chip guider done (or stall retry): route walk at chip
	evChipUpdateDone               // chip updater done: apply hop outcome to slot
	evTierUpdateDone               // channel/board updater done (shared hot pipeline)
	evChanGuided                   // channel guider done: range tag or foreign partition
	evChanBatch                    // roving batch crossed the channel bus
	evChanTick                     // periodic roving fetch
	evBoardGuided                  // board guider done: maybe hit the table port
	evBoardPortDone                // mapping-table port access done: route
	evSlotRetry                    // deferred-load timer fired
	evLoadPart                     // one gating part of a slot load finished
	evSwitchPage                   // one flushed-foreigner page read back
	evHotLoaded                    // one preloaded hot block reached its tier
	evChanHot                      // channel guider done: walk is in a hot block
)

// Event payload fields, per kind: what A, B and C name. C packs two int32
// halves (packC, splitC). Resume checks every imported event against this
// table (boardEngine.checkEvent).
const (
	payChip       = 1 << iota // B is a chip
	paySlot                   // B is a chip, C's low half one of its slots
	payChan                   // B is a channel
	payTier                   // B is a channel, or -1 for the board
	payWalk                   // A is a carried walk
	payBatch                  // A is a roving batch
	payHop                    // C's high half holds the hop's outcome (hopTerminal, hopDeadEnd)
	payBytes                  // C's low half is the queue bytes a tier update claimed
	payBoardRoute             // B is the port steps, C (block, foreign partition)
	payChanRoute              // C is (range, foreign partition)
)

var eventPayload = [...]uint16{
	evChipRoute:      payChip | payWalk,
	evChipUpdateDone: paySlot | payWalk | payHop,
	evTierUpdateDone: payTier | payWalk | payHop | payBytes,
	evChanGuided:     payChan | payWalk | payChanRoute,
	evChanBatch:      payChan | payBatch,
	evChanTick:       payChan,
	evBoardGuided:    payWalk | payBoardRoute,
	evBoardPortDone:  payWalk | payBoardRoute,
	evSlotRetry:      paySlot,
	evLoadPart:       paySlot,
	evSwitchPage:     0,
	evHotLoaded:      payTier,
	evChanHot:        payChan | payWalk,
}

// packC packs two int32 halves into an event's C; splitC is its inverse and
// the only decoder, so a check and a handler read the same values.
func packC(lo, hi int32) int64 { return int64(uint32(lo)) | int64(hi)<<32 }

func splitC(c int64) (lo, hi int32) { return int32(c), int32(c >> 32) }

// Hop outcome bits an update completion carries in C's high half.
const (
	hopTerminal int32 = 1 << iota // the walk finished with this hop
	hopDeadEnd                    // ... at a zero-degree vertex
)

// flags packs the outcome an update completion carries.
func (h hopOutcome) flags() int32 {
	var f int32
	if h.terminal {
		f |= hopTerminal
	}
	if h.deadEnd {
		f |= hopDeadEnd
	}
	return f
}

// getWalkBuf hands out a recycled walk batch buffer (len 0).
func (e *boardEngine) getWalkBuf() []int32 {
	if n := len(e.wbufs); n > 0 {
		b := e.wbufs[n-1]
		e.wbufs[n-1] = nil
		e.wbufs = e.wbufs[:n-1]
		return b
	}
	return make([]int32, 0, 16)
}

// putWalkBuf recycles a batch buffer once its walks have been handed on.
func (e *boardEngine) putWalkBuf(b []int32) {
	if b == nil {
		return
	}
	e.wbufs = append(e.wbufs, b[:0])
}

// walkBatch is an in-flight roving batch crossing a channel bus.
type walkBatch struct {
	walks []int32
	free  int32
}

// newBatch parks a roving batch for the duration of its bus transfer.
func (e *boardEngine) newBatch(walks []int32) int32 {
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
func (e *boardEngine) takeBatch(ref int32) []int32 {
	walks := e.batches[ref].walks
	e.batches[ref] = walkBatch{free: e.freeBatch}
	e.freeBatch = ref
	return walks
}

// HandleEvent is the engine's event jump table: A carries a walk or a
// roving batch, B an accelerator index, C the kind's packed scratch
// (eventPayload). It is exported only to satisfy sim.Handler.
func (e *boardEngine) HandleEvent(ev sim.Event) {
	switch ev.Kind {
	case evChipRoute:
		e.chips[ev.B].route(ev.A)

	case evChipUpdateDone:
		c := e.chips[ev.B]
		slot, hop := splitC(ev.C)
		c.finishUpdate(c.slots[slot], ev.A, hop&hopTerminal != 0, hop&hopDeadEnd != 0)

	case evTierUpdateDone:
		size, hop := splitC(ev.C)
		e.tier(ev.B).finishHotUpdate(ev.A, int64(size), hop&hopTerminal != 0, hop&hopDeadEnd != 0)

	case evChanGuided:
		rangeID, foreign := splitC(ev.C)
		e.chans[ev.B].applyGuide(ev.A, rangeID, foreign)

	case evChanHot:
		ca := e.chans[ev.B]
		if !ca.tryHotUpdate(ev.A) {
			// Hot-update queue full: on to the board, untagged.
			ca.applyGuide(ev.A, -1, -1)
		}

	case evChanBatch:
		batch := e.takeBatch(ev.A)
		ca := e.chans[ev.B]
		for _, w := range batch {
			ca.Guide(w)
		}
		e.putWalkBuf(batch)

	case evChanTick:
		e.drv.ticks--
		if e.drv.stalled() {
			e.fail(fmt.Errorf("core: simulation stalled with %d walks unaccounted for", e.drv.remaining))
			return
		}
		ca := e.chans[ev.B]
		ca.tick()
		ca.scheduleTick()

	case evBoardGuided, evBoardPortDone:
		if b := e.board; ev.Kind == evBoardGuided && ev.B > 0 {
			// The search needs the mapping table: the same payload, renamed,
			// completes the port access. It is built afresh, field by field,
			// because renaming ev in place and passing it on would copy it
			// through the stack.
			port := b.ports[b.portRR]
			b.portRR = (b.portRR + 1) % len(b.ports)
			port.AcquireEvent(simTime(int(ev.B))*b.guiderCycle,
				sim.Event{Target: e, Kind: evBoardPortDone, A: ev.A, B: ev.B, C: ev.C})
			return
		}
		block, foreign := splitC(ev.C)
		e.board.route(ev.A, int(block), int(foreign))

	case evSlotRetry:
		c := e.chips[ev.B]
		slot, _ := splitC(ev.C)
		s := c.slots[slot]
		if s.defers > 0 && !s.loading && s.pending == 0 {
			c.scheduleSlot(s)
		}

	case evLoadPart:
		c := e.chips[ev.B]
		slot, _ := splitC(ev.C)
		c.loadPartDone(c.slots[slot])

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
			for _, w := range ws {
				e.board.Guide(w)
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
