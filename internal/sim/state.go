package sim

import (
	"fmt"
	"math/bits"
	"sort"
)

// Snapshot support: every pending event is a typed (target, kind, payload)
// record, so an Engine's pending schedule is plain data at any event
// boundary, from event zero on.
//
// Handlers are interface values, so the caller supplies the mapping between
// Handler identities and small integer IDs in both directions. The IDs are
// the caller's contract with itself: export and import must agree on them.

// SavedEvent is one pending scheduler entry in serializable form. Seq
// preserves the insertion order, so a restored schedule drains in exactly
// the original (time, insertion) order.
type SavedEvent struct {
	At     Time
	Seq    uint64
	Target int32
	Kind   uint16
	A, B   int32
	C      int64
}

// EngineState is the full serializable state of an Engine: the clock, the
// sequence and processed counters, and every pending event.
type EngineState struct {
	Now       Time
	Seq       uint64
	Processed uint64
	Events    []SavedEvent
}

// ExportState captures the engine's clock and pending schedule. targetID
// maps each distinct event target to a stable small integer; it should
// return an error for targets it does not recognize, and ExportState fails
// with that error.
//
// The engine is not mutated; an exported engine can keep running.
func (e *Engine) ExportState(targetID func(Handler) (int32, error)) (EngineState, error) {
	st := EngineState{
		Now:       e.now,
		Seq:       e.seq,
		Processed: e.processed,
		Events:    make([]SavedEvent, 0, e.Pending()),
	}
	save := func(ent *slabEntry) error {
		id, err := targetID(ent.ev.Target)
		if err != nil {
			return fmt.Errorf("sim: export event at %v: %w", ent.at, err)
		}
		st.Events = append(st.Events, SavedEvent{
			At: ent.at, Seq: ent.seq, Target: id,
			Kind: ent.ev.Kind, A: ent.ev.A, B: ent.ev.B, C: ent.ev.C,
		})
		return nil
	}
	// Walk the wheel's occupied buckets (via the occupancy bitmap) and then
	// the overflow heap. The order is deterministic but arbitrary; Seq is
	// what reconstructs the drain order on import.
	for w, word := range e.bmL1 {
		for m := word; m != 0; m &= m - 1 {
			idx := w<<6 | bits.TrailingZeros64(m)
			for ref := e.wheel[idx].head; ref != 0; ref = e.slab[ref-1].next {
				if err := save(&e.slab[ref-1]); err != nil {
					return EngineState{}, err
				}
			}
		}
	}
	for i := range e.overflow {
		if err := save(&e.slab[e.overflow[i].ref]); err != nil {
			return EngineState{}, err
		}
	}
	return st, nil
}

// ImportState restores a captured state into a fresh engine (zero clock, no
// pending or processed events). target is the inverse of ExportState's
// targetID mapping. Saved sequence numbers are preserved verbatim so ties
// at equal timestamps break identically to the original run.
func (e *Engine) ImportState(st EngineState, target func(int32) (Handler, error)) error {
	if e.Pending() != 0 || e.processed != 0 || e.now != 0 {
		return fmt.Errorf("sim: ImportState requires a fresh engine (pending=%d processed=%d now=%v)",
			e.Pending(), e.processed, e.now)
	}
	// Insert in (At, Seq) order: wheel buckets are FIFO lists, so arrival
	// order inside a bucket must be seq order.
	events := make([]SavedEvent, len(st.Events))
	copy(events, st.Events)
	sort.Slice(events, func(i, j int) bool {
		if events[i].At != events[j].At {
			return events[i].At < events[j].At
		}
		return events[i].Seq < events[j].Seq
	})
	e.now = st.Now
	for _, sv := range events {
		h, err := target(sv.Target)
		if err != nil {
			return fmt.Errorf("sim: import event at %v: %w", sv.At, err)
		}
		if h == nil {
			return fmt.Errorf("sim: import event at %v: nil target for id %d", sv.At, sv.Target)
		}
		e.insert(sv.At, sv.Seq, Event{
			Target: h, Kind: sv.Kind, A: sv.A, B: sv.B, C: sv.C,
		})
	}
	e.seq = st.Seq
	e.processed = st.Processed
	return nil
}

// QueueState is the serializable state of a Queue (the bound engine is
// re-supplied on restore).
type QueueState struct {
	BusyUntil Time
	BusyTotal Time
	Waited    Time
	Served    uint64
}

// State captures the queue's booking and accounting state.
func (q *Queue) State() QueueState {
	return QueueState{BusyUntil: q.busyUntil, BusyTotal: q.busyTotal, Waited: q.waited, Served: q.served}
}

// Restore overwrites the queue's booking and accounting state.
func (q *Queue) Restore(st QueueState) {
	q.busyUntil = st.BusyUntil
	q.busyTotal = st.BusyTotal
	q.waited = st.Waited
	q.served = st.Served
}
