package sim

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
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
// the original (time, insertion) order. Payload is the caller's: the
// engine neither writes nor reads it, so a caller can pack beside an event
// the record its A names in memory.
type SavedEvent struct {
	At      Time
	Seq     uint64
	Target  int32
	Kind    uint16
	A, B    int32
	C       int64
	Payload []byte
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
	// Walk the near wheel, then the far wheel (each through its occupancy
	// bitmap), then the overflow heap, listing each bucket's run and the
	// heap in (At, Seq) order. A near bucket already is; a far bucket
	// holds its run in insertion order and the heap in heap order, which
	// ImportState does not reproduce, so sorting them makes the list a
	// function of the pending set alone: a restored engine exports what
	// its source did.
	var run []*slabEntry
	flush := func() error {
		slices.SortFunc(run, func(a, b *slabEntry) int {
			if c := cmp.Compare(a.at, b.at); c != 0 {
				return c
			}
			return cmp.Compare(a.seq, b.seq)
		})
		for _, ent := range run {
			if err := save(ent); err != nil {
				return err
			}
		}
		run = run[:0]
		return nil
	}
	wheel := func(buckets []slot, occ []uint64) error {
		for w, word := range occ {
			for m := word; m != 0; m &= m - 1 {
				for ref := buckets[w<<6|bits.TrailingZeros64(m)].head; ref != 0; ref = e.entry(ref - 1).next {
					run = append(run, e.entry(ref-1))
				}
				if err := flush(); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := wheel(e.near[:], e.nearOcc[:]); err != nil {
		return EngineState{}, err
	}
	if err := wheel(e.far[:], e.farOcc[:]); err != nil {
		return EngineState{}, err
	}
	for i := range e.overflow {
		run = append(run, e.entry(e.overflow[i].ref))
	}
	if err := flush(); err != nil {
		return EngineState{}, err
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
	// order inside a bucket must be seq order per timestamp. The window is
	// the one holding the restored clock, so the events land in the
	// buckets the exporting engine would have filed them in.
	events := make([]SavedEvent, len(st.Events))
	copy(events, st.Events)
	sort.Slice(events, func(i, j int) bool {
		if events[i].At != events[j].At {
			return events[i].At < events[j].At
		}
		return events[i].Seq < events[j].Seq
	})
	e.now = st.Now
	e.win = st.Now &^ nearMask
	for _, sv := range events {
		// A pending event is never before the clock nor newer than the
		// sequence counter; one that is would fire out of order.
		if sv.At < st.Now || sv.Seq > st.Seq {
			return fmt.Errorf("sim: import event at %v (seq %d) is before the clock %v or past the sequence %d",
				sv.At, sv.Seq, st.Now, st.Seq)
		}
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
