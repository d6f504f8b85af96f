package sim

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
)

// Snapshot support: every pending event is a plain (handler index, kind,
// payload) record, so an Engine's pending schedule is plain data at any
// event boundary, from event zero on, and export and import copy it as it
// is. A saved event's Target is its handler's index in the engine's table:
// the caller registers its handlers in the same order before it imports
// (Engine.Register), so the indices name the same handlers.

// SavedEvent is one pending scheduler entry in serializable form. Seq
// orders the events of one timestamp, so a restored schedule drains in
// exactly the original (time, insertion) order.
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

// ExportState captures the engine's clock and pending schedule. The engine
// is not mutated; an exported engine can keep running.
//
// It walks the near wheel, then the far wheel (each through its occupancy
// bitmap), then the overflow heap. A near bucket holds one timestamp in
// seq order. A far bucket holds its window in seq order per timestamp, so
// a stable sort by time puts it in (time, seq) order, and the heap sorts on
// the seq its nodes keep. The events are then numbered by their position
// in the list: the numbers keep the order of each timestamp's events, and
// the list and its numbers are a function of the pending set alone, so a
// restored engine exports what its source did. Seq stays the real
// counter, above every number the list holds.
func (e *Engine) ExportState() EngineState {
	st := EngineState{
		Now:       e.now,
		Seq:       e.seq,
		Processed: e.processed,
		Events:    make([]SavedEvent, 0, e.Pending()),
	}
	save := func(ent *slabEntry) {
		st.Events = append(st.Events, SavedEvent{
			At: ent.at, Seq: uint64(len(st.Events) + 1), Target: int32(ent.h),
			Kind: ent.kind, A: ent.a, B: ent.b, C: ent.c,
		})
	}
	var run []*slabEntry
	wheel := func(buckets []slot, occ []uint64) {
		for w, word := range occ {
			for m := word; m != 0; m &= m - 1 {
				run = run[:0]
				for ref := buckets[w<<6|bits.TrailingZeros64(m)].head; ref != 0; ref = e.entry(ref - 1).next {
					run = append(run, e.entry(ref-1))
				}
				slices.SortStableFunc(run, func(a, b *slabEntry) int { return cmp.Compare(a.at, b.at) })
				for _, ent := range run {
					save(ent)
				}
			}
		}
	}
	wheel(e.near[:], e.nearOcc[:])
	wheel(e.far[:], e.farOcc[:])
	heap := slices.Clone(e.overflow)
	slices.SortFunc(heap, func(a, b node) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	for _, nd := range heap {
		save(e.entry(nd.ref))
	}
	return st
}

// ImportState restores a captured state into a fresh engine (zero clock, no
// pending or processed events) whose handler table holds every handler the
// events name. Saved sequence numbers order each timestamp's events as in
// the original run, and new events follow them. A checkpoint hook installed
// before the import falls due at the multiples above the restored count.
func (e *Engine) ImportState(st EngineState) error {
	if e.Pending() != 0 || e.processed != 0 || e.now != 0 {
		return fmt.Errorf("sim: ImportState requires a fresh engine (pending=%d processed=%d now=%v)",
			e.Pending(), e.processed, e.now)
	}
	// Each pending event took its own number below the counter.
	if uint64(len(st.Events)) > st.Seq {
		return fmt.Errorf("sim: import of %d events past the sequence %d", len(st.Events), st.Seq)
	}
	// Insert in (At, Seq) order: wheel buckets are FIFO lists, so arrival
	// order inside a bucket must be seq order per timestamp. The window is
	// the one holding the restored clock, so the events land in the
	// buckets the exporting engine would have filed them in.
	events := slices.Clone(st.Events)
	slices.SortStableFunc(events, func(a, b SavedEvent) int {
		if c := cmp.Compare(a.At, b.At); c != 0 {
			return c
		}
		return cmp.Compare(a.Seq, b.Seq)
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
		if sv.Target < 0 || int(sv.Target) >= len(e.handlers) {
			return fmt.Errorf("sim: import event at %v names handler %d of %d", sv.At, sv.Target, len(e.handlers))
		}
		ref, ent := e.newEntry()
		*ent = slabEntry{at: sv.At, c: sv.C, a: sv.A, b: sv.B, kind: sv.Kind, h: uint16(sv.Target)}
		e.file(sv.Seq, ref, sv.At)
	}
	e.seq = st.Seq
	e.processed = st.Processed
	e.armCheckpoint()
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
