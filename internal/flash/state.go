package flash

import (
	"fmt"

	"flashwalker/internal/sim"
)

// Snapshot support. The SSD's mid-run state is the queue bookings (planes,
// channel buses, PCIe), the per-chip round-robin cursors, the traffic
// counters, and the pooled multi-part op records. Every op completion is a
// typed event (or none), so live ops serialize at any event boundary: the
// event's target is mapped to a small integer by the caller, as in
// sim.Engine.ExportState.

// OpEvent is a typed completion event in serializable form.
type OpEvent struct {
	Target int32
	Kind   uint16
	A, B   int32
	C      int64
}

// OpState is one pooled op record. Remaining > 0 marks a live op; free
// records carry only their free-list link.
type OpState struct {
	Remaining int32
	Free      int32
	HasDone   bool
	Done      OpEvent
}

// State is the serializable mid-run state of an SSD. Geometry and timing
// are not included: a restored run rebuilds the SSD from the same validated
// Config and overlays this state.
type State struct {
	Counters Counters
	PCIe     sim.QueueState
	Buses    []sim.QueueState // one per channel
	Planes   []sim.QueueState // chip-major: chip*PlanesPerChip() + plane
	ChipNext []int            // per-chip round-robin plane cursor
	Ops      []OpState
	FreeOp   int32
}

// ExportState captures the SSD's queues, cursors, counters, and op pool.
// targetID maps completion-event targets exactly as in
// sim.Engine.ExportState, and its error fails the export.
func (s *SSD) ExportState(targetID func(sim.Handler) (int32, error)) (State, error) {
	st := State{
		Counters: s.Counters,
		PCIe:     s.pcie.State(),
		Buses:    make([]sim.QueueState, 0, len(s.channels)),
		ChipNext: make([]int, 0, s.NumChips()),
		Ops:      make([]OpState, 0, len(s.ops)),
		FreeOp:   s.freeOp,
	}
	for _, ch := range s.channels {
		st.Buses = append(st.Buses, ch.Bus.State())
		for _, chip := range ch.Chips {
			st.ChipNext = append(st.ChipNext, chip.next)
			for _, pl := range chip.planes {
				st.Planes = append(st.Planes, pl.State())
			}
		}
	}
	for i := range s.ops {
		op := &s.ops[i]
		os := OpState{Remaining: op.remaining, Free: op.free}
		if op.remaining > 0 && !op.done.None() {
			id, err := targetID(op.done.Target)
			if err != nil {
				return State{}, fmt.Errorf("flash: export op %d completion: %w", i, err)
			}
			os.HasDone = true
			os.Done = OpEvent{Target: id, Kind: op.done.Kind, A: op.done.A, B: op.done.B, C: op.done.C}
		}
		st.Ops = append(st.Ops, os)
	}
	return st, nil
}

// ImportState overlays a captured State onto a freshly built SSD of the
// same geometry. target is the inverse of ExportState's targetID mapping.
func (s *SSD) ImportState(st State, target func(int32) (sim.Handler, error)) error {
	if len(st.Buses) != len(s.channels) {
		return fmt.Errorf("flash: import: %d channels in state, SSD has %d", len(st.Buses), len(s.channels))
	}
	if len(st.ChipNext) != s.NumChips() {
		return fmt.Errorf("flash: import: %d chips in state, SSD has %d", len(st.ChipNext), s.NumChips())
	}
	if len(st.Planes) != s.NumChips()*s.Cfg.PlanesPerChip() {
		return fmt.Errorf("flash: import: %d planes in state, SSD has %d",
			len(st.Planes), s.NumChips()*s.Cfg.PlanesPerChip())
	}
	s.Counters = st.Counters
	s.pcie.Restore(st.PCIe)
	chipIdx, planeIdx := 0, 0
	for ci, ch := range s.channels {
		ch.Bus.Restore(st.Buses[ci])
		for _, chip := range ch.Chips {
			chip.next = st.ChipNext[chipIdx]
			chipIdx++
			for _, pl := range chip.planes {
				pl.Restore(st.Planes[planeIdx])
				planeIdx++
			}
		}
	}
	s.ops = make([]flashOp, len(st.Ops))
	for i, os := range st.Ops {
		op := flashOp{remaining: os.Remaining, free: os.Free}
		if os.HasDone {
			h, err := target(os.Done.Target)
			if err != nil {
				return fmt.Errorf("flash: import op %d completion: %w", i, err)
			}
			op.done = sim.Event{Target: h, Kind: os.Done.Kind, A: os.Done.A, B: os.Done.B, C: os.Done.C}
		}
		s.ops[i] = op
	}
	s.freeOp = st.FreeOp
	return nil
}
