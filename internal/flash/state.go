package flash

import (
	"fmt"

	"flashwalker/internal/sim"
)

// Snapshot support. The SSD's mid-run state is the queue bookings (planes,
// channel buses, PCIe), the per-chip round-robin cursors, the traffic
// counters, and the pooled multi-part op records. Every op completion is
// kept in the kernel's plain form (sim.Stored, or None), so live ops
// serialize at any event boundary as they are. The pool is exported by
// index, because a live op's pending part events name it; its free list is
// not, because it is exactly the ops with no parts left.

// OpState is one pooled op record. Remaining > 0 marks a live op, whose
// completion Done names its handler by its index in the engine's table,
// or is None; a free record is the zero OpState.
type OpState struct {
	Remaining int32
	Done      sim.Stored
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
}

// ExportState captures the SSD's queues, cursors, counters, and op pool.
func (s *SSD) ExportState() State {
	st := State{
		Counters: s.Counters,
		PCIe:     s.pcie.State(),
		Buses:    make([]sim.QueueState, 0, len(s.channels)),
		ChipNext: make([]int, 0, s.NumChips()),
		Ops:      make([]OpState, 0, len(s.ops)),
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
		var os OpState
		if op := &s.ops[i]; op.remaining > 0 {
			os = OpState{Remaining: op.remaining, Done: op.done}
		}
		st.Ops = append(st.Ops, os)
	}
	return st
}

// ImportState overlays a captured State onto a freshly built SSD of the
// same geometry, on an engine whose handler table holds every handler the
// completions name.
func (s *SSD) ImportState(st State) error {
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
	// The free list is rebuilt from the ops with no parts left, lowest
	// index first.
	s.ops = make([]flashOp, len(st.Ops))
	s.freeOp = -1
	for i := len(st.Ops) - 1; i >= 0; i-- {
		os := &st.Ops[i]
		switch {
		case os.Remaining < 0:
			return fmt.Errorf("flash: import: op %d has %d parts left", i, os.Remaining)
		case os.Remaining == 0:
			s.ops[i] = flashOp{free: s.freeOp}
			s.freeOp = int32(i)
			continue
		}
		if os.Done.Target >= int32(s.Eng.Handlers()) {
			return fmt.Errorf("flash: import op %d completion names handler %d of %d", i, os.Done.Target, s.Eng.Handlers())
		}
		s.ops[i] = flashOp{remaining: os.Remaining, free: -1, done: os.Done}
	}
	return nil
}

// CheckPending validates an imported SSD against the pending kernel events
// that target it: each must name a known kind and a live op, and a page
// sense or board page must name a chip, plane and retry attempt in range.
// Every part of a live op is exactly one pending event, so each live op
// must be named by as many events as it has parts left; otherwise it would
// complete twice, or never.
func (s *SSD) CheckPending(evs []sim.SavedEvent) error {
	parts := make([]int32, len(s.ops))
	for _, ev := range evs {
		if ev.Kind > fkXferHost {
			return fmt.Errorf("flash: pending event at %v has unknown kind %d", ev.At, ev.Kind)
		}
		if ev.A < 0 || int(ev.A) >= len(s.ops) || s.ops[ev.A].remaining == 0 {
			return fmt.Errorf("flash: pending event at %v names op %d, which is outside the pool or free", ev.At, ev.A)
		}
		parts[ev.A]++
		switch ev.Kind {
		case fkReadDone, fkSensedChan, fkSensedHost, fkBoardOnChip:
			if ev.B < 0 || int(ev.B) >= s.NumChips() {
				return fmt.Errorf("flash: pending event at %v names chip %d of %d", ev.At, ev.B, s.NumChips())
			}
		}
		switch ev.Kind {
		case fkReadDone, fkSensedChan, fkSensedHost:
			if plane, attempt := ev.C&0xffffffff, ev.C>>32; plane >= int64(s.Cfg.PlanesPerChip()) || attempt < 0 {
				return fmt.Errorf("flash: pending sense at %v names plane %d, attempt %d", ev.At, plane, attempt)
			}
		}
	}
	for i := range s.ops {
		if parts[i] != s.ops[i].remaining {
			return fmt.Errorf("flash: op %d has %d parts left but %d pending events", i, s.ops[i].remaining, parts[i])
		}
	}
	return nil
}
