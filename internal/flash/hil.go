package flash

import (
	"fmt"

	"flashwalker/internal/sim"
)

// HIL models the host-interface logic of §II-C: an NVMe-style submission /
// completion path in front of the FTL. Commands queue up to a bounded
// depth, pay a fixed controller processing latency, execute against the
// FTL, and complete back to the host over PCIe.
//
// GraphWalker-style host I/O goes through this layer in a real device; the
// in-storage accelerators do not (their commands ride the extended ONFI
// protocol on the channel buses instead, §III-C).
//
// Each command lives in a pooled record addressed by the A payload of the
// HIL's own stage events (controller latency -> PCIe -> FTL, or FTL -> PCIe
// for reads), so a command in flight is plain data.
type HIL struct {
	ssd *SSD
	ftl *FTL

	// queueDepth bounds outstanding commands (NVMe queue depth).
	queueDepth int
	inFlight   int
	waiting    []int32 // command records awaiting a queue slot, FIFO

	// procLatency is the controller's per-command processing time
	// (firmware decode + dispatch).
	procLatency sim.Time

	cmds    []hilCmd
	freeCmd int32

	Stats HILStats
}

// hilCmd is one pooled host command.
type hilCmd struct {
	write bool
	lpn   int64
	done  sim.Event
	free  int32 // free-list link
}

// Command outcomes, delivered in the B payload of the caller's completion.
const (
	CmdOK       int32 = iota
	CmdRejected       // bad LPN, unmapped read, or device full
)

// HIL stage event kinds (private to the HIL's HandleEvent).
const (
	hkExecute  uint16 = iota // controller processing done
	hkWriteIn                // write data crossed PCIe; program via the FTL
	hkReadOut                // read page sensed; move it over PCIe
	hkComplete               // the command's last stage finished
)

// HILStats counts command traffic.
type HILStats struct {
	Submitted uint64
	Completed uint64
	Rejected  uint64 // malformed commands (bad LPN, device full)
	MaxQueued int
}

// NewHIL builds the host interface over an FTL.
func NewHIL(ssd *SSD, ftl *FTL, queueDepth int, procLatency sim.Time) (*HIL, error) {
	if queueDepth <= 0 {
		return nil, fmt.Errorf("flash: queue depth %d <= 0", queueDepth)
	}
	if procLatency < 0 {
		return nil, fmt.Errorf("flash: negative processing latency")
	}
	return &HIL{ssd: ssd, ftl: ftl, queueDepth: queueDepth, procLatency: procLatency, freeCmd: -1}, nil
}

// SubmitRead enqueues a one-page read command. done (the zero event for
// none) fires after data has crossed PCIe, or once the FTL rejects the
// command; the HIL sets its B payload to CmdOK or CmdRejected.
func (h *HIL) SubmitRead(lpn int64, done sim.Event) {
	h.submit(hilCmd{write: false, lpn: lpn, done: done})
}

// SubmitWrite enqueues a one-page write command; done fires after the
// program completes, with its outcome in B as for SubmitRead.
func (h *HIL) SubmitWrite(lpn int64, done sim.Event) {
	h.submit(hilCmd{write: true, lpn: lpn, done: done})
}

func (h *HIL) submit(c hilCmd) {
	h.Stats.Submitted++
	var ref int32
	if h.freeCmd >= 0 {
		ref = h.freeCmd
		h.freeCmd = h.cmds[ref].free
	} else {
		h.cmds = append(h.cmds, hilCmd{})
		ref = int32(len(h.cmds) - 1)
	}
	c.free = -1
	h.cmds[ref] = c
	if h.inFlight >= h.queueDepth {
		h.waiting = append(h.waiting, ref)
		if len(h.waiting) > h.Stats.MaxQueued {
			h.Stats.MaxQueued = len(h.waiting)
		}
		return
	}
	h.start(ref)
}

func (h *HIL) start(ref int32) {
	h.inFlight++
	h.ssd.Eng.ScheduleAfter(h.procLatency, sim.Event{Target: h, Kind: hkExecute, A: ref})
}

// HandleEvent advances a command through its stages; A is the command
// record. It is exported only to satisfy sim.Handler.
func (h *HIL) HandleEvent(ev sim.Event) {
	c := &h.cmds[ev.A]
	switch ev.Kind {
	case hkExecute:
		if c.write {
			// Data moves host -> device over PCIe, then programs via the FTL.
			ev.Kind = hkWriteIn
			h.ssd.TransferHost(h.ssd.Cfg.PageBytes, ev)
			return
		}
		// Read: sense via the FTL, then move device -> host over PCIe.
		ev.Kind = hkReadOut
		if err := h.ftl.Read(c.lpn, ev); err != nil {
			h.complete(ev.A, CmdRejected)
		}
	case hkWriteIn:
		ev.Kind = hkComplete
		if err := h.ftl.Write(c.lpn, ev); err != nil {
			h.complete(ev.A, CmdRejected)
		}
	case hkReadOut:
		ev.Kind = hkComplete
		h.ssd.TransferHost(h.ssd.Cfg.PageBytes, ev)
	case hkComplete:
		h.complete(ev.A, CmdOK)
	default:
		panic(fmt.Sprintf("flash: unknown HIL event kind %d", ev.Kind))
	}
}

// complete retires a command, starts the next queued one, and delivers the
// caller's completion inline with the outcome in its B payload.
func (h *HIL) complete(ref int32, outcome int32) {
	done := h.cmds[ref].done
	h.cmds[ref] = hilCmd{free: h.freeCmd}
	h.freeCmd = ref
	if outcome != CmdOK {
		h.Stats.Rejected++
	}
	h.Stats.Completed++
	h.inFlight--
	if len(h.waiting) > 0 {
		next := h.waiting[0]
		h.waiting = h.waiting[1:]
		h.start(next)
	}
	if !done.None() {
		done.B = outcome
		done.Target.HandleEvent(done)
	}
}

// InFlight reports commands currently being processed.
func (h *HIL) InFlight() int { return h.inFlight }

// QueuedCommands reports commands waiting for a queue slot.
func (h *HIL) QueuedCommands() int { return len(h.waiting) }
