package core

import (
	"flashwalker/internal/graph"
	"flashwalker/internal/sim"
)

// Completed-walk export: a streaming observer over walk retirement.
//
// When Observers.OnWalks is set, every finished walk (completed or
// dead-ended) is appended to an engine-owned buffer at the instant
// finishWalk retires it, and the buffer is handed to the callback in
// batches by the checkpoint hook (Engine.boundary, strictly between
// events): at a boundary at least minWalkGap events after the last
// delivery, immediately before every snapshot delivery, and once more when
// the run ends. Appending to the buffer is the only work done on the hot
// path, and nothing here touches the clock or the schedule, so an exported
// run's timeline is bit-identical to an unexported one — the checkpoint
// hook's pure-observer contract.
//
// Records carry a walk sequence number assigned in finish order. Finish
// order is a pure function of the simulated timeline, which is
// deterministic, so sequence numbers are stable across runs; and because
// snapshots capture every board's finished-walk counters, a resumed run
// continues the numbering exactly where the snapshot cut it. Flushing the export buffer before
// every snapshot delivery means a consumer that persists both sees every
// record below a snapshot's finished count before it sees the snapshot —
// a crash-recovered consumer never has a gap.

// WalkDone is one finished walk, exported in retirement order.
type WalkDone struct {
	// Seq is the walk's position in the run's finish order, starting at 0.
	// Deterministic for a given workload, continuous across snapshot/resume.
	Seq uint64
	// Src and End are the walk's start vertex and final vertex.
	Src graph.VertexID
	End graph.VertexID
	// Hops is the number of hops actually taken.
	Hops uint32
	// DeadEnd marks a walk that stopped at a vertex with no outgoing edge
	// before reaching its configured length.
	DeadEnd bool
	// At is the simulated time the walk retired.
	At sim.Time
}

// minWalkGap is the fewest events between two OnWalks deliveries at
// checkpoint boundaries, so a short CheckpointEvery does not multiply them.
const minWalkGap = 1024

// exportWalk appends the just-retired walk to the export buffer. Boards
// share one fleet-wide finish sequence, so the stream a consumer sees is a
// single total order at any board count.
func (e *Engine) exportWalk(be *boardEngine, st *wstate, completed bool) {
	e.exportBuf = append(e.exportBuf, WalkDone{
		Seq:     e.finSeq,
		Src:     st.w.Src,
		End:     st.w.Cur,
		Hops:    be.spec.Length - st.w.Hop,
		DeadEnd: !completed,
		At:      e.eng.Now(),
	})
	e.finSeq++
}

// flushWalks delivers the buffered records to the OnWalks callback and
// resets the buffer. The slice is reused between deliveries; the callback
// must copy anything it keeps.
func (e *Engine) flushWalks() {
	if e.obs.OnWalks == nil || len(e.exportBuf) == 0 {
		return
	}
	e.obs.OnWalks(e.exportBuf)
	e.exportBuf = e.exportBuf[:0]
	e.lastWalks = e.eng.Processed()
}
