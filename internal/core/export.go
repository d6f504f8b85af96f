package core

import (
	"flashwalker/internal/graph"
	"flashwalker/internal/sim"
)

// Completed-walk export: a streaming observer over walk retirement.
//
// When RunConfig.OnWalks is set, every finished walk (completed or
// dead-ended) is appended to an engine-owned buffer at the instant
// finishWalk retires it, and the buffer is handed to the callback in
// batches — at emitter boundaries (sim.SetEmitter, every EmitEvery
// processed events, strictly between events), immediately before every
// snapshot delivery, and once more when the run ends. Appending to the
// buffer is the only work done on the hot path, the callback itself only
// ever runs between events, and nothing here touches the clock or the
// schedule, so an exported run's timeline is bit-identical to an
// unexported one — the same pure-observer contract as the checkpoint hook.
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

// DefaultEmitEvery is the default event interval between OnWalks deliveries.
const DefaultEmitEvery = 1024

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
	if e.onWalks == nil || len(e.exportBuf) == 0 {
		return
	}
	e.onWalks(e.exportBuf)
	e.exportBuf = e.exportBuf[:0]
}
