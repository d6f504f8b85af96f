package core

import (
	fl "flashwalker/internal/flash"
	"flashwalker/internal/sim"
	"flashwalker/internal/trace"
)

// channelAccel is a channel-level accelerator (§III-C): it fetches roving
// walks from its chips at a fixed interval, updates walks landing in its
// hot subgraphs (the shared tierCommon pipeline), performs the approximate
// walk search for the rest, and forwards them to the board.
type channelAccel struct {
	tierCommon
	id      int
	channel *fl.Channel
	// failover marks that a degraded chip's hot subgraphs were merged into
	// this channel's hot set (degrade.go); it keeps the hot path live even
	// when Opts.HotSubgraphs is off.
	failover bool
}

// scheduleTick arms the periodic roving-walk fetch.
func (ca *channelAccel) scheduleTick() {
	if ca.e.finished {
		return
	}
	ca.e.eng.ScheduleAfter(ca.e.cfg.RovingFetchInterval,
		sim.Event{Target: ca.e, Kind: evChanTick, B: int32(ca.id)})
}

// tick collects roving walks from every chip on the channel; each chip's
// batch crosses the channel bus as one transfer (parked in a pooled batch
// record until the evChanBatch completion).
func (ca *channelAccel) tick() {
	e := ca.e
	first := ca.id * e.ssd.Cfg.ChipsPerChannel
	for k := 0; k < e.ssd.Cfg.ChipsPerChannel; k++ {
		chip := e.chips[first+k]
		walks, bytes := chip.takeRoving()
		if len(walks) == 0 {
			continue
		}
		e.res.RovingTransfers++
		e.res.RovingWalks += uint64(len(walks))
		e.emit(trace.RovingBatch, int64(chip.id), int64(len(walks)))
		bref := e.newBatch(walks)
		e.ssd.TransferChannelE(ca.channel, bytes,
			sim.Event{Target: e, Kind: evChanBatch, A: bref, B: int32(ca.id)})
	}
}

// chanGuide is one walk's channel-level classification: the guider op count
// plus the hot-block/foreign-partition/range verdicts that evChanGuided
// will apply.
type chanGuide struct {
	ops     int
	hot     int32
	foreign int32
	rangeID int32
}

// classify computes a roving walk's channel-level verdict: hot-subgraph
// membership first, then the approximate walk search (range query), which
// can detect foreigners without board involvement. It is pure apart from
// the RangeQueries counter (an order-independent sum), which is what lets
// guideBatch reorder the classification pass.
func (ca *channelAccel) classify(st *wstate) chanGuide {
	e := ca.e
	ops := 1
	var hotBlock = -1
	if (e.cfg.Opts.HotSubgraphs || ca.failover) && ca.hotReady && ca.hot != nil && st.denseBlock < 0 {
		b, steps := ca.hot.find(st.w.Cur)
		ops += steps
		hotBlock = b
	}
	var rangeID = -1
	var foreignPart = -1
	if hotBlock < 0 && e.cfg.Opts.WalkQuery && st.denseBlock < 0 {
		ri, steps := e.part.RangeOf(st.w.Cur)
		ops += steps
		rangeID = ri
		e.res.RangeQueries++
		if ri >= 0 {
			r := e.part.Ranges[ri]
			pf := e.part.PartitionOf(r.FirstBlock)
			pl := e.part.PartitionOf(r.LastBlock)
			if pf == pl && pf != e.curPart {
				// The whole range lies outside the current partition: the
				// walk is a foreigner, detected without board involvement.
				foreignPart = pf
			}
		}
	}
	return chanGuide{ops: ops, hot: int32(hotBlock), foreign: int32(foreignPart), rangeID: int32(rangeID)}
}

// Guide classifies a roving walk at the channel level and dispatches the
// guider completion.
func (ca *channelAccel) Guide(st wstate) {
	ca.dispatchGuided(st, ca.classify(&st))
}

// dispatchGuided books the guider service for an already classified walk.
func (ca *channelAccel) dispatchGuided(st wstate, d chanGuide) {
	e := ca.e
	ref, n := e.newNode()
	n.st = st
	n.hot, n.foreign, n.rangeID = d.hot, d.foreign, d.rangeID
	ca.dispatchGuide(d.ops,
		sim.Event{Target: e, Kind: evChanGuided, A: ref, B: int32(ca.id)})
}

// guideBatch runs the batched kernel over a roving batch: classify every
// walk in one pass sorted by current vertex (hot-index and range lookups
// stream through adjacent keys), then dispatch the guider completions in
// arrival order so the timeline is bit-identical to per-walk Guide calls.
func (ca *channelAccel) guideBatch(batch []wstate) {
	e := ca.e
	n := len(batch)
	if cap(e.chanGuides) < n {
		e.chanGuides = make([]chanGuide, n)
	}
	gs := e.chanGuides[:n]
	e.chanGuides = gs
	for _, idx := range e.sortedPerm(batch, false) {
		gs[idx] = ca.classify(&batch[idx])
	}
	for i := range batch {
		ca.dispatchGuided(batch[i], gs[i])
	}
}

// applyGuide is the evChanGuided continuation.
func (ca *channelAccel) applyGuide(st wstate, hotBlock, foreignPart, rangeID int32) {
	e := ca.e
	if hotBlock >= 0 && ca.tryHotUpdate(st) {
		return
	}
	if foreignPart >= 0 {
		e.demoteWalk(int(foreignPart), st)
		return
	}
	st.rangeTag = int(rangeID)
	e.board.Guide(st)
}
