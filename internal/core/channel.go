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

// scheduleTick arms the periodic roving-walk fetch; the driver counts the
// ticks pending (Engine.stalled).
func (ca *channelAccel) scheduleTick() {
	if ca.e.finished {
		return
	}
	ca.e.drv.ticks++
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

// Guide classifies a roving walk at the channel level and dispatches the
// guider completion carrying the verdict: hot-subgraph membership first
// (evChanHot), then the approximate walk search, a range query that can
// detect foreigners without board involvement (evChanGuided with the range
// and any foreign partition). The two never combine.
func (ca *channelAccel) Guide(w int32) {
	e := ca.e
	st := e.walk(w)
	ops := 1
	if (e.cfg.Opts.HotSubgraphs || ca.failover) && ca.hotReady && ca.hot != nil && st.denseBlock < 0 {
		b, steps := ca.hot.find(st.w.Cur)
		ops += steps
		if b >= 0 {
			ca.dispatchGuide(ops, sim.Event{Target: e, Kind: evChanHot, A: w, B: int32(ca.id)})
			return
		}
	}
	rangeID, foreignPart := -1, -1
	if e.cfg.Opts.WalkQuery && st.denseBlock < 0 {
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
	ca.dispatchGuide(ops, sim.Event{Target: e, Kind: evChanGuided, A: w, B: int32(ca.id),
		C: packC(int32(rangeID), int32(foreignPart))})
}

// applyGuide is the evChanGuided continuation: demote a foreigner, or tag
// the walk with its range and hand it to the board.
func (ca *channelAccel) applyGuide(w, rangeID, foreignPart int32) {
	e := ca.e
	if foreignPart >= 0 {
		e.demoteWalk(int(foreignPart), w)
		return
	}
	e.walk(w).rangeTag = rangeID
	e.board.Guide(w)
}
