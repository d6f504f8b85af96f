package core

import (
	"sort"

	"flashwalker/internal/sim"
)

// Degraded-mode rerouting: when the fault injector marks a chip as degraded
// (sticky, after Config.Faults.DegradeAfterErrors read errors), the
// scheduler fails the chip's hottest subgraphs over to the owning
// channel-level accelerator. Walks bound for those blocks are then updated
// at the channel instead of descending to the slow chip; walks for the
// chip's remaining blocks still reach it — degraded chips serve reads
// correctly, just with the injector's latency penalty.

// chipDegraded is the injector's OnDegrade hook. It fires at most once per
// chip, in deterministic simulated-event order, so the failover (and its
// rescue traffic) replays identically for a given fault seed.
func (e *boardEngine) chipDegraded(chip int) {
	e.degraded[chip] = true
	ca := e.chans[chip/e.ssd.Cfg.ChipsPerChannel]

	// The rescue set — the chip's hottest non-dense blocks — may claim up
	// to half the channel subgraph buffer, evicting the coldest existing
	// residents to make room: serving the sick chip's traffic at the
	// channel beats keeping a marginally hotter block of a healthy chip.
	sums := e.part.InDegreeSums()
	existing := ca.HotBlocks()
	used := map[int]bool{}
	for _, id := range existing {
		used[id] = true
	}
	added := e.pickHotBlocks(sums, e.place.BlocksOnChip(chip),
		e.cfg.ChannelSubgraphBufBytes/2, used)
	if len(added) == 0 {
		return
	}

	var total int64
	for _, id := range added {
		total += e.part.Blocks[id].Bytes
	}
	// Keep the hottest existing residents that still fit beside the rescue
	// set (sorted hottest-first; ties break on block ID for determinism).
	sort.Slice(existing, func(i, j int) bool {
		if sums[existing[i]] != sums[existing[j]] {
			return sums[existing[i]] > sums[existing[j]]
		}
		return existing[i] < existing[j]
	})
	kept := existing[:0]
	budget := e.cfg.ChannelSubgraphBufBytes - total
	for _, id := range existing {
		if b := e.part.Blocks[id].Bytes; b <= budget {
			kept = append(kept, id)
			budget -= b
		}
	}
	ca.SetHotBlocks(append(kept, added...))
	ca.failover = true
	e.res.FailoverBlocks += uint64(len(added))

	// Rescue copy: read each failed-over block off the sick chip into the
	// channel buffer, paying the flash and bus traffic.
	for _, id := range added {
		pages := e.part.Pages(&e.part.Blocks[id], e.ssd.Cfg.PageBytes)
		e.ssd.ReadPagesToChannel(e.ssd.Chip(e.place.ChipOf(id)), pages, sim.Event{})
	}
}

// rerouteDegraded sends a walk bound for a degraded chip's failed-over
// block to the channel-level accelerator instead of the chip. It reports
// false (walk untouched) when the destination chip is healthy, the block
// was not failed over, or the channel's hot-update queue is full.
func (e *boardEngine) rerouteDegraded(blockID int, st wstate) bool {
	if e.degraded == nil {
		return false
	}
	chip := e.place.ChipOf(blockID)
	if !e.degraded[chip] {
		return false
	}
	ca := e.chans[chip/e.ssd.Cfg.ChipsPerChannel]
	if !ca.hot.contains(blockID) || !ca.tryHotUpdate(st) {
		return false
	}
	e.res.FaultReroutes++
	return true
}
