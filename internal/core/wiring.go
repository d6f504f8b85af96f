package core

import "flashwalker/internal/sim"

// buildAccelerators wires the accelerator hierarchy: one chip-level
// accelerator per flash chip, one channel-level accelerator per channel,
// and the board-level accelerator, all registered in e.tiers behind the
// shared tierAccel interface. A fourth tier would be constructed and
// appended here. inDeg ranks the hot-subgraph candidates.
func (e *boardEngine) buildAccelerators(inDeg []uint64) {
	numChips := e.ssd.NumChips()
	for i := 0; i < numChips; i++ {
		c := &chipAccel{
			tierCommon: tierCommon{
				e:            e,
				updater:      newUnitPool(e.eng, e.cfg.ChipUpdaters),
				guider:       newUnitPool(e.eng, e.cfg.ChipGuiders),
				level:        tierChip,
				updaterCycle: e.cfg.ChipUpdaterCycle,
				guiderCycle:  e.cfg.ChipGuiderCycle,
			},
			id:   i,
			chip: e.ssd.Chip(i),
		}
		c.self = c
		for s := 0; s < e.slotsPerChip; s++ {
			c.slots = append(c.slots, &chipSlot{idx: s, block: -1})
		}
		e.chips = append(e.chips, c)
		e.tiers = append(e.tiers, c)
	}
	for ch := 0; ch < e.ssd.Cfg.Channels; ch++ {
		ca := &channelAccel{
			tierCommon: tierCommon{
				e:            e,
				updater:      newUnitPool(e.eng, e.cfg.ChannelUpdaters),
				guider:       newUnitPool(e.eng, e.cfg.ChannelGuiders),
				level:        tierChannel,
				updaterCycle: e.cfg.ChannelUpdaterCycle,
				guiderCycle:  e.cfg.ChannelGuiderCycle,
				queueCap:     e.cfg.ChannelWalkQueueBytes,
				hotHits:      &e.res.HotHitsChannel,
				tierID:       int32(ch),
			},
			id:      ch,
			channel: e.ssd.Channel(ch),
		}
		ca.self = ca
		e.chans = append(e.chans, ca)
		e.tiers = append(e.tiers, ca)
	}
	b := &boardAccel{
		tierCommon: tierCommon{
			e:            e,
			updater:      newUnitPool(e.eng, e.cfg.BoardUpdaters),
			guider:       newUnitPool(e.eng, e.cfg.BoardGuiders),
			level:        tierBoard,
			updaterCycle: e.cfg.BoardUpdaterCycle,
			guiderCycle:  e.cfg.BoardGuiderCycle,
			queueCap:     e.cfg.BoardWalkQueueBytes,
			hotHits:      &e.res.HotHitsBoard,
			tierID:       -1,
		},
	}
	b.self = b
	for i := 0; i < e.cfg.TablePorts; i++ {
		b.ports = append(b.ports, sim.NewQueue(e.eng))
	}
	if e.cfg.Opts.WalkQuery {
		for i := 0; i < e.cfg.NumQueryCaches; i++ {
			b.caches = append(b.caches, newQueryCache(e.cfg.QueryCacheBytes, e.cfg.MappingEntryBytes))
		}
	}
	e.board = b
	e.tiers = append(e.tiers, b)
	e.selectHotSubgraphs(inDeg)
}

// selectHotSubgraphs picks the top in-degree non-dense blocks for the board
// and for each channel (paper §III-C: channels keep the top-K among blocks
// on their own chips). sums is Partitioned.InDegreeSums over the graph at
// construction, computed once for all boards.
func (e *boardEngine) selectHotSubgraphs(sums []uint64) {
	if !e.cfg.Opts.HotSubgraphs {
		return
	}
	all := make([]int, e.part.NumBlocks())
	for i := range all {
		all[i] = i
	}
	e.board.SetHotBlocks(e.pickHotBlocks(sums, all, e.cfg.BoardSubgraphBufBytes, map[int]bool{}))
	for ch, ca := range e.chans {
		ca.SetHotBlocks(e.pickHotBlocks(sums, e.place.BlocksOnChannel(ch),
			e.cfg.ChannelSubgraphBufBytes, map[int]bool{}))
	}
}

// pickHotBlocks greedily selects the top in-degree non-dense candidates that
// fit in budget bytes, skipping (and marking) blocks already in used. Shared
// by the initial hot-subgraph selection and the degraded-chip failover
// (degrade.go). Selection sort: candidate lists are small (blocks per
// channel).
func (e *boardEngine) pickHotBlocks(sums []uint64, candidates []int, budget int64, used map[int]bool) []int {
	chosen := []int{}
	for {
		best, bestSum := -1, uint64(0)
		for _, id := range candidates {
			b := &e.part.Blocks[id]
			if used[id] || b.Dense || b.Bytes > budget {
				continue
			}
			if best == -1 || sums[id] > bestSum {
				best, bestSum = id, sums[id]
			}
		}
		if best == -1 {
			break
		}
		used[best] = true
		budget -= e.part.Blocks[best].Bytes
		chosen = append(chosen, best)
	}
	return chosen
}

// preloadHotSubgraphs reads hot blocks into the channel and board buffers
// at time zero, paying the flash and bus traffic. Each block's read
// completes as an evHotLoaded event for its tier, which turns hot routing on
// once the tier's last block has arrived.
func (e *boardEngine) preloadHotSubgraphs() {
	if !e.cfg.Opts.HotSubgraphs {
		e.board.hotReady = true
		for _, ca := range e.chans {
			ca.hotReady = true
		}
		return
	}
	e.preloadTier(&e.board.tierCommon)
	for _, ca := range e.chans {
		e.preloadTier(&ca.tierCommon)
	}
}

// preloadTier issues one tier's hot-block reads.
func (e *boardEngine) preloadTier(t *tierCommon) {
	ids := t.HotBlocks()
	t.hotPending = len(ids)
	t.hotReady = len(ids) == 0
	for _, id := range ids {
		pages := e.part.Pages(&e.part.Blocks[id], e.ssd.Cfg.PageBytes)
		e.ssd.ReadPagesToChannel(e.ssd.Chip(e.place.ChipOf(id)), pages,
			sim.Event{Target: e, Kind: evHotLoaded, B: t.tierID})
	}
}
