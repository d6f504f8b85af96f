package core

import (
	"cmp"
	"slices"

	"flashwalker/internal/partition"
	"flashwalker/internal/sim"
)

// buildAccelerators wires the paper's three-tier accelerator hierarchy:
// one chip-level accelerator per flash chip (e.chips), one channel-level
// accelerator per channel (e.chans), and the board-level accelerator
// (e.board), with the run's hot subgraphs (none when hot is nil).
func (e *boardEngine) buildAccelerators(hot *hotSelection) {
	numChips := e.ssd.NumChips()
	for i := 0; i < numChips; i++ {
		c := &chipAccel{
			tierCommon: tierCommon{
				e:            e,
				updater:      newUnitPool(e.eng, e.cfg.ChipUpdaters),
				guider:       newUnitPool(e.eng, e.cfg.ChipGuiders),
				updaterCycle: e.cfg.ChipUpdaterCycle,
				guiderCycle:  e.cfg.ChipGuiderCycle,
			},
			id:   i,
			chip: e.ssd.Chip(i),
		}
		for s := 0; s < e.slotsPerChip; s++ {
			c.slots = append(c.slots, &chipSlot{idx: s, block: -1})
		}
		e.chips = append(e.chips, c)
	}
	for ch := 0; ch < e.ssd.Cfg.Channels; ch++ {
		ca := &channelAccel{
			tierCommon: tierCommon{
				e:            e,
				updater:      newUnitPool(e.eng, e.cfg.ChannelUpdaters),
				guider:       newUnitPool(e.eng, e.cfg.ChannelGuiders),
				updaterCycle: e.cfg.ChannelUpdaterCycle,
				guiderCycle:  e.cfg.ChannelGuiderCycle,
				queueCap:     e.cfg.ChannelWalkQueueBytes,
				hotHits:      &e.res.HotHitsChannel,
				tierID:       int32(ch),
			},
			id:      ch,
			channel: e.ssd.Channel(ch),
		}
		e.chans = append(e.chans, ca)
	}
	b := &boardAccel{
		tierCommon: tierCommon{
			e:            e,
			updater:      newUnitPool(e.eng, e.cfg.BoardUpdaters),
			guider:       newUnitPool(e.eng, e.cfg.BoardGuiders),
			updaterCycle: e.cfg.BoardUpdaterCycle,
			guiderCycle:  e.cfg.BoardGuiderCycle,
			queueCap:     e.cfg.BoardWalkQueueBytes,
			hotHits:      &e.res.HotHitsBoard,
			tierID:       -1,
		},
	}
	for i := 0; i < e.cfg.TablePorts; i++ {
		b.ports = append(b.ports, sim.NewQueue(e.eng))
	}
	if e.cfg.Opts.WalkQuery {
		for i := 0; i < e.cfg.NumQueryCaches; i++ {
			b.caches = append(b.caches, newQueryCache(e.cfg.QueryCacheBytes, e.cfg.MappingEntryBytes,
				e.part.VertexBlocks(), min(e.part.Cfg.SubgraphsPerPartition, e.part.NumBlocks())))
		}
	}
	e.board = b
	if hot != nil {
		b.SetHotBlocks(hot.board)
		for ch, ca := range e.chans {
			ca.SetHotBlocks(hot.chans[ch])
		}
	}
}

// hotSelection is a run's hot-subgraph choice: the board tier's blocks and
// each channel's. Every board holds its tiers' hot sets apart, since a
// degraded chip's failover changes its channel's, but starts from this one.
type hotSelection struct {
	board []int
	chans [][]int
}

// selectHotSubgraphs picks the top in-degree non-dense blocks for the board
// tier and for each of the channels (paper §III-C: channels keep the
// top-K among blocks on their own chips), ranked by the in-degrees over
// the graph at construction.
func (e *Engine) selectHotSubgraphs(channels int) *hotSelection {
	sums := e.inDegreeSums()
	all := make([]int, e.part.NumBlocks())
	for i := range all {
		all[i] = i
	}
	blocks := e.part.Blocks
	used := make([]bool, len(blocks))
	hot := &hotSelection{board: pickHotBlocks(blocks, sums, all, e.cfg.BoardSubgraphBufBytes, used)}
	for ch := 0; ch < channels; ch++ {
		clear(used)
		hot.chans = append(hot.chans, pickHotBlocks(blocks, sums, e.place.BlocksOnChannel(ch),
			e.cfg.ChannelSubgraphBufBytes, used))
	}
	return hot
}

// pickHotBlocks greedily selects the top in-degree non-dense candidates that
// fit in budget bytes, skipping (and marking) blocks already in used, which
// has an entry per block. Shared by the initial hot-subgraph selection and
// the degraded-chip failover (degrade.go).
//
// One stable sort ranks the candidates hottest first, ties in candidate
// order; the scan then takes each unused, non-dense block that fits what
// is left of the budget. That is the repeated pick of the hottest block
// that fits: the budget only shrinks, so a block too big to take never
// fits later.
func pickHotBlocks(blocks []partition.Block, sums []uint64, candidates []int, budget int64, used []bool) []int {
	order := slices.Clone(candidates)
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(sums[b], sums[a]) })
	chosen := []int{}
	for _, id := range order {
		if b := &blocks[id]; !used[id] && !b.Dense && b.Bytes <= budget {
			used[id] = true
			budget -= b.Bytes
			chosen = append(chosen, id)
		}
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
