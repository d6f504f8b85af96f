package core

import (
	"sort"

	"flashwalker/internal/graph"
	"flashwalker/internal/partition"
	"flashwalker/internal/sim"
)

// simTime converts an int operation count to a sim.Time multiplier.
func simTime(n int) sim.Time { return sim.Time(n) }

// tierAccel is the contract shared by the three accelerator tiers (chip,
// channel, board). The engine drives every tier through it: Guide
// classifies a walk at the tier and routes it onward, EnqueueUpdate runs a
// walk through the tier's updater pool, HotBlocks/SetHotBlocks manage the
// tier's resident hot-subgraph set, and Stats snapshots utilization.
// Adding a fourth tier (or replacing a routing policy) means implementing
// this interface and wiring it in buildAccelerators — nothing else.
type tierAccel interface {
	// Guide classifies walk w (an index into the board's walk table) at
	// this tier (guider pipeline) and routes it onward: into the tier's own
	// updater, down to a lower tier's buffers, or out to the foreigner
	// path.
	Guide(w int32)
	// EnqueueUpdate runs walk w through this tier's updater pool and
	// re-guides or retires the outcome.
	EnqueueUpdate(w int32)
	// HotBlocks reports the tier's resident hot-subgraph block IDs.
	HotBlocks() []int
	// SetHotBlocks installs the tier's hot-subgraph set.
	SetHotBlocks(ids []int)
	// Stats snapshots the tier's utilization counters.
	Stats() TierStats
}

// Tier level names reported in TierStats.Level.
const (
	tierChip    = "chip"
	tierChannel = "channel"
	tierBoard   = "board"
)

// TierStats is one tier's utilization snapshot.
type TierStats struct {
	Level       string // "chip", "channel", or "board"
	UpdaterUtil float64
	GuiderUtil  float64
	UpdaterJobs uint64
	GuiderJobs  uint64
	QueueBytes  int64 // walks currently buffered for hot-subgraph updating
}

// tierCommon is the state and behaviour every accelerator tier shares: the
// updater/guider unit pools, the hot-subgraph index, and the hot-update
// walk queue. chipAccel, channelAccel and boardAccel embed it; the chip
// tier leaves the hot index empty (its residency is slot-driven, see
// chipSlot). Tiers hold no RNG: all sampling draws come from the walk's
// own stream (wstate.rng), so outcomes do not depend on which tier runs
// the update.
type tierCommon struct {
	e       *boardEngine
	updater *unitPool
	guider  *unitPool

	hot      *hotIndex
	hotReady bool
	// hotPending counts the hot blocks whose time-0 preload is still in
	// flight; the tier turns hotReady when it reaches zero.
	hotPending int

	queueBytes int64 // walks buffered for hot-subgraph updating

	level        string
	updaterCycle sim.Time
	guiderCycle  sim.Time
	queueCap     int64   // hot-update queue capacity (0: tier has none)
	hotHits      *uint64 // Result counter for hot-subgraph updates (nil: chip)
	tierID       int32   // channel index; -1 for the board (event routing)
	self         tierAccel
}

func (t *tierCommon) SetHotBlocks(ids []int) {
	t.hot = newHotIndex(t.e.part, ids)
}

func (t *tierCommon) HotBlocks() []int { return t.hot.ids() }

func (t *tierCommon) Stats() TierStats {
	return TierStats{
		Level:       t.level,
		UpdaterUtil: t.updater.utilization(),
		GuiderUtil:  t.guider.utilization(),
		UpdaterJobs: t.updater.jobs,
		GuiderJobs:  t.guider.jobs,
		QueueBytes:  t.queueBytes,
	}
}

// dispatchGuide charges ops guider operations at this tier's cycle time;
// done applies the routing outcome.
func (t *tierCommon) dispatchGuide(ops int, done sim.Event) {
	t.guider.dispatch(simTime(ops)*t.guiderCycle, done)
}

// tryHotUpdate claims hot-update queue capacity for walk w and, on
// success, runs it through the tier's updater. It reports false (walk
// untouched) when the queue is full.
func (t *tierCommon) tryHotUpdate(w int32) bool {
	size := t.e.walk(w).sizeBytes()
	if t.queueBytes+size > t.queueCap {
		return false
	}
	t.queueBytes += size
	t.self.EnqueueUpdate(w)
	return true
}

// EnqueueUpdate is the shared hot-subgraph update pipeline (§III-C/D):
// decide the hop, charge its filter probes, occupy an updater for the
// service time, then retire the walk or re-guide it at this tier. The
// chip tier overrides it (its updates are slot-owned, see chipAccel).
func (t *tierCommon) EnqueueUpdate(w int32) {
	e := t.e
	st := e.walk(w)
	// The hop clears the dense tag, which changes the record size, so the
	// claimed queue bytes are read first.
	size := st.sizeBytes()
	h := e.decideHop(st)
	e.chargeFilterProbes(h, nil)
	t.updater.dispatch(e.updateService(t.updaterCycle, h),
		sim.Event{Target: e, Kind: evTierUpdateDone, A: w, B: t.tierID, C: packC(int32(size), h.flags())})
}

// finishHotUpdate retires or re-guides a walk whose hot-subgraph update
// completed (the evTierUpdateDone continuation).
func (t *tierCommon) finishHotUpdate(w int32, size int64, terminal, deadEnd bool) {
	e := t.e
	t.queueBytes -= size
	if t.hotHits != nil {
		*t.hotHits++
	}
	if !deadEnd {
		e.res.Hops++
	}
	if terminal {
		e.board.completed()
		e.finishWalk(w, !deadEnd)
		return
	}
	t.self.Guide(w)
}

// hotIndex is a sorted hot-subgraph membership structure shared by the
// accelerator tiers. The boundary columns are kept in flat parallel arrays
// (struct-of-arrays), sorted by low vertex, so a find probe touches two
// adjacent vertex IDs per step; member is a bitset over block IDs for the
// routers' O(1) contains test.
type hotIndex struct {
	lows   []graph.VertexID
	highs  []graph.VertexID
	blocks []int32
	member []uint64
}

func newHotIndex(part *partition.Partitioned, ids []int) *hotIndex {
	sorted := append([]int(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool {
		return part.Blocks[sorted[i]].LowVertex < part.Blocks[sorted[j]].LowVertex
	})
	h := &hotIndex{member: make([]uint64, (part.NumBlocks()+63)/64)}
	for _, id := range sorted {
		b := &part.Blocks[id]
		h.lows = append(h.lows, b.LowVertex)
		h.highs = append(h.highs, b.HighVertex)
		h.blocks = append(h.blocks, int32(id))
		h.member[id>>6] |= 1 << (uint(id) & 63)
	}
	return h
}

// find binary-searches for the hot block containing v; steps is the number
// of comparisons (guider operations).
func (h *hotIndex) find(v graph.VertexID) (block, steps int) {
	lo, hi := 0, len(h.lows)-1
	for lo <= hi {
		steps++
		mid := (lo + hi) / 2
		switch {
		case v < h.lows[mid]:
			hi = mid - 1
		case v > h.highs[mid]:
			lo = mid + 1
		default:
			return int(h.blocks[mid]), steps
		}
	}
	if steps == 0 {
		steps = 1
	}
	return -1, steps
}

func (h *hotIndex) contains(block int) bool {
	if h == nil || block < 0 || block>>6 >= len(h.member) {
		return false
	}
	return h.member[block>>6]&(1<<(uint(block)&63)) != 0
}

func (h *hotIndex) ids() []int {
	if h == nil {
		return nil
	}
	out := make([]int, len(h.blocks))
	for i, b := range h.blocks {
		out[i] = int(b)
	}
	return out
}
