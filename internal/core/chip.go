package core

import (
	"math/bits"

	"flashwalker/internal/sim"
	"flashwalker/internal/trace"
	"flashwalker/internal/walk"

	fl "flashwalker/internal/flash"
)

// chipSlot is one subgraph buffer entry of a chip-level accelerator plus
// its associated walk queue (§III-B).
type chipSlot struct {
	idx     int  // position in the chip's slot array (event payload)
	block   int  // resident block ID, -1 when the buffer entry is empty
	loading bool // a load command is in flight
	idle    bool // no walks owned and nothing scheduled; block stays resident
	defers  int  // consecutive load postponements to let walks accumulate
	pending int  // walks owned by the slot (queued + in update)

	// In-flight load state: gating parts left and the claimed walks.
	loadLeft  int
	loadWalks []int32
}

// maxLoadDefers bounds consecutive deferrals so progress is guaranteed.
// One deferral captures most of the batching benefit; longer waits stall
// the chip pipeline more than they save in page reads.
const maxLoadDefers = 1

// chipAccel is a chip-level accelerator: it loads subgraphs from its own
// chip's flash planes, updates the walks landing in them, classifies
// updated walks (stay local vs. roving), and buffers roving walks until
// the channel-level accelerator fetches them. Unlike the channel and board
// tiers its residency is slot-driven, not hot-index-driven: the embedded
// tierCommon's hot index stays empty and HotBlocks reports nil.
type chipAccel struct {
	tierCommon
	id    int
	chip  *fl.Chip
	slots []*chipSlot

	roving      []int32
	rovingBytes int64

	completedBytes int64

	// myBlocks caches this chip's block IDs in the current partition;
	// workBits marks the myBlocks positions whose stores (pwb + fls)
	// currently hold walks. The bitmap is the scheduler's top-N work index:
	// insertions and claims maintain it in O(1), so scheduleSlot scans only
	// blocks that actually have work instead of every candidate.
	myBlocks []int
	workBits []uint64
}

// refreshBlocks recomputes the candidate blocks for the current partition
// and resets slot residency (the previous partition's subgraphs are stale).
func (c *chipAccel) refreshBlocks() {
	c.deriveBlocks()
	for _, s := range c.slots {
		s.block = -1
		s.loading = false
		s.idle = true
	}
}

// deriveBlocks rebuilds the chip's block list for the current partition
// and the indexes over it (blockPos and the work bitmap) from the
// placement, the current partition and the block stores. Resume calls it
// directly: the list is a function of those, so snapshots do not carry it.
func (c *chipAccel) deriveBlocks() {
	e := c.e
	for _, b := range c.myBlocks {
		e.blockPos[b] = -1
	}
	c.myBlocks = c.myBlocks[:0]
	for _, b := range e.place.BlocksOnChip(c.id) {
		if e.inCurrentPartition(b) {
			e.blockPos[b] = int32(len(c.myBlocks))
			c.myBlocks = append(c.myBlocks, b)
		}
	}
	words := (len(c.myBlocks) + 63) / 64
	if cap(c.workBits) < words {
		c.workBits = make([]uint64, words)
	}
	c.workBits = c.workBits[:words]
	for i := range c.workBits {
		c.workBits[i] = 0
	}
	for pos, b := range c.myBlocks {
		if len(e.pwb[b])+len(e.fls[b]) > 0 {
			c.workBits[pos>>6] |= 1 << (uint(pos) & 63)
		}
	}
}

// noteWork re-derives block b's work-index bit from its store lengths
// (b must be one of this chip's current-partition blocks).
func (c *chipAccel) noteWork(b int) {
	pos := c.e.blockPos[b]
	if pos < 0 {
		return
	}
	bit := uint64(1) << (uint(pos) & 63)
	if len(c.e.pwb[b])+len(c.e.fls[b]) > 0 {
		c.workBits[pos>>6] |= bit
	} else {
		c.workBits[pos>>6] &^= bit
	}
}

// trySchedule fills every idle slot that can get work. Slots whose
// resident block has walks are preferred (no page re-read), then the rest
// pick by score.
func (c *chipAccel) trySchedule() {
	for _, s := range c.slots {
		if s.idle && !s.loading && s.block >= 0 &&
			len(c.e.pwb[s.block])+len(c.e.fls[s.block]) > 0 {
			c.loadBlock(s, s.block)
		}
	}
	for _, s := range c.slots {
		if s.idle && !s.loading {
			c.scheduleSlot(s)
		}
	}
}

// blockLoaded reports whether blockID is resident (or loading) in any slot.
func (c *chipAccel) blockLoaded(blockID int) *chipSlot {
	for _, s := range c.slots {
		if s.block == blockID {
			return s
		}
	}
	return nil
}

// scheduleSlot asks the board scheduler for this slot's next subgraph and
// starts loading it. The board picks the highest-score candidate among the
// chip's blocks in the current partition (per-chip top-N list, §III-D).
func (c *chipAccel) scheduleSlot(s *chipSlot) {
	if c.e.finished {
		return
	}
	// Walk the work index: set bits correspond exactly to the non-empty
	// blocks the previous full scan would have visited, in myBlocks order.
	best, bestScore := -1, 0.0
	scanned := 0
scan:
	for wi, word := range c.workBits {
		for word != 0 {
			pos := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			b := c.myBlocks[pos]
			if other := c.blockLoaded(b); other != nil && other != s {
				continue
			}
			scanned++
			sc := c.e.score[b]
			if sc <= 0 {
				// Cached score may be stale (batched updates); fall back to
				// the live walk count so a block never starves.
				sc = float64(len(c.e.pwb[b]) + len(c.e.fls[b]))
			}
			if best == -1 || sc > bestScore {
				best, bestScore = b, sc
			}
			if scanned >= c.e.cfg.TopN && best != -1 {
				// The hardware only maintains a top-N list per chip; bounding
				// the scan models that.
				break scan
			}
		}
	}
	if best == -1 {
		// No work: the slot keeps its subgraph resident (SRAM is not
		// wiped), so a later walk for the same block skips the page reads.
		s.idle = true
		s.defers = 0
		return
	}
	resident := best == s.block
	if c.e.cfg.MinWalksToLoad > 1 && !resident && s.defers < maxLoadDefers &&
		len(c.e.pwb[best])+len(c.e.fls[best]) < c.e.cfg.MinWalksToLoad {
		// Batch the load: give trickling walks time to accumulate before
		// paying the page reads. The slot is not idle while deferred
		// (only the timer re-triggers it); the deferral count bounds the
		// wait so progress is guaranteed.
		s.defers++
		s.idle = false
		c.e.eng.ScheduleAfter(c.e.cfg.LoadIdleDelay,
			sim.Event{Target: c.e, Kind: evSlotRetry, B: int32(c.id), C: int64(s.idx)})
		return
	}
	s.defers = 0
	c.loadBlock(s, best)
}

// loadBlock issues the load command and fetches the subgraph plus its
// walks (§III-B step 1).
func (c *chipAccel) loadBlock(s *chipSlot, blockID int) {
	e := c.e
	resident := s.block == blockID
	s.block = blockID
	s.loading = true
	s.idle = false
	e.res.SubgraphLoads++
	if resident {
		e.res.SubgraphReloads++
	}

	// Claim walks now so concurrent scheduling doesn't double-take. The
	// claims copy into a pooled buffer and compact the source stores in
	// place (front-reslicing would leak capacity and — with a shared
	// backing array — let the flash/PWB claims alias each other).
	take := e.slotCapWalks
	pw := e.pwb[blockID]
	nPWB := len(pw)
	if nPWB > take {
		nPWB = take
	}
	pwbBytes := e.storeBytes(pw[:nPWB])
	e.pwbBytes[blockID] -= pwbBytes
	take -= nPWB

	fs := e.fls[blockID]
	nFlash := len(fs)
	if nFlash > take {
		nFlash = take
	}
	flashPages := 0
	if nFlash > 0 {
		if nFlash == len(fs) {
			flashPages = e.flsPages[blockID]
			e.flsPages[blockID] = 0
		} else {
			flashPages = (nFlash + e.walksPerPage - 1) / e.walksPerPage
			e.flsPages[blockID] -= flashPages
			if e.flsPages[blockID] < 0 {
				e.flsPages[blockID] = 0
			}
		}
	}

	walks := e.getWalkBuf()
	walks = append(walks, fs[:nFlash]...)
	walks = append(walks, pw[:nPWB]...)
	e.pwb[blockID] = compactFront(pw, nPWB)
	e.fls[blockID] = compactFront(fs, nFlash)
	c.noteWork(blockID)
	e.refreshScore(blockID)
	e.emit(trace.SubgraphLoad, int64(blockID), int64(len(walks)))

	// Three concurrent activities gate activation: the subgraph page
	// reads, the walk delivery from the partition walk buffer (DRAM read +
	// channel-bus transfer), and the local read of flushed walks.
	parts := 1 // command
	if !resident {
		parts++
	}
	if nPWB > 0 {
		parts++
	}
	if flashPages > 0 {
		parts++
	}
	s.loadLeft = parts
	s.loadWalks = walks
	partDone := sim.Event{Target: e, Kind: evLoadPart, B: int32(c.id), C: int64(s.idx)}

	// Load command crosses the channel bus (extended ONFI command, §III-C).
	e.ssd.TransferChannelE(c.chip.Channel, e.cfg.CommandBytes, partDone)
	if !resident {
		pages := e.part.Pages(&e.part.Blocks[blockID], e.ssd.Cfg.PageBytes)
		e.ssd.ReadPagesLocalE(c.chip, pages, partDone)
	}
	if nPWB > 0 {
		e.dr.Read(pwbBytes, nil)
		e.ssd.TransferChannelE(c.chip.Channel, pwbBytes, partDone)
	}
	if flashPages > 0 {
		e.ssd.ReadPagesLocalE(c.chip, flashPages, partDone)
	}
}

// compactFront removes the first n elements of s in place, keeping the
// backing capacity for reuse.
func compactFront(s []int32, n int) []int32 {
	if n == 0 {
		return s
	}
	m := copy(s, s[n:])
	return s[:m]
}

// loadPartDone retires one gating part of a slot load; the last part
// activates the subgraph and enqueues the claimed walks.
func (c *chipAccel) loadPartDone(s *chipSlot) {
	s.loadLeft--
	if s.loadLeft > 0 {
		return
	}
	s.loading = false
	walks := s.loadWalks
	s.loadWalks = nil
	if len(walks) == 0 {
		// Raced: walks were claimed but another path drained them (not
		// expected, but keep the slot live).
		c.slotDrained(s)
		c.e.putWalkBuf(walks)
		return
	}
	for _, w := range walks {
		c.enqueue(s, w)
	}
	c.e.putWalkBuf(walks)
}

// EnqueueUpdate runs a walk through this chip's updater: into the slot
// holding its subgraph, or — when no slot has it resident — the roving
// buffer so a higher tier takes over. Overrides the tierCommon pipeline
// because chip updates are slot-owned.
func (c *chipAccel) EnqueueUpdate(w int32) {
	if s := c.matchSlot(c.e.walk(w)); s != nil {
		c.enqueue(s, w)
		return
	}
	c.addRoving(w)
}

// enqueue decides a walk's hop and hands it to the slot's queue; the
// updater serves it FIFO.
func (c *chipAccel) enqueue(s *chipSlot, w int32) {
	h := c.e.decideHop(c.e.walk(w))
	s.pending++
	s.idle = false
	c.e.chargeFilterProbes(h, c)
	c.updater.dispatch(c.e.updateService(c.updaterCycle, h),
		sim.Event{Target: c.e, Kind: evChipUpdateDone, A: w, B: int32(c.id), C: packC(int32(s.idx), h.flags())})
}

// finishUpdate applies a hop's outcome (§III-B steps 2-7).
func (c *chipAccel) finishUpdate(s *chipSlot, w int32, terminal, deadEnd bool) {
	e := c.e
	s.pending--
	e.res.ChipUpdates++
	if !deadEnd {
		e.res.Hops++
	}
	if terminal {
		c.completedBytes += walk.StateBytes
		if c.completedBytes >= e.cfg.ChipCompletedBufBytes {
			pages := int((c.completedBytes + e.ssd.Cfg.PageBytes - 1) / e.ssd.Cfg.PageBytes)
			e.ssd.ProgramPagesLocal(c.chip, pages, sim.Event{})
			c.completedBytes = 0
			e.res.CompletedFlushes++
		}
		e.finishWalk(w, !deadEnd)
		c.checkDrained(s)
		return
	}
	c.Guide(w)
	c.checkDrained(s)
}

// checkDrained notifies the scheduler when a slot's walk queue empties
// (§III-D: "When a walk queue for a loaded subgraph becomes empty ... the
// subgraph scheduler ... is informed").
func (c *chipAccel) checkDrained(s *chipSlot) {
	if s.pending == 0 && !s.loading {
		c.slotDrained(s)
	}
}

func (c *chipAccel) slotDrained(s *chipSlot) {
	c.scheduleSlot(s)
}

// Guide classifies an updated walk: back into a loaded subgraph's queue, or
// into the roving buffer for the channel-level accelerator (§III-B).
func (c *chipAccel) Guide(w int32) {
	// One compare per loaded subgraph plus the move.
	c.dispatchGuide(1+len(c.slots),
		sim.Event{Target: c.e, Kind: evChipRoute, A: w, B: int32(c.id)})
}

func (c *chipAccel) route(w int32) {
	if target := c.matchSlot(c.e.walk(w)); target != nil {
		c.enqueue(target, w)
		return
	}
	c.addRoving(w)
}

// addRoving buffers a walk for the channel-level accelerator's next fetch,
// stalling the guider when the roving buffer is full.
func (c *chipAccel) addRoving(w int32) {
	e := c.e
	size := e.walk(w).sizeBytes()
	if c.rovingBytes+size > e.cfg.ChipRovingBufBytes {
		// Roving buffer full: the guider stalls until the channel-level
		// accelerator's next fetch drains it.
		e.res.GuiderStalls++
		c.guider.dispatch(e.cfg.RovingFetchInterval,
			sim.Event{Target: e, Kind: evChipRoute, A: w, B: int32(c.id)})
		return
	}
	c.rovingBytes += size
	if c.roving == nil {
		c.roving = e.getWalkBuf()
	}
	c.roving = append(c.roving, w)
}

// matchSlot finds a loaded slot whose subgraph contains the walk.
func (c *chipAccel) matchSlot(st *wstate) *chipSlot {
	for _, s := range c.slots {
		if s.block < 0 || s.loading {
			continue
		}
		b := &c.e.part.Blocks[s.block]
		if b.Dense {
			if st.denseBlock == s.block {
				return s
			}
			continue
		}
		if st.denseBlock < 0 && st.w.Cur >= b.LowVertex && st.w.Cur <= b.HighVertex {
			return s
		}
	}
	return nil
}

// takeRoving hands the roving buffer's contents to the channel fetcher.
func (c *chipAccel) takeRoving() ([]int32, int64) {
	w, b := c.roving, c.rovingBytes
	c.roving = nil
	c.rovingBytes = 0
	return w, b
}
