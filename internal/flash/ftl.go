package flash

import (
	"fmt"

	"flashwalker/internal/sim"
)

// FTL implements the flash translation layer of §II-C: page-level
// logical-to-physical mapping with out-of-place updates, log-structured
// allocation across planes, greedy garbage collection, and wear counters.
//
// The in-storage accelerators bypass the FTL — graph blocks are placed
// physically by internal/partition.Placement and read in place (that is
// the point of near-data processing) — but host-side writes (GraphWalker
// spills, result files) go through an FTL in a real device, and the GC
// machinery is exercised by tests and available to experiments.
type FTL struct {
	ssd *SSD

	planes         int // total plane count
	blocksPerPlane int
	pagesPerBlock  int

	l2p []int64 // logical page -> physical page, -1 unmapped
	p2l []int64 // physical page -> logical page, -1 free/invalid

	blocks []blockMeta // global block index: plane*blocksPerPlane + b
	free   [][]int     // per plane: free block indices (within plane)
	open   []openBlock // per plane: current log head

	cursor int // round-robin plane cursor for new writes

	gcThreshold int  // run GC on a plane when its free list shrinks to this
	inGC        bool // guards against re-entrant GC during migration

	Stats FTLStats
}

type blockMeta struct {
	written int // pages programmed since last erase
	valid   int // pages still mapped
	erases  int
}

type openBlock struct {
	block    int // block index within the plane, -1 none
	nextPage int
}

// FTLStats accumulates host vs. GC traffic.
type FTLStats struct {
	HostWrites  uint64 // pages written on behalf of the host
	GCWrites    uint64 // pages migrated by garbage collection
	HostReads   uint64
	Erases      uint64
	GCRuns      uint64
	FailedAlloc uint64 // writes refused because the device is full
}

// WriteAmplification reports (host + GC writes) / host writes.
func (s FTLStats) WriteAmplification() float64 {
	if s.HostWrites == 0 {
		return 1
	}
	return float64(s.HostWrites+s.GCWrites) / float64(s.HostWrites)
}

// NewFTL builds an FTL over the SSD exposing logicalPages of address
// space. The physical space must exceed the logical space (the difference
// is the overprovisioning GC needs).
func NewFTL(ssd *SSD, logicalPages int64) (*FTL, error) {
	cfg := ssd.Cfg
	planes := cfg.NumChips() * cfg.PlanesPerChip()
	physPages := int64(planes) * int64(cfg.BlocksPerPlane) * int64(cfg.PagesPerBlock)
	if logicalPages <= 0 {
		return nil, fmt.Errorf("flash: non-positive logical space")
	}
	// GC migrates within a plane and needs its reserve (gcThreshold free
	// blocks plus the log head) to always be able to make net progress:
	// cap the logical space at physical minus that reserve.
	const gcReserveBlocks = 3 // gcThreshold (2) + open block
	maxLogical := physPages - int64(planes*gcReserveBlocks*cfg.PagesPerBlock)
	if logicalPages > maxLogical {
		return nil, fmt.Errorf("flash: logical space %d exceeds %d (physical %d minus GC reserve)",
			logicalPages, maxLogical, physPages)
	}
	f := &FTL{
		ssd:            ssd,
		planes:         planes,
		blocksPerPlane: cfg.BlocksPerPlane,
		pagesPerBlock:  cfg.PagesPerBlock,
		l2p:            make([]int64, logicalPages),
		p2l:            make([]int64, physPages),
		blocks:         make([]blockMeta, planes*cfg.BlocksPerPlane),
		free:           make([][]int, planes),
		open:           make([]openBlock, planes),
		gcThreshold:    2,
	}
	for i := range f.l2p {
		f.l2p[i] = -1
	}
	for i := range f.p2l {
		f.p2l[i] = -1
	}
	for p := 0; p < planes; p++ {
		f.free[p] = make([]int, cfg.BlocksPerPlane)
		for b := range f.free[p] {
			f.free[p][b] = b
		}
		f.open[p] = openBlock{block: -1}
	}
	return f, nil
}

// LogicalPages reports the logical address space size.
func (f *FTL) LogicalPages() int64 { return int64(len(f.l2p)) }

// planeChip converts a global plane index to (chip, plane-within-chip).
func (f *FTL) planeChip(plane int) (chip, pl int) {
	per := f.ssd.Cfg.PlanesPerChip()
	return plane / per, plane % per
}

// ppn composes a physical page number.
func (f *FTL) ppn(plane, block, page int) int64 {
	return (int64(plane)*int64(f.blocksPerPlane)+int64(block))*int64(f.pagesPerBlock) + int64(page)
}

// decompose splits a physical page number.
func (f *FTL) decompose(ppn int64) (plane, block, page int) {
	page = int(ppn % int64(f.pagesPerBlock))
	blockGlobal := ppn / int64(f.pagesPerBlock)
	block = int(blockGlobal % int64(f.blocksPerPlane))
	plane = int(blockGlobal / int64(f.blocksPerPlane))
	return
}

// globalBlock indexes blocks across planes.
func (f *FTL) globalBlock(plane, block int) int { return plane*f.blocksPerPlane + block }

// Mapped reports whether a logical page currently has data.
func (f *FTL) Mapped(lpn int64) bool { return f.l2p[lpn] >= 0 }

// invalidate unmaps the current physical page of lpn, if any.
func (f *FTL) invalidate(lpn int64) {
	old := f.l2p[lpn]
	if old < 0 {
		return
	}
	plane, block, _ := f.decompose(old)
	f.blocks[f.globalBlock(plane, block)].valid--
	f.p2l[old] = -1
	f.l2p[lpn] = -1
}

// allocate returns the next physical page on the plane, opening a fresh
// block (and garbage-collecting) as needed. Returns -1 when the plane is
// truly full.
func (f *FTL) allocate(plane int) int64 {
	ob := &f.open[plane]
	if ob.block < 0 || ob.nextPage == f.pagesPerBlock {
		if !f.inGC {
			// Reclaim until the reserve is healthy or no garbage remains.
			for len(f.free[plane]) <= f.gcThreshold && f.gcPlane(plane) {
			}
		}
		if len(f.free[plane]) == 0 {
			return -1
		}
		// Wear-leveling: take the least-erased free block.
		best := 0
		for i, b := range f.free[plane] {
			if f.blocks[f.globalBlock(plane, b)].erases <
				f.blocks[f.globalBlock(plane, f.free[plane][best])].erases {
				best = i
			}
		}
		blk := f.free[plane][best]
		f.free[plane] = append(f.free[plane][:best], f.free[plane][best+1:]...)
		*ob = openBlock{block: blk, nextPage: 0}
	}
	ppn := f.ppn(plane, ob.block, ob.nextPage)
	ob.nextPage++
	f.blocks[f.globalBlock(plane, ob.block)].written++
	return ppn
}

// place maps lpn to a fresh physical page (invalidating any old mapping)
// and returns its location, or ok=false when the device is full.
func (f *FTL) place(lpn int64) (chip, planeInChip int, ok bool) {
	f.invalidate(lpn)
	start := f.cursor
	for {
		plane := f.cursor
		f.cursor = (f.cursor + 1) % f.planes
		ppn := f.allocate(plane)
		if ppn >= 0 {
			f.l2p[lpn] = ppn
			f.p2l[ppn] = lpn
			pl, blk, _ := f.decompose(ppn)
			f.blocks[f.globalBlock(pl, blk)].valid++
			c, pic := f.planeChip(plane)
			return c, pic, true
		}
		if f.cursor == start {
			return 0, 0, false
		}
	}
}

// Write writes one logical page out-of-place; done (the zero event for
// none) fires when the program completes. Returns an error, and schedules
// nothing, when the page is out of range or no physical space remains.
func (f *FTL) Write(lpn int64, done sim.Event) error {
	if lpn < 0 || lpn >= int64(len(f.l2p)) {
		return fmt.Errorf("flash: lpn %d out of range", lpn)
	}
	chip, plane, ok := f.place(lpn)
	if !ok {
		f.Stats.FailedAlloc++
		return fmt.Errorf("flash: device full writing lpn %d", lpn)
	}
	f.Stats.HostWrites++
	f.ssd.ProgramPageAt(chip, plane, done)
	return nil
}

// Read reads one logical page; done (the zero event for none) fires when
// the page is sensed. Reading an unmapped page is an error.
func (f *FTL) Read(lpn int64, done sim.Event) error {
	if lpn < 0 || lpn >= int64(len(f.l2p)) {
		return fmt.Errorf("flash: lpn %d out of range", lpn)
	}
	ppn := f.l2p[lpn]
	if ppn < 0 {
		return fmt.Errorf("flash: lpn %d unmapped", lpn)
	}
	plane, _, _ := f.decompose(ppn)
	chip, pic := f.planeChip(plane)
	f.Stats.HostReads++
	f.ssd.ReadPageAt(chip, pic, done)
	return nil
}

// Trim unmaps a logical page (discard).
func (f *FTL) Trim(lpn int64) error {
	if lpn < 0 || lpn >= int64(len(f.l2p)) {
		return fmt.Errorf("flash: lpn %d out of range", lpn)
	}
	f.invalidate(lpn)
	return nil
}

// wearLevelEvery makes every N-th GC run pick its victim by erase count
// instead of valid count (static wear-leveling): cold blocks whose data
// never invalidates are eventually recycled too, bounding the wear spread.
const wearLevelEvery = 8

// gcPlane reclaims one block on the plane, migrating its live pages into
// the same plane's log head. It reports whether it made progress.
//
// Victim policy guarantees net progress: the normal (greedy) victim is the
// fully-written block with the fewest valid pages, and must contain at
// least one invalid page. When the free list still has slack (>= 2), every
// wearLevelEvery-th run instead recycles the least-erased block (static
// wear-leveling) even if fully valid. When the free list is empty, only a
// victim whose valid pages fit in the open block's remaining slack is
// acceptable (migration must not need a fresh block).
func (f *FTL) gcPlane(plane int) bool {
	freeN := len(f.free[plane])
	wearPass := freeN >= 2 && f.Stats.GCRuns%wearLevelEvery == wearLevelEvery-1
	openSlack := 0
	if ob := f.open[plane]; ob.block >= 0 {
		openSlack = f.pagesPerBlock - ob.nextPage
	}
	victim := -1
	victimValid := f.pagesPerBlock + 1
	victimErases := int(^uint(0) >> 1)
	for b := 0; b < f.blocksPerPlane; b++ {
		m := f.blocks[f.globalBlock(plane, b)]
		if m.written == 0 {
			continue // free
		}
		if b == f.open[plane].block {
			continue
		}
		if wearPass {
			if m.erases < victimErases {
				victim, victimErases = b, m.erases
			}
			continue
		}
		if m.valid == f.pagesPerBlock {
			continue // no garbage: erasing it buys nothing
		}
		if freeN == 0 && m.valid > openSlack && !f.anyFreeElsewhere(plane) {
			continue // migration has nowhere to put the valid pages
		}
		if m.valid < victimValid {
			victim, victimValid = b, m.valid
		}
	}
	if victim < 0 && wearPass {
		// Fall back to a greedy pass rather than skipping reclamation.
		f.Stats.GCRuns++ // advance the phase so we don't wear-pass forever
		return f.gcPlane(plane)
	}
	if victim < 0 {
		// The only reclaimable garbage may be trapped in the open block:
		// close it (its remaining pages are sacrificed as unwritten) and
		// retry once, so the next pass can collect it.
		if ob := f.open[plane]; ob.block >= 0 {
			m := f.blocks[f.globalBlock(plane, ob.block)]
			if m.valid < m.written {
				f.open[plane] = openBlock{block: -1}
				return f.gcPlane(plane)
			}
		}
		return false
	}
	f.inGC = true
	defer func() { f.inGC = false }()
	f.Stats.GCRuns++
	chip, pic := f.planeChip(plane)
	victimGB := f.globalBlock(plane, victim)
	// Migrate valid pages into the same plane's log head. The reserved
	// free blocks (gcThreshold) guarantee space; inGC suppresses nested
	// GC so the free list cannot be corrupted mid-migration.
	for page := 0; page < f.pagesPerBlock; page++ {
		ppn := f.ppn(plane, victim, page)
		lpn := f.p2l[ppn]
		if lpn < 0 {
			continue
		}
		nppn := f.migrateTarget(plane)
		if nppn < 0 {
			// No space anywhere to migrate into: stop; the victim keeps
			// its remaining valid pages and is not erased.
			return false
		}
		// Read the victim page, move the mapping, rewrite it.
		f.ssd.ReadPageAt(chip, pic, sim.Event{})
		f.p2l[ppn] = -1
		f.blocks[victimGB].valid--
		f.l2p[lpn] = nppn
		f.p2l[nppn] = lpn
		npl, nblk, _ := f.decompose(nppn)
		f.blocks[f.globalBlock(npl, nblk)].valid++
		f.Stats.GCWrites++
		nchip, npic := f.planeChip(npl)
		f.ssd.ProgramPageAt(nchip, npic, sim.Event{})
	}
	// Erase and free the victim.
	f.blocks[victimGB].written = 0
	f.blocks[victimGB].valid = 0
	f.blocks[victimGB].erases++
	f.Stats.Erases++
	f.ssd.EraseBlockAt(chip, pic, sim.Event{})
	f.free[plane] = append(f.free[plane], victim)
	return true
}

// migrateTarget finds a physical page for a GC migration: the victim's own
// plane first (cheap copy-back), then any other plane with space. inGC is
// held by the caller, so these allocations never recurse into GC.
func (f *FTL) migrateTarget(plane int) int64 {
	if ppn := f.allocate(plane); ppn >= 0 {
		return ppn
	}
	for step := 1; step < f.planes; step++ {
		if ppn := f.allocate((plane + step) % f.planes); ppn >= 0 {
			return ppn
		}
	}
	return -1
}

// anyFreeElsewhere reports whether any other plane has a free block or
// open-block slack for cross-plane migration.
func (f *FTL) anyFreeElsewhere(plane int) bool {
	for p := 0; p < f.planes; p++ {
		if p == plane {
			continue
		}
		if len(f.free[p]) > 0 {
			return true
		}
		if ob := f.open[p]; ob.block >= 0 && ob.nextPage < f.pagesPerBlock {
			return true
		}
	}
	return false
}

// MaxErases reports the highest per-block erase count (wear).
func (f *FTL) MaxErases() int {
	max := 0
	for _, b := range f.blocks {
		if b.erases > max {
			max = b.erases
		}
	}
	return max
}

// MinErasesFullyUsed reports the lowest erase count among blocks that have
// ever been written (wear-leveling quality indicator).
func (f *FTL) MinErasesFullyUsed() int {
	min := -1
	for _, b := range f.blocks {
		if b.erases == 0 && b.written == 0 {
			continue
		}
		if min < 0 || b.erases < min {
			min = b.erases
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

// ValidPages reports the number of currently mapped logical pages.
func (f *FTL) ValidPages() int64 {
	var n int64
	for _, p := range f.l2p {
		if p >= 0 {
			n++
		}
	}
	return n
}
