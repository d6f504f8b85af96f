// Package baseline re-implements GraphWalker (Wang et al., ATC'20), the
// software out-of-core random-walk system FlashWalker is evaluated against.
//
// GraphWalker's two ideas, both modelled here:
//
//   - Asynchronous walk updating: once a graph block is in memory, a walk
//     keeps hopping until it terminates or steps into a block that is NOT
//     memory-resident (no iteration-wise synchronization).
//   - State-aware scheduling: the next block to load is the one with the
//     most walks waiting in it.
//
// The engine executes against the same simulated SSD as FlashWalker, but
// through the host path: every graph byte crosses a channel bus AND the
// PCIe link, and updating happens at a CPU hop rate instead of in-storage
// updaters. Host memory is capacity-limited (the knob Figures 5/7 sweep);
// blocks evict LRU. Walk pools that outgrow their memory budget are
// spilled to disk and read back when their block is scheduled — the "walk
// management I/O" of Figure 1.
package baseline

import (
	"context"
	"fmt"

	"flashwalker/internal/errs"
	"flashwalker/internal/fault"
	"flashwalker/internal/flash"
	"flashwalker/internal/graph"
	"flashwalker/internal/metrics"
	"flashwalker/internal/partition"
	"flashwalker/internal/rng"
	"flashwalker/internal/sim"
	"flashwalker/internal/walk"
)

// Config parameterizes the GraphWalker model.
type Config struct {
	// MemoryBytes is the host memory available for graph blocks (the
	// paper's 4/8/16 GB knob, scaled).
	MemoryBytes int64
	// WalkMemBytes is the memory budget for walk pools before spilling.
	WalkMemBytes int64
	// BlockBytes is GraphWalker's block size (1 GB in the paper, scaled).
	BlockBytes int64
	// IDBytes is the vertex ID width.
	IDBytes int
	// CPUHopTime is the single-thread cost of one walk update (random DRAM
	// access dominated).
	CPUHopTime sim.Time
	// Threads is the host parallelism applied to walk updating.
	Threads int
	// Prefetch overlaps I/O with compute: while a batch updates, the
	// predicted next block (most waiting walks) loads in the background.
	// GraphWalker's real implementation issues asynchronous I/O; disable
	// to model a strictly serial load-then-update loop.
	Prefetch bool
	Seed     uint64
	// OnProgress, when non-nil, receives live counter snapshots from the
	// simulation goroutine at checkpoint boundaries during RunContext and
	// once more when the run ends.
	OnProgress func(Progress)
	// CheckpointEvery is the event interval between cancellation checks and
	// progress snapshots; 0 uses DefaultCheckpointEvery.
	CheckpointEvery uint64
	// Faults optionally perturbs the simulated SSD with the same
	// deterministic injector FlashWalker uses. GraphWalker has no
	// in-storage accelerators to fail over to, so degraded chips simply
	// serve reads with the injector's penalty. Note the baseline samples
	// hops from one shared stream, so unlike FlashWalker its trajectories
	// are NOT invariant under fault timing — only deterministic for a
	// fixed (seed, fault config) pair.
	Faults fault.Config
}

// DefaultCheckpointEvery is the default event interval between cooperative
// cancellation checks during RunContext. The baseline's events are much
// coarser than FlashWalker's (one per page read or CPU batch), so the
// interval is shorter.
const DefaultCheckpointEvery = 256

// Progress is a consistent mid-run snapshot of the baseline's headline
// counters, taken at an event boundary.
type Progress struct {
	Now        sim.Time
	Events     uint64
	Started    int
	Completed  int
	DeadEnded  int
	Hops       uint64
	BlockLoads uint64
	Iterations uint64
}

// WalksFinished reports completed + dead-ended walks at the snapshot.
func (p Progress) WalksFinished() int { return p.Completed + p.DeadEnded }

// Default returns a configuration matching the paper's host (8 cores) with
// memory left for the caller to scale.
func Default() Config {
	return Config{
		MemoryBytes:  8 << 30,
		WalkMemBytes: 64 << 20,
		BlockBytes:   1 << 30,
		IDBytes:      4,
		CPUHopTime:   120 * sim.Nanosecond,
		Threads:      8,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.MemoryBytes <= 0 || c.WalkMemBytes <= 0 || c.BlockBytes <= 0 {
		return fmt.Errorf("baseline: non-positive capacity: %w", errs.ErrInvalidConfig)
	}
	if c.IDBytes != 4 && c.IDBytes != 8 {
		return fmt.Errorf("baseline: IDBytes %d: %w", c.IDBytes, errs.ErrInvalidConfig)
	}
	if c.CPUHopTime <= 0 || c.Threads <= 0 {
		return fmt.Errorf("baseline: non-positive CPU parameters: %w", errs.ErrInvalidConfig)
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	return nil
}

// Result summarizes a GraphWalker run.
type Result struct {
	Time sim.Time

	Started   int
	Completed int
	DeadEnded int
	Hops      uint64

	Flash flash.Counters

	BlockLoads     uint64 // graph block loads from SSD
	BlockBytes     int64  // graph bytes read from SSD
	WalkSpills     uint64 // walk pool spills to disk
	WalkSpillBytes int64
	WalkLoadBytes  int64
	Iterations     uint64 // scheduling rounds
	Prefetches     uint64 // background block loads issued

	// Faults holds the injected-fault totals (all zero unless
	// Config.Faults.Enabled).
	Faults fault.Counters

	// Breakdown attributes busy time to components (Figure 1): "load
	// graph", "update walks", "walk I/O".
	Breakdown *metrics.Breakdown
}

// WalksFinished reports completed + dead-ended walks.
func (r *Result) WalksFinished() int { return r.Completed + r.DeadEnded }

// pool is the walk set waiting for one block. disk holds records whose
// buffer space was spilled to the SSD; the simulator keeps their state but
// charges the I/O both ways.
type pool struct {
	mem       []walkState
	disk      []walkState
	diskBytes int64
}

func (p *pool) total() int { return len(p.mem) + len(p.disk) }

type walkState struct {
	w         walk.Walk
	denseEdge int64 // >= 0: pre-chosen edge index for a dense vertex
	// prev is the previous vertex for second-order walks; hasPrev guards
	// the first hop.
	prev    graph.VertexID
	hasPrev bool
}

// movedWalk is a walk that left the resident set during a batch, bound for
// block b once the batch's CPU time has elapsed.
type movedWalk struct {
	st walkState
	b  int
}

// Engine is one GraphWalker simulation. Its scheduling loop is a chain of
// typed events on the engine itself (block pages loaded -> spilled walks
// loaded -> batch updated -> next round); the state each link hands to the
// next lives in the fields below.
type Engine struct {
	eng  *sim.Engine
	cfg  Config
	ssd  *flash.SSD
	g    *graph.Graph
	part *partition.Partitioned
	spec walk.Spec
	rng  *rng.RNG
	inj  *fault.Injector

	pools      []pool
	inMem      map[int]bool
	lru        []int // block IDs, least-recent first
	memUsed    int64
	walkMemUse int64

	// Per-block graph loads in flight: pages still to arrive (> 0 while
	// loading) and the load's start time. waitBlock is the block the
	// scheduler waits on (-1 none); prefetches have no waiter.
	loadLeft  []int
	loadStart []sim.Time
	waitBlock int

	// The scheduler's spilled-walk read-back in flight (one at a time).
	walkLoadLeft  int
	walkLoadStart sim.Time

	// moved holds the current batch's walks that left the resident set,
	// routed when the batch's CPU time has elapsed.
	moved []movedWalk

	remaining int
	chipRR    int

	res Result
}

// New builds a GraphWalker instance over the Table I/III SSD. numWalks
// walks start at uniformly random vertices drawn from startSeed.
func New(g *graph.Graph, cfg Config, spec walk.Spec, numWalks int, startSeed uint64) (*Engine, error) {
	return NewWithSSD(g, cfg, flash.Default(), spec, numWalks, startSeed)
}

// NewWithSSD is New with an explicit SSD configuration (tests use small
// geometries).
func NewWithSSD(g *graph.Graph, cfg Config, ssdCfg flash.Config, spec walk.Spec, numWalks int, startSeed uint64) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := spec.Validate(g); err != nil {
		return nil, err
	}
	if numWalks <= 0 {
		return nil, fmt.Errorf("baseline: numWalks %d <= 0: %w", numWalks, errs.ErrInvalidConfig)
	}
	part, err := partition.Partition(g, partition.Config{
		BlockBytes:            cfg.BlockBytes,
		IDBytes:               cfg.IDBytes,
		SubgraphsPerPartition: 1 << 30, // GraphWalker has no partition grouping
		RangeSize:             1 << 30,
	})
	if err != nil {
		return nil, err
	}
	eng := sim.New()
	ssd, err := flash.New(eng, ssdCfg)
	if err != nil {
		return nil, err
	}
	var inj *fault.Injector
	if cfg.Faults.Enabled {
		inj = fault.NewInjector(cfg.Faults, ssd.NumChips())
		ssd.AttachFaults(inj)
	}
	e := &Engine{
		eng:       eng,
		cfg:       cfg,
		ssd:       ssd,
		g:         g,
		part:      part,
		spec:      spec,
		rng:       rng.New(cfg.Seed),
		inj:       inj,
		pools:     make([]pool, part.NumBlocks()),
		inMem:     map[int]bool{},
		loadLeft:  make([]int, part.NumBlocks()),
		loadStart: make([]sim.Time, part.NumBlocks()),
		waitBlock: -1,
	}
	e.res.Breakdown = metrics.NewBreakdown()
	e.seed(numWalks, startSeed)
	return e, nil
}

func (e *Engine) seed(n int, startSeed uint64) {
	starts := walk.UniformStarts(e.g, n, startSeed)
	ws := walk.NewWalks(e.spec, starts, n)
	e.remaining = len(ws)
	e.res.Started = len(ws)
	for i := range ws {
		st := walkState{w: ws[i], denseEdge: -1}
		e.routeTo(st, e.blockFor(&st))
	}
}

// blockFor resolves the destination block of a walk, pre-choosing the edge
// for dense vertices (their edges span several blocks).
func (e *Engine) blockFor(st *walkState) int {
	if meta, ok := e.part.Dense.Lookup(st.w.Cur); ok {
		var idx uint64
		if e.spec.Kind == walk.Biased {
			idx, _ = e.spec.ChooseEdge(e.rng, meta.OutDegree, e.g.OutCumWeights(st.w.Cur))
		} else {
			idx = e.rng.Uint64n(meta.OutDegree)
		}
		st.denseEdge = int64(idx)
		blockID, _ := partition.DenseBlockFor(meta, idx)
		return blockID
	}
	st.denseEdge = -1
	id, _ := e.part.BlockOf(st.w.Cur)
	return id
}

// routeTo places a walk into block b's pool, spilling pools to disk if the
// walk memory budget is exceeded.
func (e *Engine) routeTo(st walkState, b int) {
	if b < 0 {
		b = 0
	}
	e.pools[b].mem = append(e.pools[b].mem, st)
	e.walkMemUse += walk.StateBytes
	if e.walkMemUse > e.cfg.WalkMemBytes {
		e.spillLargestPool()
	}
}

// spillLargestPool writes the biggest in-memory pool to disk.
func (e *Engine) spillLargestPool() {
	best, bestLen := -1, 0
	for i := range e.pools {
		if e.inMem[i] {
			continue // the active blocks' pools drain immediately
		}
		if l := len(e.pools[i].mem); l > bestLen {
			best, bestLen = i, l
		}
	}
	if best < 0 || bestLen == 0 {
		return
	}
	p := &e.pools[best]
	bytes := int64(bestLen) * walk.StateBytes
	p.disk = append(p.disk, p.mem...)
	p.diskBytes += bytes
	p.mem = nil
	e.walkMemUse -= bytes
	e.res.WalkSpills++
	e.res.WalkSpillBytes += bytes
	// The spill crosses PCIe and programs flash pages.
	pages := e.ssd.PagesFor(bytes)
	e.res.Breakdown.Add("walk I/O", e.writePages(pages))
}

// writePages programs pages striped across chips, returning the elapsed
// wall time the write occupies (host waits on the transfer, not the
// program).
func (e *Engine) writePages(pages int) sim.Time {
	start := e.eng.Now()
	var end sim.Time
	bytes := int64(pages) * e.ssd.Cfg.PageBytes
	e.ssd.TransferHost(bytes, sim.Event{})
	for i := 0; i < pages; i++ {
		chip := e.ssd.Chip(e.chipRR)
		e.chipRR = (e.chipRR + 1) % e.ssd.NumChips()
		e.ssd.ProgramPagesFromBoard(chip, 1, sim.Event{})
	}
	end = start + sim.TransferTime(bytes, e.ssd.Cfg.PCIeBytesPerSec)
	return end - start
}

// progress snapshots the engine's headline counters; only called from the
// simulation goroutine at event boundaries.
func (e *Engine) progress() Progress {
	return Progress{
		Now:        e.eng.Now(),
		Events:     e.eng.Processed(),
		Started:    e.res.Started,
		Completed:  e.res.Completed,
		DeadEnded:  e.res.DeadEnded,
		Hops:       e.res.Hops,
		BlockLoads: e.res.BlockLoads,
		Iterations: e.res.Iterations,
	}
}

// RunContext executes the simulation until every walk finishes or ctx is
// canceled. As with core.Engine.RunContext, cancellation is cooperative and
// checked only between events, so uncanceled runs are bit-identical
// whatever the context.
// On cancellation the partial Result is returned with an error satisfying
// errors.Is(err, errs.ErrCanceled).
func (e *Engine) RunContext(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Done() != nil || e.cfg.OnProgress != nil {
		every := e.cfg.CheckpointEvery
		if every == 0 {
			every = DefaultCheckpointEvery
		}
		e.eng.SetCheckpoint(every, func() bool {
			if e.cfg.OnProgress != nil {
				e.cfg.OnProgress(e.progress())
			}
			return ctx.Err() == nil
		})
		defer e.eng.ClearCheckpoint()
	}
	e.eng.ScheduleAfter(0, sim.Event{Target: e, Kind: evNextRound})
	e.eng.Run()
	e.res.Time = e.eng.Now()
	e.res.Flash = e.ssd.Counters
	if e.inj != nil {
		e.res.Faults = e.inj.Counters
	}
	if e.cfg.OnProgress != nil {
		e.cfg.OnProgress(e.progress())
	}
	if e.eng.Halted() {
		return &e.res, fmt.Errorf("baseline: run canceled at %v: %w", e.res.Time, &errs.Canceled{
			Op: "baseline", Finished: e.res.WalksFinished(), Total: e.res.Started, Cause: ctx.Err(),
		})
	}
	if e.remaining != 0 {
		return nil, fmt.Errorf("baseline: %d walks unfinished", e.remaining)
	}
	return &e.res, nil
}

// pickBlock returns the block with the most waiting walks (state-aware
// scheduling), or -1 when no walks remain.
func (e *Engine) pickBlock() int {
	best, bestN := -1, 0
	for i := range e.pools {
		if n := e.pools[i].total(); n > bestN {
			best, bestN = i, n
		}
	}
	return best
}

// pickAbsentBlock returns the fullest block that is neither resident nor
// already loading (the prefetch target), or -1.
func (e *Engine) pickAbsentBlock() int {
	best, bestN := -1, 0
	for i := range e.pools {
		if e.inMem[i] {
			continue
		}
		if e.loadLeft[i] > 0 {
			continue
		}
		if n := e.pools[i].total(); n > bestN {
			best, bestN = i, n
		}
	}
	return best
}

// Scheduler event kinds (private to Engine.HandleEvent).
const (
	evNextRound uint16 = iota // route the last batch's moved walks, then iterate
	evBlockPage               // one page of block A reached host memory
	evWalkPage                // one page of spilled walks for block A read back
)

// HandleEvent advances the scheduling loop. It is exported only to satisfy
// sim.Handler.
func (e *Engine) HandleEvent(ev sim.Event) {
	b := int(ev.A)
	switch ev.Kind {
	case evNextRound:
		for i := range e.moved {
			e.routeTo(e.moved[i].st, e.moved[i].b)
		}
		e.moved = e.moved[:0]
		e.iterate()
	case evBlockPage:
		e.loadLeft[b]--
		if e.loadLeft[b] > 0 {
			return
		}
		e.res.Breakdown.Add("load graph", e.eng.Now()-e.loadStart[b])
		if e.waitBlock == b {
			e.waitBlock = -1
			e.loadWalks(b)
		}
	case evWalkPage:
		e.walkLoadLeft--
		if e.walkLoadLeft == 0 {
			e.res.Breakdown.Add("walk I/O", e.eng.Now()-e.walkLoadStart)
			e.updateBatch(b)
		}
	default:
		panic(fmt.Sprintf("baseline: unknown event kind %d", ev.Kind))
	}
}

// iterate is one scheduling round: choose the fullest block, make it
// memory-resident (I/O), pull its spilled walks back (walk I/O), then
// update the batch (CPU), and repeat.
func (e *Engine) iterate() {
	b := e.pickBlock()
	if b < 0 {
		return // all walks finished
	}
	e.res.Iterations++
	if e.ensureLoaded(b) {
		e.loadWalks(b)
	} else {
		e.waitBlock = b
	}
}

// ensureLoaded makes block b memory-resident, evicting LRU blocks as
// needed. It reports true when b is resident already; otherwise b's bytes
// are crossing PCIe, and its last page's evBlockPage finishes the load.
// Concurrent requests for the same block (scheduler + prefetcher) share one
// load.
func (e *Engine) ensureLoaded(b int) bool {
	if e.loadLeft[b] > 0 {
		return false
	}
	if e.inMem[b] {
		e.touch(b)
		return true
	}
	blk := &e.part.Blocks[b]
	size := blk.Bytes
	if size == 0 {
		size = 1
	}
	for i := 0; e.memUsed+size > e.cfg.MemoryBytes && i < len(e.lru); {
		victim := e.lru[i]
		if e.loadLeft[victim] > 0 {
			i++ // never evict a block still arriving
			continue
		}
		e.lru = append(e.lru[:i], e.lru[i+1:]...)
		delete(e.inMem, victim)
		vs := e.part.Blocks[victim].Bytes
		if vs == 0 {
			vs = 1
		}
		e.memUsed -= vs
	}
	e.inMem[b] = true
	e.lru = append(e.lru, b)
	e.memUsed += size
	pages := e.part.Pages(blk, e.ssd.Cfg.PageBytes)
	e.res.BlockLoads++
	e.res.BlockBytes += int64(pages) * e.ssd.Cfg.PageBytes
	if pages == 0 {
		return true
	}
	e.loadLeft[b] = pages
	e.loadStart[b] = e.eng.Now()
	for i := 0; i < pages; i++ {
		chip := e.ssd.Chip(e.chipRR)
		e.chipRR = (e.chipRR + 1) % e.ssd.NumChips()
		e.ssd.ReadPagesToHost(chip, 1, sim.Event{Target: e, Kind: evBlockPage, A: int32(b)})
	}
	return false
}

// touch refreshes b's LRU position.
func (e *Engine) touch(b int) {
	for i, id := range e.lru {
		if id == b {
			e.lru = append(e.lru[:i], e.lru[i+1:]...)
			e.lru = append(e.lru, b)
			return
		}
	}
}

// loadWalks reads block b's spilled walk pages back from disk, then
// updates b's batch: at once when nothing was spilled, otherwise when the
// last page's evWalkPage arrives.
func (e *Engine) loadWalks(b int) {
	p := &e.pools[b]
	if len(p.disk) == 0 {
		e.updateBatch(b)
		return
	}
	bytes := p.diskBytes
	pages := e.ssd.PagesFor(bytes)
	e.res.WalkLoadBytes += bytes
	p.mem = append(p.mem, p.disk...)
	e.walkMemUse += bytes
	p.disk = nil
	p.diskBytes = 0
	e.walkLoadStart = e.eng.Now()
	e.walkLoadLeft = pages
	for i := 0; i < pages; i++ {
		chip := e.ssd.Chip(e.chipRR)
		e.chipRR = (e.chipRR + 1) % e.ssd.NumChips()
		e.ssd.ReadPagesToHost(chip, 1, sim.Event{Target: e, Kind: evWalkPage, A: int32(b)})
	}
	if pages == 0 {
		e.updateBatch(b)
	}
}

// updateBatch runs every walk waiting for block b until it terminates or
// leaves the memory-resident set (asynchronous walk updating).
func (e *Engine) updateBatch(b int) {
	batch := e.pools[b].mem
	e.pools[b].mem = nil
	e.walkMemUse -= int64(len(batch)) * walk.StateBytes
	if e.walkMemUse < 0 {
		e.walkMemUse = 0
	}
	var hops uint64
	for i := range batch {
		st := batch[i]
		for {
			deg := e.g.OutDegree(st.w.Cur)
			if deg == 0 {
				e.res.DeadEnded++
				e.remaining--
				break
			}
			var idx uint64
			switch {
			case st.denseEdge >= 0:
				idx = uint64(st.denseEdge)
				st.denseEdge = -1
			case e.spec.Kind == walk.SecondOrder && st.hasPrev:
				idx, _, _ = e.spec.ChooseEdgeSecondOrder(e.g, e.rng, st.w.Cur, st.prev)
			default:
				idx, _ = e.spec.ChooseEdge(e.rng, deg, e.g.OutCumWeights(st.w.Cur))
			}
			st.prev, st.hasPrev = st.w.Cur, true
			st.w.Cur = e.g.OutEdges(st.w.Cur)[idx]
			st.w.Hop--
			hops++
			if e.spec.TerminatesAfterHop(e.rng, &st.w) {
				e.res.Completed++
				e.remaining--
				break
			}
			nb := e.blockFor(&st)
			if nb >= 0 && !e.inMem[nb] {
				e.moved = append(e.moved, movedWalk{st: st, b: nb})
				break
			}
		}
	}
	e.res.Hops += hops
	cpu := sim.Time(hops) * e.cfg.CPUHopTime / sim.Time(e.cfg.Threads)
	if cpu == 0 && len(batch) > 0 {
		cpu = e.cfg.CPUHopTime
	}
	if cpu > 0 {
		e.res.Breakdown.Add("update walks", cpu)
	}
	if e.cfg.Prefetch {
		// Overlap: start loading the predicted next block while the CPU
		// chews on this batch. The prediction ignores the walks still
		// moving in this batch, exactly like an async I/O thread would.
		if nb := e.pickAbsentBlock(); nb >= 0 {
			e.res.Prefetches++
			e.ensureLoaded(nb)
		}
	}
	e.eng.ScheduleAfter(cpu, sim.Event{Target: e, Kind: evNextRound})
}
