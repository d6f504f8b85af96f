package core

import (
	"fmt"

	"flashwalker/internal/bloom"
	"flashwalker/internal/dram"
	"flashwalker/internal/errs"
	"flashwalker/internal/fault"
	"flashwalker/internal/flash"
	"flashwalker/internal/graph"
	"flashwalker/internal/metrics"
	"flashwalker/internal/partition"
	"flashwalker/internal/rng"
	"flashwalker/internal/sim"
	"flashwalker/internal/trace"
	"flashwalker/internal/walk"
)

// The engine implementation is split across focused files:
//
//	array.go     — Engine, the run driver: N >= 1 boards on one event
//	               kernel, the inter-board fabric, device kills, the
//	               conservation audit
//	engine.go    — boardEngine, one board's devices and tiers; RunConfig
//	snapshot.go  — Snapshot, checkpoint/restore for any board count
//	delta.go     — the store diff between two cuts (benchmark probe only)
//	tier.go      — the tierAccel interface and the shared tier machinery
//	wiring.go    — accelerator tier construction and hot-subgraph preload
//	lifecycle.go — walk retirement, partition advance
//	routing.go   — foreigner demotion/flush and the per-board store counts
//	scheduler.go — Eq. 1 scores and the partition walk buffer (PWB)
//	route.go     — board-level routing decisions (classify/search)
//	chip.go, channel.go, board.go — the three tier implementations
//	hop.go       — walk-update (hop) decisions
//	tables.go    — query cache and unit pools

// wstate is a walk in flight through the accelerator hierarchy, carrying the
// routing annotations the hardware attaches: the pre-walked dense block and
// edge (paper §III-D) and the subgraph-range tag from the approximate walk
// search (§III-C).
type wstate struct {
	w          walk.Walk
	denseBlock int    // destination dense block after pre-walking, -1 otherwise
	denseEdge  uint64 // chosen edge index within Cur's edge list (pre-walked)
	rangeTag   int    // subgraph range ID from the approximate search, -1 untagged
	// prev is the previous vertex (second-order walks); noPrev before the
	// first hop. Unlike the tags above it persists across routing.
	prev graph.VertexID
	// rng is the walk's private sampling stream (KnightKing-style), derived
	// from the run seed per walk at seeding time. Because every hop draws
	// from the walk's own stream — never a tier's — the trajectory depends
	// only on the walk and the graph, not on which accelerator performs the
	// update or when. That makes trajectories invariant under fault-induced
	// timing shifts: injected faults change when walks finish, never where
	// they go (the metamorphic property internal/fault relies on).
	rng rng.RNG
}

// noPrev marks a walk that has not hopped yet.
const noPrev = ^graph.VertexID(0)

func (ws *wstate) clearTags() {
	ws.denseBlock = -1
	ws.rangeTag = -1
}

// sizeBytes is the buffer/flash footprint of the walk record; pre-walked
// dense walks omit cur (§III-D).
func (ws *wstate) sizeBytes() int64 {
	if ws.denseBlock >= 0 {
		return walk.DenseStateBytes
	}
	return walk.StateBytes
}

// storeBytes is the footprint of a store's walks. A PWB entry's and a chip
// roving buffer's byte counts equal it, so resume derives both from the
// restored stores.
func (e *boardEngine) storeBytes(ws []int32) int64 {
	var n int64
	for _, w := range ws {
		n += e.walk(w).sizeBytes()
	}
	return n
}

// RunConfig bundles everything one FlashWalker run needs.
type RunConfig struct {
	Cfg       Config
	FlashCfg  flash.Config
	DRAMCfg   dram.Config
	PartCfg   partition.Config
	Spec      walk.Spec
	NumWalks  int
	StartSeed uint64
	// Starts, when non-empty, supplies the walks' start vertices (cycled
	// when NumWalks exceeds its length) instead of uniform random draws —
	// e.g. PPR runs every walk from one source.
	Starts []graph.VertexID
	// ProgressBin, when non-zero, enables the Figure-8 time series
	// (single-board runs only).
	ProgressBin sim.Time
	// MaxSimTime aborts runs exceeding this simulated time (0 = unlimited).
	MaxSimTime sim.Time
	// TrackVisits records per-vertex visit counts in Result.Visits
	// (validation and analytics; costs one counter array).
	TrackVisits bool
	// Tracer, when non-nil, receives structured simulation events
	// (subgraph loads, roving batches, flushes, partition switches);
	// single-board runs only.
	Tracer trace.Tracer
	// Audit enables walk-conservation checks at every partition switch:
	// the walks in all stores and in the fabric plus the finished count
	// must equal the started count. Costs a scan per switch.
	Audit bool
	// UseAliasSampling makes biased walks sample with precomputed alias
	// tables (O(1) per hop, KnightKing-style) instead of the paper's ITS
	// binary search. The tables double the per-edge metadata stored with
	// each subgraph (see walk.GraphAlias.SizeBytes).
	UseAliasSampling bool
	// Mutations is a deterministic edge insert/delete stream applied during
	// the run: a mutation stamped T becomes visible to the first simulated
	// event at time >= T and to nothing before it (At == 0 mutations apply
	// at construction, before hot-subgraph selection). The engine clones
	// the graph, so the caller's Graph is never modified, and maintains
	// every derived index — block degree tables, the second-order edge
	// filter, alias tables — incrementally; the result is bit-identical to
	// rebuilding those structures over the mutated graph. The stream must
	// satisfy graph.MutationStream.Validate over the initial graph with the
	// partitioning's dense-vertex threshold as the degree cap (the frozen
	// block skeleton cannot re-partition mid-run). Empty means a static
	// graph: the classic, byte-identical path.
	Mutations graph.MutationStream
	// OnProgress, when non-nil, receives live counter snapshots from the
	// simulation goroutine at checkpoint boundaries (every CheckpointEvery
	// events) and once more when the run ends. The callback must be fast
	// and must not call back into the engine.
	OnProgress func(Progress)
	// CheckpointEvery is the event interval between cancellation checks and
	// progress snapshots; 0 uses DefaultCheckpointEvery. Checkpoints run
	// strictly between simulated events, so they never perturb the
	// timeline.
	CheckpointEvery uint64
	// OnSnapshot, when non-nil, receives durable engine snapshots taken at
	// checkpoint boundaries (see snapshot.go). A snapshot captures the
	// full mid-run state — walk stores, accelerator queues, device
	// bookings, the fabric, the pending event heap — and ResumeEngine
	// replays the run from it bit-identically. Every checkpoint can be
	// snapshotted, from event zero on; a snapshot that cannot be built fails
	// the run, and RunContext returns the error. Snapshots do not capture
	// ProgressBin time series or a Tracer, so neither may be combined with
	// OnSnapshot. The callback must not call back into the engine.
	OnSnapshot func(*Snapshot)
	// SnapshotEvery is the minimum number of processed events between
	// OnSnapshot deliveries; snapshots are only attempted at checkpoint
	// boundaries, so the effective cadence is the next checkpoint after
	// the interval elapses. 0 snapshots at every checkpoint.
	SnapshotEvery uint64
	// OnWalks, when non-nil, receives finished walks in retirement order
	// (see export.go). Deliveries happen strictly between simulated events
	// — at emitter boundaries, before every snapshot, and at run end — so
	// attaching a consumer never perturbs the timeline. The record slice is
	// reused between deliveries; the callback must copy what it keeps and
	// must not call back into the engine.
	OnWalks func([]WalkDone)
	// EmitEvery is the event interval between OnWalks deliveries; 0 uses
	// DefaultEmitEvery.
	EmitEvery uint64
}

// validate checks the run-wide inputs once, before any board is built.
// Progress time series and tracers observe one board's devices, so they
// are rules of single-board runs; snapshots capture neither, so they also
// exclude OnSnapshot.
func (rc *RunConfig) validate(g *graph.Graph) error {
	if err := rc.Cfg.Validate(); err != nil {
		return err
	}
	if err := rc.Spec.Validate(g); err != nil {
		return err
	}
	if rc.NumWalks <= 0 {
		return fmt.Errorf("core: NumWalks %d <= 0: %w", rc.NumWalks, errs.ErrInvalidConfig)
	}
	if rc.Cfg.Boards > 1 && rc.ProgressBin > 0 {
		return fmt.Errorf("core: progress time series are per-board; not supported with Boards > 1: %w", errs.ErrInvalidConfig)
	}
	if rc.Cfg.Boards > 1 && rc.Tracer != nil {
		return fmt.Errorf("core: tracing is not supported with Boards > 1: %w", errs.ErrInvalidConfig)
	}
	if rc.OnSnapshot != nil && rc.ProgressBin > 0 {
		return fmt.Errorf("core: snapshots do not capture progress time series; OnSnapshot excludes ProgressBin: %w", errs.ErrInvalidConfig)
	}
	if rc.OnSnapshot != nil && rc.Tracer != nil {
		return fmt.Errorf("core: snapshots do not capture a tracer; OnSnapshot excludes Tracer: %w", errs.ErrInvalidConfig)
	}
	if rc.UseAliasSampling && rc.Spec.Kind != walk.Biased {
		return fmt.Errorf("core: alias sampling only applies to biased walks: %w", errs.ErrInvalidConfig)
	}
	for _, v := range rc.Starts {
		if v >= g.NumVertices() {
			return fmt.Errorf("core: start vertex %d out of range: %w", v, errs.ErrInvalidConfig)
		}
	}
	return nil
}

// DefaultCheckpointEvery is the default event interval between cooperative
// cancellation checks and progress snapshots during RunContext.
const DefaultCheckpointEvery = 4096

// Progress is a consistent mid-run snapshot of an engine's headline
// counters, taken at an event boundary.
type Progress struct {
	// Now is the simulated clock at the snapshot.
	Now sim.Time
	// Events is the number of simulation events processed so far.
	Events uint64
	// Started / Completed / DeadEnded mirror the Result fields.
	Started   int
	Completed int
	DeadEnded int
	// Hops is the number of walk updates performed so far.
	Hops uint64
	// PartitionSwitches counts partition advances so far.
	PartitionSwitches uint64
}

// WalksFinished reports completed + dead-ended walks at the snapshot.
func (p Progress) WalksFinished() int { return p.Completed + p.DeadEnded }

// boardEngine is one FlashWalker board: its flash and DRAM devices, its
// accelerator tiers and walk stores. It shares the driver's event kernel and
// partitioning, owns only its shard's partitions, and hands foreigners
// bound for other shards to the driver's fabric.
type boardEngine struct {
	eng   *sim.Engine
	cfg   Config
	ssd   *flash.SSD
	dr    *dram.DRAM
	g     *graph.Graph
	part  *partition.Partitioned
	place *partition.Placement
	spec  walk.Spec

	// drv is the run driver; boardID indexes this board in drv.boards.
	drv     *Engine
	boardID int

	chips []*chipAccel
	chans []*channelAccel
	board *boardAccel
	// tiers is every accelerator in the hierarchy behind the shared
	// interface, in construction order (chips, channels, board).
	tiers []tierAccel

	// wtab is the board's walk table: every walk parked on the board or
	// moving through it lives here, and every store, batch and pending
	// event holds an index into it. wfree stacks the free indices. A *wstate
	// taken from the table stays valid until the next addWalk, which only
	// seeding, resume and fabric arrival call, never a tier handler.
	wtab  []wstate
	wfree []int32

	// Per-block walk stores outside the accelerators.
	pwb       [][]int32 // partition walk buffer entries (DRAM)
	pwbBytes  []int64
	fls       [][]int32 // walks overflowed to flash, per block
	flsPages  []int
	score     []float64 // cached Eq. 1 score per block
	scorePend []int     // inserts since last score refresh
	// blockPos is each block's position in its chip's current myBlocks
	// list (-1 outside the active partition); it backs the per-chip
	// scheduler work bitmaps (chipAccel.workBits).
	blockPos []int32

	// Walks awaiting a future partition. pendingMem walks live in board
	// DRAM/host; pendingFlash walks were flushed and must be read back.
	pendingMem        [][]int32
	pendingFlash      [][]int32
	pendingFlashBytes []int64
	// flushMark[p] is the prefix of pendingMem[p] that is NOT sitting in
	// the board's foreigner buffer (initial seeds and previously settled
	// walks). pendingMem[p][flushMark[p]:] are the foreigner-buffer
	// residents that a buffer overflow flushes to flash.
	flushMark         []int
	foreignerBufBytes int64

	// edgeFilter answers neighbor-membership queries for second-order
	// walks (nil otherwise); it lives in on-board DRAM. Static runs use a
	// plain bloom.Filter; dynamic runs use the counting variant below so
	// edge deletes can clear bits.
	edgeFilter edgeProber
	// edgeFilterC is the delete-capable filter behind edgeFilter on runs
	// with a mutation stream (nil otherwise).
	edgeFilterC *bloom.Counting
	// alias holds per-vertex alias tables when UseAliasSampling is set on
	// a biased run (nil otherwise).
	alias *walk.GraphAlias

	// Typed-event pools (events.go): in-flight roving batches and recycled
	// walk batch buffers.
	batches   []walkBatch
	freeBatch int32
	wbufs     [][]int32

	// Flushed-foreigner read-back in flight during a partition switch.
	switchLeft  int
	switchWalks []int32

	curPart   int
	activeCur int // walks of the current partition inside the system
	finished  bool

	res Result

	slotsPerChip int
	slotCapWalks int
	walksPerPage int

	flushChipRR int // round-robin chip cursor for board-side flushes

	tracer trace.Tracer

	// inj is the fault injector (nil unless Cfg.Faults.Enabled); degraded
	// mirrors the injector's sticky per-chip flags for the router's fast
	// path, and is nil when injection is off.
	inj      *fault.Injector
	degraded []bool
}

// addWalk files a walk in the board's table and returns its index. Growing
// the table moves every walk, so no *wstate may be held across a call.
func (e *boardEngine) addWalk(st wstate) int32 {
	if n := len(e.wfree); n > 0 {
		i := e.wfree[n-1]
		e.wfree = e.wfree[:n-1]
		e.wtab[i] = st
		return i
	}
	e.wtab = append(e.wtab, st)
	return int32(len(e.wtab) - 1)
}

// walk resolves a walk index; the pointer is valid until the next addWalk.
func (e *boardEngine) walk(i int32) *wstate { return &e.wtab[i] }

// dropWalk frees a walk's index once the walk has left the board.
func (e *boardEngine) dropWalk(i int32) { e.wfree = append(e.wfree, i) }

// liveWalks counts the table's occupied entries.
func (e *boardEngine) liveWalks() int { return len(e.wtab) - len(e.wfree) }

// edgeProber is the membership-probe interface shared by the static and
// counting edge Bloom filters; both answer bit-identically over the same
// edge multiset.
type edgeProber interface {
	Contains(key uint64) bool
}

// emit sends a trace event if tracing is enabled.
func (e *boardEngine) emit(kind trace.Kind, a, b int64) {
	if e.tracer != nil {
		e.tracer.Emit(trace.Event{At: e.eng.Now(), Kind: kind, A: a, B: b})
	}
}

// newBoardEngine builds board id of drv over the driver's kernel, graph and
// partitioning, without seeding walks. The driver has already applied the
// stream up to its cursor to the graph and partition stats, and derived
// indexes built here (edge filter, alias tables) are built over the
// patched graph, which is bit-identical to building them
// initial-then-incrementally. inDeg is the partitioning's per-block
// in-degree sums over that graph (nil without hot subgraphs).
func newBoardEngine(drv *Engine, id int, rc RunConfig, inDeg []uint64) (*boardEngine, error) {
	g, part := drv.g, drv.part
	ssd, err := flash.New(drv.eng, rc.FlashCfg)
	if err != nil {
		return nil, err
	}
	dr, err := dram.New(drv.eng, rc.DRAMCfg)
	if err != nil {
		return nil, err
	}
	place, err := partition.NewPlacement(part, rc.FlashCfg.Channels, rc.FlashCfg.ChipsPerChannel)
	if err != nil {
		return nil, err
	}
	e := &boardEngine{
		eng:     drv.eng,
		cfg:     rc.Cfg,
		ssd:     ssd,
		dr:      dr,
		g:       g,
		part:    part,
		place:   place,
		spec:    rc.Spec,
		drv:     drv,
		boardID: id,

		pwb:       make([][]int32, part.NumBlocks()),
		pwbBytes:  make([]int64, part.NumBlocks()),
		fls:       make([][]int32, part.NumBlocks()),
		flsPages:  make([]int, part.NumBlocks()),
		score:     make([]float64, part.NumBlocks()),
		scorePend: make([]int, part.NumBlocks()),
		blockPos:  make([]int32, part.NumBlocks()),

		pendingMem:        make([][]int32, part.NumPartitions),
		pendingFlash:      make([][]int32, part.NumPartitions),
		pendingFlashBytes: make([]int64, part.NumPartitions),
		flushMark:         make([]int, part.NumPartitions),

		freeBatch: -1,
		curPart:   -1,
		tracer:    rc.Tracer,
	}
	if rc.Cfg.Faults.Enabled {
		e.inj = fault.NewInjector(rc.Cfg.Faults, ssd.NumChips())
		e.inj.OnDegrade = e.chipDegraded
		e.degraded = make([]bool, ssd.NumChips())
		ssd.AttachFaults(e.inj)
	}

	for i := range e.blockPos {
		e.blockPos[i] = -1
	}
	e.slotsPerChip = int(rc.Cfg.ChipSubgraphBufBytes / rc.PartCfg.BlockBytes)
	if e.slotsPerChip < 1 {
		e.slotsPerChip = 1
	}
	e.slotCapWalks = int(rc.Cfg.ChipWalkQueueBytes / walk.StateBytes / int64(e.slotsPerChip))
	if e.slotCapWalks < 1 {
		e.slotCapWalks = 1
	}
	e.walksPerPage = int(rc.FlashCfg.PageBytes / walk.StateBytes)
	if e.walksPerPage < 1 {
		e.walksPerPage = 1
	}

	if rc.TrackVisits {
		e.res.Visits = make([]uint64, g.NumVertices())
	}
	if rc.Spec.Kind == walk.SecondOrder {
		if len(rc.Mutations) > 0 {
			// Size for the edge count after the whole stream: identical
			// geometry to the plain filter a run over the fully mutated
			// graph would build, so probe answers — and trajectories —
			// match the rebuild leg of the metamorphic tests.
			final := int(int64(g.NumEdges())+rc.Mutations.NetEdges(drv.mutCursor)) + 1
			e.edgeFilterC = partition.EdgeFilterCounting(g, 0.01, final)
			e.edgeFilter = e.edgeFilterC
		} else {
			e.edgeFilter = partition.EdgeFilter(g, 0.01)
		}
	}
	if rc.UseAliasSampling {
		ga, err := walk.NewGraphAlias(g)
		if err != nil {
			return nil, err
		}
		e.alias = ga
	}
	if rc.ProgressBin > 0 {
		ssd.ReadTS = metrics.NewTimeSeries(rc.ProgressBin)
		ssd.WriteTS = metrics.NewTimeSeries(rc.ProgressBin)
		ssd.ChannelTS = metrics.NewTimeSeries(rc.ProgressBin)
		e.res.ReadTS = ssd.ReadTS
		e.res.WriteTS = ssd.WriteTS
		e.res.ChannelTS = ssd.ChannelTS
		e.res.ProgressTS = metrics.NewTimeSeries(rc.ProgressBin)
	}

	e.buildAccelerators(inDeg)
	return e, nil
}

// collectTierStats folds every tier's utilization snapshot into the result
// (averages and maxima per level) plus the channel-bus peak.
func (e *boardEngine) collectTierStats() {
	var chipU, chipMax, chanGU float64
	var nChip, nChan int
	for _, t := range e.tiers {
		st := t.Stats()
		switch st.Level {
		case tierChip:
			nChip++
			chipU += st.UpdaterUtil
			if st.UpdaterUtil > chipMax {
				chipMax = st.UpdaterUtil
			}
		case tierChannel:
			nChan++
			chanGU += st.GuiderUtil
		case tierBoard:
			e.res.BoardGuiderUtil = st.GuiderUtil
		}
	}
	if nChip > 0 {
		e.res.ChipUpdaterUtil = chipU / float64(nChip)
	}
	e.res.ChipUpdaterUtilMax = chipMax
	if nChan > 0 {
		e.res.ChannelGuiderUtil = chanGU / float64(nChan)
	}
	var busMax float64
	for _, ca := range e.chans {
		if u := ca.channel.Bus.Utilization(); u > busMax {
			busMax = u
		}
	}
	e.res.ChannelBusUtilMax = busMax
}

// launch performs the one-time start-of-run work: the hot-subgraph preload,
// the periodic channel roving ticks, and the first partition dispatch. A
// board may legitimately start with no local walks — it idles (unfinished,
// ticks running) until the fabric delivers some.
func (e *boardEngine) launch() {
	e.preloadHotSubgraphs()
	for _, ca := range e.chans {
		ca.scheduleTick()
	}
	e.advancePartition()
}

// fail aborts the run: one inconsistent device invalidates the whole run.
func (e *boardEngine) fail(err error) { e.drv.fail(err) }
