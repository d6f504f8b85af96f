package core

import (
	"context"
	"fmt"
	"time"

	"flashwalker/internal/bloom"
	"flashwalker/internal/errs"
	"flashwalker/internal/graph"
	"flashwalker/internal/partition"
	"flashwalker/internal/rng"
	"flashwalker/internal/sim"
	"flashwalker/internal/walk"
)

// This file is the run driver: N board engines (Config.Boards, N >= 1),
// each owning a round-robin shard of the graph partitions
// (partition.ShardMap), sharing one event kernel and connected by a
// modeled inter-board fabric. The paper's single FlashWalker board is the
// N = 1 case of the same loop: the one board owns every partition and the
// fabric never carries a walk.
//
// The fabric is one more sim resource alongside channels, chips and DRAM:
// each board has a FIFO egress link (sim.Queue) with FabricBytesPerSec
// bandwidth, and every message pays FabricLatency on top of its serialized
// transfer time (a PCIe-switch/NVMe-oF hop). A walk whose next vertex lives
// on another board's shard is serialized over the fabric instead of being
// parked in the local foreigner buffer: walks accumulate per (source,
// destination) pair until FabricBatchBytes, ship as one transfer, and land
// in the destination board's foreigner buffer (the same ForeignerBufBytes
// accounting and overflow-to-flash path a local demotion uses).
//
// Because every walk carries its own RNG stream, a walk's trajectory is
// identical whether it hops inside one board or crosses the fabric: board
// count, fabric timing, and even whole-device kills change when walks
// finish, never where they go. TestArrayOutcomeEquality and the kill tests
// lean on exactly this.

// Driver event kinds (private to Engine.HandleEvent).
const (
	evFabricArrive uint16 = iota // a fabric batch reached its destination; A = batch ref
	evBoardKill                  // whole-device fail-stop; B = board index
)

// fabricWalk is one walk in flight between boards, tagged with the
// destination partition its sender resolved (the walk's routing identity on
// the wire; recomputing it at arrival could disagree with the pre-walked
// dense-block choice).
type fabricWalk struct {
	st wstate
	p  int32
}

// egressBuf batches walks bound from one board to another.
type egressBuf struct {
	walks []fabricWalk
	bytes int64
}

// fabricBatch is a pooled in-flight fabric transfer record, which its
// evFabricArrive event names by index; a snapshot packs it beside the
// event.
type fabricBatch struct {
	walks []fabricWalk
	dst   int32
	free  int32
}

// Engine is one FlashWalker simulation instance over Config.Boards boards
// (0 and 1 both mean the single board of the paper).
type Engine struct {
	eng    *sim.Engine
	cfg    Config
	g      *graph.Graph   // the caller's graph, shared and never written
	ov     *graph.Overlay // the run's view of g after its mutations; nil without a stream
	part   *partition.Partitioned
	place  *partition.Placement // block-to-chip striping, alike on every board
	shard  *partition.ShardMap
	boards []*boardEngine
	dead   []bool

	fabric   []*sim.Queue // per-board egress link
	egress   [][]egressBuf
	fbatches []fabricBatch
	freeFB   int32
	fwbufs   [][]fabricWalk

	numStarted int // walks seeded fleet-wide
	remaining  int // walks not yet finished fleet-wide
	inFabric   int // walks in egress buffers or in-flight batches
	ticks      int // channel ticks pending in the kernel

	fabricWalks    uint64
	fabricBatchCnt uint64
	fabricBytes    int64
	evacuated      uint64
	kills          uint64

	launched bool
	failure  error
	audit    bool
	rootRNG  *rng.RNG

	// Mutation stream state (mutate.go): muts is the full stream, mutCursor
	// the next unapplied index (the At == 0 prefix applies at construction).
	muts      graph.MutationStream
	mutCursor int
	mutSrcs   []graph.VertexID // applyBatch's distinct-source scratch

	// The run's derived indexes, built once over the shared graph and read
	// by every board; applyBatch patches them. edgeFilter answers the
	// second-order sampler's neighbour probes (nil otherwise) and lives in
	// on-board DRAM; runs with a stream use the counting variant
	// edgeFilterC behind it, so edge deletes can clear bits. alias holds
	// the per-vertex alias tables of an alias-sampled biased run (nil
	// otherwise).
	edgeFilter  edgeProber
	edgeFilterC *bloom.Counting
	alias       *walk.GraphAlias

	// obs are the run's observers, served at checkpoint boundaries
	// (boundary); CheckpointEvery is never 0 here.
	obs        Observers
	lastSnap   uint64    // events processed at the last due cut
	lastSnapAt time.Time // wall time of the last delivered cut's decision

	// Completed-walk export (export.go): one fleet-wide finish sequence so
	// consumers see a single total order regardless of board count.
	exportBuf []WalkDone
	finSeq    uint64
	lastWalks uint64 // events processed at the last OnWalks delivery
}

// NewEngine builds a FlashWalker instance over the graph and seeds the
// workload: NumWalks walks at rc.Starts (cycled) or, without Starts, at
// uniformly random vertices drawn from StartSeed.
func NewEngine(g *graph.Graph, rc RunConfig) (*Engine, error) {
	e, err := newEngine(g, rc)
	if err != nil {
		return nil, err
	}
	starts := rc.Starts
	if len(starts) == 0 {
		starts = walk.UniformStarts(g, rc.NumWalks, rc.StartSeed)
	}
	e.seedWalks(starts, rc.NumWalks)
	return e, nil
}

// NewArray is NewEngine; it exists because the benchmark harness calls it.
func NewArray(g *graph.Graph, rc RunConfig) (*Engine, error) { return NewEngine(g, rc) }

// newEngine builds the skeleton — shared kernel, board engines, shard map,
// fabric — without seeding walks (ResumeEngine overlays a snapshot). A
// mutation stream is validated here and gets the run's overlay, and the
// At == 0 prefix is applied before the boards are built so hot-subgraph
// selection sees the patched degree sums.
func newEngine(g *graph.Graph, rc RunConfig) (*Engine, error) {
	if err := rc.validate(g); err != nil {
		return nil, err
	}
	if err := ValidateMutations(g, rc.PartCfg, rc.Mutations); err != nil {
		return nil, err
	}
	nb := max(rc.Cfg.Boards, 1)
	part, err := partition.Partition(g, rc.PartCfg)
	if err != nil {
		return nil, err
	}
	shard, err := partition.NewShardMap(part.NumPartitions, nb)
	if err != nil {
		return nil, err
	}
	place, err := partition.NewPlacement(part, rc.FlashCfg.Channels, rc.FlashCfg.ChipsPerChannel)
	if err != nil {
		return nil, err
	}
	eng := sim.New()
	e := &Engine{
		eng:     eng,
		cfg:     rc.Cfg,
		g:       g,
		part:    part,
		place:   place,
		shard:   shard,
		muts:    rc.Mutations,
		dead:    make([]bool, nb),
		fabric:  make([]*sim.Queue, nb),
		egress:  make([][]egressBuf, nb),
		freeFB:  -1,
		audit:   rc.Audit,
		rootRNG: rng.New(rc.Cfg.Seed),
		obs:     rc.Observers,
	}
	eng.Register(e) // targetDriver
	if e.obs.CheckpointEvery == 0 {
		e.obs.CheckpointEvery = DefaultCheckpointEvery
	}
	if len(e.muts) > 0 {
		e.ov = graph.NewOverlay(g)
	}
	if err := e.buildIndexes(rc); err != nil {
		return nil, err
	}
	for e.mutCursor < len(e.muts) && e.muts[e.mutCursor].At == 0 {
		e.mutCursor++
	}
	if _, err := e.applyBatch(e.muts[:e.mutCursor]); err != nil {
		return nil, err
	}
	// Hot-subgraph selection ranks blocks by in-degree over the patched
	// graph, and every board would choose the same ones, so choose once.
	var hot *hotSelection
	if rc.Cfg.Opts.HotSubgraphs {
		hot = e.selectHotSubgraphs(rc.FlashCfg.Channels)
	}
	// Board engines share the kernel, the partitioning and the derived
	// indexes but own their devices and accelerator tiers.
	for b := 0; b < nb; b++ {
		be, err := newBoardEngine(e, b, rc, hot)
		if err != nil {
			return nil, err
		}
		eng.Register(be)     // targetBoard(b)
		eng.Register(be.ssd) // targetSSD(b)
		e.boards = append(e.boards, be)
		e.fabric[b] = sim.NewQueue(eng)
		e.egress[b] = make([]egressBuf, nb)
	}
	// Attribute the construction-time prefix to the owning boards (the
	// per-board res is overlaid on resume, so this only matters for fresh
	// runs).
	for _, m := range e.muts[:e.mutCursor] {
		e.ownerOf(m.Src).res.MutationsApplied++
	}
	return e, nil
}

// seedWalks bins the workload onto the owning boards (walk initialization
// is host-side preprocessing, not charged to the simulated clock, matching
// the paper's exclusion of preprocessing). Walk i draws its private RNG
// stream from the run's root RNG by its global index, never from a board's,
// so its trajectory is independent of the board count, of scheduling, and
// of injected faults (see wstate.rng).
func (e *Engine) seedWalks(starts []graph.VertexID, n int) {
	if len(starts) == 0 {
		n = 0
	}
	n = max(n, 0)
	e.numStarted = n
	e.remaining = n
	b0 := e.boards[0]
	// Walk i starts at starts[i mod len(starts)]. One counting pass sizes
	// every pending list, walk table and free-index stack exactly.
	count := make([]int, e.part.NumPartitions)
	for i := 0; i < n; i++ {
		count[b0.homePartition(starts[i%len(starts)])]++
	}
	perBoard := make([]int, len(e.boards))
	for p, c := range count {
		if c > 0 {
			b := e.shard.BoardOf(p)
			e.boards[b].pendingMem[p] = make([]int32, 0, c)
			perBoard[b] += c
		}
	}
	for b, c := range perBoard {
		e.boards[b].wtab = make([]wstate, 0, c)
		e.boards[b].wfree = make([]int32, 0, c)
	}
	for i := 0; i < n; i++ {
		v := starts[i%len(starts)]
		p := b0.homePartition(v)
		be := e.boards[e.shard.BoardOf(p)]
		if be.res.Visits != nil {
			be.res.Visits[v]++
		}
		w := be.addWalk(wstate{w: walk.Walk{Src: v, Cur: v, Hop: b0.spec.Length},
			denseBlock: -1, rangeTag: -1, prev: noPrev, rng: *e.rootRNG.Derive(uint64(i))})
		be.pendingMem[p] = append(be.pendingMem[p], w)
		be.res.Started++
	}
	for _, be := range e.boards {
		for p := range be.pendingMem {
			be.flushMark[p] = len(be.pendingMem[p])
		}
	}
}

// ownerOf reports the board owning vertex v's home partition.
func (e *Engine) ownerOf(v graph.VertexID) *boardEngine {
	return e.boards[e.shard.BoardOf(e.boards[0].homePartition(v))]
}

// RunContext executes the simulation until every walk finishes or ctx is
// canceled. Cancellation is cooperative: the event kernel checks ctx at
// checkpoint boundaries (every CheckpointEvery events, never mid-event), so
// the simulated timeline of an uncanceled run is bit-identical whatever the
// context. On cancellation it returns the partial Result accumulated so far
// together with an error satisfying errors.Is(err, errs.ErrCanceled); the
// Result's counters are a consistent snapshot at the halting event
// boundary.
func (e *Engine) RunContext(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if o := &e.obs; ctx.Done() != nil || o.OnProgress != nil || o.OnSnapshot != nil || o.OnWalks != nil {
		e.eng.SetCheckpoint(o.CheckpointEvery, func() bool { return e.boundary(ctx) })
		defer e.eng.ClearCheckpoint()
	}
	if e.mutCursor < len(e.muts) {
		e.eng.SetApplier(e.applyMutations)
		defer e.eng.ClearApplier()
	}
	if !e.launched {
		e.launched = true
		for _, be := range e.boards {
			be.launch()
		}
		if e.cfg.Faults.KillBoardAt > 0 {
			e.eng.Schedule(e.cfg.Faults.KillBoardAt,
				sim.Event{Target: e, Kind: evBoardKill, B: int32(e.cfg.Faults.KillBoard)})
		}
		if e.remaining == 0 {
			e.finishAll()
		}
	}
	e.eng.Run()
	e.flushWalks()
	if e.failure != nil {
		return nil, e.failure
	}
	res := e.aggregate()
	if e.obs.OnProgress != nil {
		e.obs.OnProgress(e.progress())
	}
	if e.eng.Halted() {
		return res, fmt.Errorf("core: run canceled at %v: %w", res.Time, &errs.Canceled{
			Op: "core", Finished: res.WalksFinished(), Total: res.Started, Cause: ctx.Err(),
		})
	}
	if e.remaining != 0 {
		return nil, fmt.Errorf("core: simulation drained with %d walks unfinished (%d in fabric)",
			e.remaining, e.inFabric)
	}
	return res, nil
}

// boundary is the kernel's checkpoint hook, run strictly between events.
// It delivers the export buffer, reports progress, builds a snapshot if
// one is due, and reports whether ctx lets the run go on. Walks go out
// before every snapshot, so a consumer persisting both never sees a
// snapshot ahead of its walk records, and otherwise at most once per
// minWalkGap events.
func (e *Engine) boundary(ctx context.Context) bool {
	n := e.eng.Processed()
	cut := e.cutDue(n)
	if cut || n-e.lastWalks >= minWalkGap {
		e.flushWalks()
	}
	if e.obs.OnProgress != nil {
		e.obs.OnProgress(e.progress())
	}
	if cut {
		// Snapshots are pure reads of engine state between events. One
		// that cannot be built would silently leave the job without
		// recovery points, so it fails the run.
		snap, err := e.buildSnapshot()
		if err != nil {
			e.fail(err)
			return false
		}
		e.obs.OnSnapshot(snap)
	}
	return ctx.Err() == nil
}

// cutDue decides whether the boundary at n processed events takes a
// snapshot. One falls due SnapshotEvery events after the last due one; a
// cut due within SnapshotMinInterval of the last delivered one is decided
// against here, before it is built. A failed run is draining toward its
// error, so nothing is left to snapshot.
func (e *Engine) cutDue(n uint64) bool {
	o := &e.obs
	if o.OnSnapshot == nil || e.failure != nil || n-e.lastSnap < o.SnapshotEvery {
		return false
	}
	e.lastSnap = n
	if o.SnapshotMinInterval > 0 && time.Since(e.lastSnapAt) < o.SnapshotMinInterval {
		return false
	}
	e.lastSnapAt = time.Now()
	return true
}

// progress snapshots the fleet-wide headline counters. Only called from the
// simulation goroutine at event boundaries, so the reads are consistent.
func (e *Engine) progress() Progress {
	pr := Progress{Now: e.eng.Now(), Events: e.eng.Processed()}
	for _, be := range e.boards {
		pr.Started += be.res.Started
		pr.Completed += be.res.Completed
		pr.DeadEnded += be.res.DeadEnded
		pr.Hops += be.res.Hops
		pr.PartitionSwitches += be.res.PartitionSwitches
	}
	return pr
}

// HandleEvent dispatches the driver's fabric and fault events. It is
// exported only to satisfy sim.Handler.
func (e *Engine) HandleEvent(ev sim.Event) {
	switch ev.Kind {
	case evFabricArrive:
		e.arrive(ev.A)
	case evBoardKill:
		e.killBoard(int(ev.B))
	default:
		panic("core: unknown driver event kind")
	}
}

// --- Fabric. ---

// sendForeigner hands walk w, bound for partition p (owned by another
// board), to the fabric: the walk is copied out of the source board's
// table, joins the source's egress batch toward the owner and ships when
// the batch fills (or when the source drains).
func (e *Engine) sendForeigner(src *boardEngine, p int, w int32) {
	dst := e.shard.BoardOf(p)
	eb := &e.egress[src.boardID][dst]
	if eb.walks == nil {
		eb.walks = e.getFW()
	}
	eb.walks = append(eb.walks, fabricWalk{st: *src.walk(w), p: int32(p)})
	src.dropWalk(w)
	eb.bytes += walk.StateBytes
	e.inFabric++
	e.fabricWalks++
	if eb.bytes >= e.cfg.FabricBatchBytes {
		e.flushEgress(src.boardID, dst)
	}
}

// flushEgress ships one (source, destination) egress batch: the transfer
// serializes on the source's fabric link, then pays the switch latency, and
// the arrival event delivers the walks.
func (e *Engine) flushEgress(src, dst int) {
	eb := &e.egress[src][dst]
	if len(eb.walks) == 0 {
		return
	}
	ref := e.newFBatch(eb.walks, dst)
	bytes := eb.bytes
	eb.walks = nil
	eb.bytes = 0
	e.fabricBatchCnt++
	e.fabricBytes += bytes
	end := e.fabric[src].AcquireEvent(sim.TransferTime(bytes, e.cfg.FabricBytesPerSec), sim.Event{})
	e.eng.Schedule(end+e.cfg.FabricLatency, sim.Event{Target: e, Kind: evFabricArrive, A: ref})
}

// flushEgressFrom ships every batched walk a board still holds; called when
// the board drains so no walk waits forever on the batch threshold.
func (e *Engine) flushEgressFrom(src int) {
	for dst := range e.egress[src] {
		e.flushEgress(src, dst)
	}
}

// arrive lands a fabric batch: walks are filed in the destination board's
// walk table and join its foreigner buffer (waking it if idle); walks
// whose owner changed in flight — the destination died while they were on
// the wire — bounce to the new owner.
func (e *Engine) arrive(ref int32) {
	walks, dst := e.takeFBatch(ref)
	be := e.boards[dst]
	var bounce []fabricWalk
	delivered := 0
	for i := range walks {
		p := int(walks[i].p)
		if e.shard.BoardOf(p) != dst {
			bounce = append(bounce, walks[i])
			continue
		}
		if be.pendingMem[p] == nil {
			be.pendingMem[p] = be.getWalkBuf()
		}
		be.pendingMem[p] = append(be.pendingMem[p], be.addWalk(walks[i].st))
		be.foreignerBufBytes += walk.StateBytes
		if be.foreignerBufBytes >= be.cfg.ForeignerBufBytes {
			be.flushForeigners()
		}
		e.inFabric--
		delivered++
	}
	e.putFW(walks)
	if delivered > 0 && be.activeCur == 0 && !be.finished {
		// The board was idle; hand it the partition the arrivals landed in.
		be.advancePartition()
	}
	if len(bounce) > 0 {
		e.reforward(bounce)
	}
}

// reforward bounces mid-flight walks to their post-failover owners: the
// switch re-routes each group as a fresh transfer (buffered at the switch —
// the original sender may be dead, so no egress link is charged).
func (e *Engine) reforward(walks []fabricWalk) {
	for b := range e.boards {
		var grp []fabricWalk
		var bytes int64
		for _, fw := range walks {
			if e.shard.BoardOf(int(fw.p)) != b {
				continue
			}
			if grp == nil {
				grp = e.getFW()
			}
			grp = append(grp, fw)
			bytes += walk.StateBytes
		}
		if grp == nil {
			continue
		}
		ref := e.newFBatch(grp, b)
		e.fabricBatchCnt++
		e.fabricBytes += bytes
		e.eng.ScheduleAfter(e.cfg.FabricLatency+sim.TransferTime(bytes, e.cfg.FabricBytesPerSec),
			sim.Event{Target: e, Kind: evFabricArrive, A: ref})
	}
}

// --- Whole-device kill. ---

// killBoard fail-stops board b: its shard is re-placed round-robin onto the
// survivors, its parked walks (pending lists, both memory and flash) are
// evacuated over the fabric to the new owners, and the walks active in its
// current partition drain to completion (fail-stop after command
// completion). In-flight batches addressed to it bounce in arrive.
func (e *Engine) killBoard(b int) {
	if e.failure != nil || e.dead[b] {
		return
	}
	var alive []int
	for i := range e.boards {
		if i != b && !e.dead[i] {
			alive = append(alive, i)
		}
	}
	if len(alive) == 0 {
		e.fail(fmt.Errorf("core: board %d killed with no survivors", b))
		return
	}
	e.dead[b] = true
	e.kills++
	if _, err := e.shard.Reassign(b, alive); err != nil {
		e.fail(fmt.Errorf("core: kill board %d: %w", b, err))
		return
	}
	be := e.boards[b]
	for p := range be.pendingMem {
		mem := be.pendingMem[p]
		be.pendingMem[p] = nil
		fl := be.pendingFlash[p]
		be.pendingFlash[p] = nil
		be.flushMark[p] = 0
		for _, w := range mem {
			e.evacuate(be, p, w)
		}
		for _, w := range fl {
			e.evacuate(be, p, w)
		}
		be.putWalkBuf(mem)
		be.putWalkBuf(fl)
	}
	be.foreignerBufBytes = 0
	e.flushEgressFrom(b)
	if be.activeCur == 0 {
		// Nothing left to drain: the board is done for good (arrivals are
		// re-forwarded, so nothing can wake it).
		be.finished = true
	}
}

// evacuate moves one parked walk off a killed board over the fabric. The
// recovery path replays the board's walk log from the host side, so the
// transfer is charged to the fabric only.
func (e *Engine) evacuate(src *boardEngine, p int, w int32) {
	e.evacuated++
	e.sendForeigner(src, p, w)
}

// --- Termination / accounting. ---

// walkFinished tracks the fleet-wide walk count; when it hits zero every
// board is finished and the periodic ticks stop rescheduling, so the shared
// kernel drains.
func (e *Engine) walkFinished() {
	e.remaining--
	if e.remaining == 0 {
		e.finishAll()
	}
}

// stalled is the lost-walk guard, consulted by every channel tick: walks
// remain, yet nothing but ticks is pending and no chip holds a roving walk
// for one to fetch. A tick only fetches roving walks, so such a run can
// never move again — a walk lost, or one waiting on a completion that
// never comes — and failing beats spinning on ticks forever.
func (e *Engine) stalled() bool {
	if e.remaining == 0 || e.failure != nil || e.eng.Pending() != e.ticks {
		return false
	}
	for _, be := range e.boards {
		for _, c := range be.chips {
			if len(c.roving) > 0 {
				return false
			}
		}
	}
	return true
}

// boardDone reports whether a board is done for good: it is dead and
// drained, or every walk of the fleet has finished.
func (e *Engine) boardDone(be *boardEngine) bool {
	return e.dead[be.boardID] && be.activeCur == 0 || e.remaining == 0
}

func (e *Engine) finishAll() {
	for _, be := range e.boards {
		be.finished = true
	}
}

// fail aborts the run: one inconsistent device invalidates the whole run,
// so every board stops and the kernel drains.
func (e *Engine) fail(err error) {
	if e.failure == nil {
		e.failure = err
	}
	e.finishAll()
}

// auditConservation is the walk-conservation check: walks parked on boards,
// active in current partitions (minus the store double-count), in the
// fabric, or finished must sum to the seeded count, each board's walk
// table must hold exactly its parked and active walks, and each count
// resume derives must equal its derivation: the byte counts of the stores,
// the walks left to finish, and each board's done flag. Exact at any event
// boundary; invoked at every board's partition switch.
func (e *Engine) auditConservation(where string) {
	if !e.audit || e.failure != nil {
		return
	}
	stored, active, overlap, finished := 0, 0, 0, 0
	for b, be := range e.boards {
		st, ov := be.storedWalks(), be.activeCurStoredOverlap()
		if live, held := be.liveWalks(), st+be.activeCur-ov; live != held {
			e.fail(fmt.Errorf("core: audit(%s): board %d walk table holds %d live walks, stores and tiers %d",
				where, b, live, held))
			return
		}
		if err := be.auditStoreBytes(); err != nil {
			e.fail(fmt.Errorf("core: audit(%s): board %d %w", where, b, err))
			return
		}
		if be.finished != e.boardDone(be) {
			e.fail(fmt.Errorf("core: audit(%s): board %d finished=%t, dead=%t with %d active and %d remaining",
				where, b, be.finished, e.dead[b], be.activeCur, e.remaining))
			return
		}
		stored += st
		active += be.activeCur
		overlap += ov
		finished += be.res.Completed + be.res.DeadEnded
	}
	if got := stored + active - overlap + e.inFabric + finished; got != e.numStarted || e.remaining != e.numStarted-finished {
		e.fail(fmt.Errorf("core: audit(%s): %d stored + %d active - %d overlap + %d fabric + %d finished, %d remaining, of %d started",
			where, stored, active, overlap, e.inFabric, finished, e.remaining, e.numStarted))
	}
}

// auditStoreBytes checks the byte counts resume derives rather than
// restores: each PWB entry's and each chip roving buffer's count, and the
// foreigner buffer's, is the footprint of the walks it holds.
func (e *boardEngine) auditStoreBytes() error {
	if got, want := e.foreignerBufBytes, e.foreignerBytes(); got != want {
		return fmt.Errorf("foreigner buffer counts %d bytes, its walks fill %d", got, want)
	}
	for b, ws := range e.pwb {
		if got, want := e.pwbBytes[b], e.storeBytes(ws); got != want {
			return fmt.Errorf("block %d walk buffer entry counts %d bytes, its walks fill %d", b, got, want)
		}
	}
	for i, c := range e.chips {
		if got, want := c.rovingBytes, e.storeBytes(c.roving); got != want {
			return fmt.Errorf("chip %d roving buffer counts %d bytes, its walks fill %d", i, got, want)
		}
	}
	return nil
}

// aggregate folds the per-board results and the fabric counters into one
// Result.
func (e *Engine) aggregate() *Result {
	b0 := &e.boards[0].res
	res := &Result{
		Time:           e.eng.Now(),
		Boards:         len(e.boards),
		FabricWalks:    e.fabricWalks,
		FabricBatches:  e.fabricBatchCnt,
		FabricBytes:    e.fabricBytes,
		EvacuatedWalks: e.evacuated,
		BoardKills:     e.kills,
		// Time series are single-board only (RunConfig.validate), so board
		// 0's are the run's.
		ReadTS:     b0.ReadTS,
		WriteTS:    b0.WriteTS,
		ChannelTS:  b0.ChannelTS,
		ProgressTS: b0.ProgressTS,
	}
	var chipU, chipMax, chanU, boardU, busMax, dramU float64
	for _, be := range e.boards {
		be.collectTierStats()
		r := &be.res
		res.Started += r.Started
		res.Completed += r.Completed
		res.DeadEnded += r.DeadEnded
		res.Hops += r.Hops

		res.Flash.ReadPages += be.ssd.Counters.ReadPages
		res.Flash.ProgramPages += be.ssd.Counters.ProgramPages
		res.Flash.ErasedBlocks += be.ssd.Counters.ErasedBlocks
		res.Flash.ReadBytes += be.ssd.Counters.ReadBytes
		res.Flash.WriteBytes += be.ssd.Counters.WriteBytes
		res.Flash.ChannelBytes += be.ssd.Counters.ChannelBytes
		res.Flash.HostBytes += be.ssd.Counters.HostBytes
		res.DRAMReadBytes += be.dr.ReadBytes
		res.DRAMWriteBytes += be.dr.WriteBytes

		res.RovingTransfers += r.RovingTransfers
		res.RovingWalks += r.RovingWalks
		res.QueryCacheHits += r.QueryCacheHits
		res.QueryCacheMisses += r.QueryCacheMisses
		res.TableSearchSteps += r.TableSearchSteps
		res.RangeQueries += r.RangeQueries
		res.PreWalks += r.PreWalks
		res.FilterProbes += r.FilterProbes
		res.HotHitsChannel += r.HotHitsChannel
		res.HotHitsBoard += r.HotHitsBoard
		res.ChipUpdates += r.ChipUpdates
		res.SubgraphLoads += r.SubgraphLoads
		res.SubgraphReloads += r.SubgraphReloads
		res.PWBOverflows += r.PWBOverflows
		res.ForeignerWalks += r.ForeignerWalks
		res.ForeignerFlushes += r.ForeignerFlushes
		res.CompletedFlushes += r.CompletedFlushes
		res.GuiderStalls += r.GuiderStalls
		res.PartitionSwitches += r.PartitionSwitches
		res.MutationsApplied += r.MutationsApplied

		if be.inj != nil {
			res.Faults.ReadErrors += be.inj.Counters.ReadErrors
			res.Faults.Retries += be.inj.Counters.Retries
			res.Faults.RetriesExhausted += be.inj.Counters.RetriesExhausted
			res.Faults.PlaneBusyStalls += be.inj.Counters.PlaneBusyStalls
			res.Faults.StallTime += be.inj.Counters.StallTime
			res.Faults.BackoffTime += be.inj.Counters.BackoffTime
			res.Faults.DegradedChips += be.inj.Counters.DegradedChips
		}
		res.FaultReroutes += r.FaultReroutes
		res.FailoverBlocks += r.FailoverBlocks

		chipU += r.ChipUpdaterUtil
		if r.ChipUpdaterUtilMax > chipMax {
			chipMax = r.ChipUpdaterUtilMax
		}
		chanU += r.ChannelGuiderUtil
		boardU += r.BoardGuiderUtil
		if r.ChannelBusUtilMax > busMax {
			busMax = r.ChannelBusUtilMax
		}
		dramU += be.dr.Utilization()

		if r.Visits != nil {
			if res.Visits == nil {
				res.Visits = make([]uint64, len(r.Visits))
			}
			for v, n := range r.Visits {
				res.Visits[v] += n
			}
		}
	}
	nb := float64(len(e.boards))
	res.ChipUpdaterUtil = chipU / nb
	res.ChipUpdaterUtilMax = chipMax
	res.ChannelGuiderUtil = chanU / nb
	res.BoardGuiderUtil = boardU / nb
	res.ChannelBusUtilMax = busMax
	res.DRAMPortUtil = dramU / nb
	return res
}

// --- Pools. ---

// getFW hands out a recycled fabric-walk buffer (len 0).
func (e *Engine) getFW() []fabricWalk {
	if n := len(e.fwbufs); n > 0 {
		b := e.fwbufs[n-1]
		e.fwbufs[n-1] = nil
		e.fwbufs = e.fwbufs[:n-1]
		return b
	}
	return make([]fabricWalk, 0, 16)
}

// putFW recycles a fabric-walk buffer once its walks were handed on.
func (e *Engine) putFW(b []fabricWalk) {
	if b == nil {
		return
	}
	e.fwbufs = append(e.fwbufs, b[:0])
}

// newFBatch parks an in-flight fabric transfer in a pooled record.
func (e *Engine) newFBatch(walks []fabricWalk, dst int) int32 {
	var ref int32
	if e.freeFB >= 0 {
		ref = e.freeFB
		e.freeFB = e.fbatches[ref].free
	} else {
		e.fbatches = append(e.fbatches, fabricBatch{})
		ref = int32(len(e.fbatches) - 1)
	}
	e.fbatches[ref] = fabricBatch{walks: walks, dst: int32(dst), free: -1}
	return ref
}

// takeFBatch releases a batch record, returning its walks and destination.
func (e *Engine) takeFBatch(ref int32) ([]fabricWalk, int) {
	fb := e.fbatches[ref]
	e.fbatches[ref] = fabricBatch{free: e.freeFB}
	e.freeFB = ref
	return fb.walks, int(fb.dst)
}
