package core

import (
	"fmt"

	"flashwalker/internal/dram"
	"flashwalker/internal/errs"
	"flashwalker/internal/fault"
	"flashwalker/internal/flash"
	"flashwalker/internal/graph"
	"flashwalker/internal/partition"
	"flashwalker/internal/sim"
	"flashwalker/internal/walk"
)

// This file is the engine's durable checkpoint/restore layer. A Snapshot is
// a pure-data image of a paused engine taken strictly between simulated
// events, for any board count: the run's identity once, the shared event
// kernel, one body per board — every walk (with its private RNG stream),
// every buffer and queue booking, the pooled node/batch/op records the
// pending events reference, the fault injector's stream position — and the
// inter-board fabric (link bookings, egress batches, in-flight transfers).
// ResumeEngine rebuilds the engine skeleton from the identity section (the
// original RunConfig inputs) and overlays the captured state; because the
// walk trajectories are timing-independent (per-walk RNG streams) AND the
// kernel restore preserves exact (time, seq) event order, a resumed run's
// Result is bit-identical to the uninterrupted run — the invariant
// TestResumeMetamorphic proves against the golden digest.
//
// Every pending event and every flash op completion is a typed record, so a
// snapshot can be taken at any checkpoint from event zero on — in the middle
// of the time-0 hot-subgraph preload too (TierState.HotPending carries the
// blocks still in flight). What is NOT captured: progress time series and
// tracers, which RunConfig.validate therefore refuses beside OnSnapshot.

// Event-target IDs for the kernel and flash export: the driver is 0 (its
// fabric arrivals and kill events), and board b's engine and SSD are 1+2b
// and 2+2b.
const targetDriver int32 = 0

func targetBoard(b int) int32 { return int32(1 + 2*b) }
func targetSSD(b int) int32   { return int32(2 + 2*b) }

// WalkState is a wstate in serializable form.
type WalkState struct {
	W          walk.Walk
	DenseBlock int
	DenseEdge  uint64
	RangeTag   int
	Prev       graph.VertexID
	RNG        [4]uint64
}

// NodeState is one pooled wnode (live or free-listed).
type NodeState struct {
	St       WalkState
	PrevSize int64
	Hot      int32
	Foreign  int32
	RangeID  int32
	Block    int32
	Steps    int32
	Terminal bool
	DeadEnd  bool
	Free     int32
}

// BatchState is one pooled in-flight roving batch record.
type BatchState struct {
	Walks []WalkState
	Free  int32
}

// SlotState is one chip subgraph slot.
type SlotState struct {
	Block     int
	Loading   bool
	Idle      bool
	Defers    int
	Pending   int
	LoadLeft  int
	LoadWalks []WalkState
}

// UnitPoolState is an updater/guider pool's bookings and accounting.
type UnitPoolState struct {
	Units []sim.QueueState
	Jobs  uint64
	Busy  sim.Time
}

// TierState is the state every accelerator tier shares.
type TierState struct {
	Updater    UnitPoolState
	Guider     UnitPoolState
	QueueBytes int64
	HotIDs     []int
	HotNil     bool
	HotReady   bool
	HotPending int
}

// ChipState is one chip-level accelerator.
type ChipState struct {
	Tier           TierState
	Slots          []SlotState
	Roving         []WalkState
	RovingBytes    int64
	CompletedBytes int64
	MyBlocks       []int
}

// ChanState is one channel-level accelerator.
type ChanState struct {
	Tier     TierState
	Failover bool
}

// CacheState is one walk query cache's LRU contents (front = most recent).
type CacheState struct {
	Lows   []graph.VertexID
	Highs  []graph.VertexID
	Blocks []int
	Hits   uint64
	Misses uint64
}

// BoardState is the board-level accelerator.
type BoardState struct {
	Tier           TierState
	Ports          []sim.QueueState
	PortRR         int
	Caches         []CacheState
	CacheRR        int
	CompletedBytes int64
}

// BoardImage is one board's share of a Snapshot: its devices, walk stores,
// pooled event records and accelerator tiers.
type BoardImage struct {
	Flash    flash.State
	DRAM     dram.State
	Injector *fault.State

	// Per-block walk stores and scheduler state.
	PWB       [][]WalkState
	PWBBytes  []int64
	FLS       [][]WalkState
	FLSPages  []int
	Score     []float64
	ScorePend []int

	// Per-partition pending walks and the foreigner buffer.
	PendingMem        [][]WalkState
	PendingFlash      [][]WalkState
	PendingFlashBytes []int64
	FlushMark         []int
	ForeignerBufBytes int64

	// Pooled records referenced by pending events.
	Nodes     []NodeState
	FreeNode  int32
	Batches   []BatchState
	FreeBatch int32

	// Flushed-foreigner read-back in flight.
	SwitchLeft  int
	SwitchWalks []WalkState

	CurPart   int
	ActiveCur int
	Finished  bool

	FlushChipRR int

	Chips []ChipState
	Chans []ChanState
	Board BoardState // the board-level accelerator

	Res Result
}

// FabricWalkState is one in-flight fabric walk in serializable form.
type FabricWalkState struct {
	St WalkState
	P  int32
}

// EgressState is one (source, destination) egress batch being accumulated.
type EgressState struct {
	Walks []FabricWalkState
	Bytes int64
}

// FabricBatchState is one pooled fabric transfer record (live or free).
type FabricBatchState struct {
	Walks []FabricWalkState
	Dst   int32
	Free  int32
}

// Snapshot is the complete serializable state of a paused Engine.
type Snapshot struct {
	// Identity: the construction inputs. ResumeEngine rebuilds the engine
	// skeleton from these and validates the graph against the counts.
	Cfg              Config
	FlashCfg         flash.Config
	DRAMCfg          dram.Config
	PartCfg          partition.Config
	Spec             walk.Spec
	NumWalks         int
	MaxSimTime       sim.Time
	TrackVisits      bool
	Audit            bool
	UseAliasSampling bool
	// GraphVertices/GraphEdges are the INITIAL graph's counts (before any
	// mutations): a resumed run is handed the initial graph and replays
	// the stream's applied prefix itself.
	GraphVertices uint64
	GraphEdges    uint64
	// Mutations is the run's full mutation stream; MutApplied is how many
	// of them had been applied when the snapshot was taken. ResumeEngine
	// re-applies mutations [0, MutApplied) to the initial graph before
	// overlaying state, and the applier hook resumes from the cursor.
	Mutations  graph.MutationStream
	MutApplied int

	// Sim is the shared event kernel; RootRNG the run seed's stream, from
	// which every walk's private stream was derived.
	Sim     sim.EngineState
	RootRNG [4]uint64

	// Boards holds one body per board, indexed by board.
	Boards []BoardImage

	// Fabric state: shard ownership, device liveness, per-link bookings,
	// egress batches, the pooled in-flight transfers pending events
	// reference by index, and the run-wide walk counts.
	Owners    []int32
	Dead      []bool
	FabricQ   []sim.QueueState
	Egress    [][]EgressState
	FBatches  []FabricBatchState
	FreeFB    int32
	InFabric  int
	Remaining int

	FabricWalks   uint64
	FabricBatches uint64
	FabricBytes   int64
	Evacuated     uint64
	Kills         uint64
}

// Preloading reports whether the snapshot was cut while some tier's time-0
// hot-subgraph preload was still in flight. Such a cut precedes every
// walk-store change.
func (s *Snapshot) Preloading() bool {
	for i := range s.Boards {
		b := &s.Boards[i]
		pending := b.Board.Tier.HotPending
		for j := range b.Chans {
			pending += b.Chans[j].Tier.HotPending
		}
		if pending > 0 {
			return true
		}
	}
	return false
}

// WalksFinished reports the walks finished on every board at the cut.
func (s *Snapshot) WalksFinished() int {
	n := 0
	for i := range s.Boards {
		n += s.Boards[i].Res.WalksFinished()
	}
	return n
}

// --- Conversions. ---

func wsOut(st *wstate) WalkState {
	return WalkState{W: st.w, DenseBlock: st.denseBlock, DenseEdge: st.denseEdge,
		RangeTag: st.rangeTag, Prev: st.prev, RNG: st.rng.State()}
}

func wsIn(ws WalkState) wstate {
	st := wstate{w: ws.W, denseBlock: ws.DenseBlock, denseEdge: ws.DenseEdge,
		rangeTag: ws.RangeTag, prev: ws.Prev}
	st.rng.SetState(ws.RNG)
	return st
}

func walksOut(ws []wstate) []WalkState {
	if ws == nil {
		return nil
	}
	out := make([]WalkState, len(ws))
	for i := range ws {
		out[i] = wsOut(&ws[i])
	}
	return out
}

func walksIn(ws []WalkState) []wstate {
	if len(ws) == 0 {
		return nil
	}
	out := make([]wstate, len(ws))
	for i := range ws {
		out[i] = wsIn(ws[i])
	}
	return out
}

func fwOut(ws []fabricWalk) []FabricWalkState {
	if ws == nil {
		return nil
	}
	out := make([]FabricWalkState, len(ws))
	for i := range ws {
		out[i] = FabricWalkState{St: wsOut(&ws[i].st), P: ws[i].p}
	}
	return out
}

func fwIn(ws []FabricWalkState) []fabricWalk {
	if len(ws) == 0 {
		return nil
	}
	out := make([]fabricWalk, len(ws))
	for i := range ws {
		out[i] = fabricWalk{st: wsIn(ws[i].St), p: ws[i].P}
	}
	return out
}

func poolOut(p *unitPool) UnitPoolState {
	st := UnitPoolState{Units: make([]sim.QueueState, len(p.units)), Jobs: p.jobs, Busy: p.busy}
	for i, u := range p.units {
		st.Units[i] = u.State()
	}
	return st
}

func poolIn(p *unitPool, st UnitPoolState, what string) error {
	if len(st.Units) != len(p.units) {
		return fmt.Errorf("core: resume: %s has %d units, snapshot has %d", what, len(p.units), len(st.Units))
	}
	for i, u := range p.units {
		u.Restore(st.Units[i])
	}
	p.jobs = st.Jobs
	p.busy = st.Busy
	return nil
}

func tierOut(t *tierCommon) TierState {
	return TierState{
		Updater:    poolOut(t.updater),
		Guider:     poolOut(t.guider),
		QueueBytes: t.queueBytes,
		HotIDs:     t.hot.ids(),
		HotNil:     t.hot == nil,
		HotReady:   t.hotReady,
		HotPending: t.hotPending,
	}
}

func tierIn(t *tierCommon, st TierState, what string) error {
	if err := poolIn(t.updater, st.Updater, what+" updater"); err != nil {
		return err
	}
	if err := poolIn(t.guider, st.Guider, what+" guider"); err != nil {
		return err
	}
	t.queueBytes = st.QueueBytes
	if st.HotNil {
		t.hot = nil
	} else {
		t.SetHotBlocks(st.HotIDs)
	}
	t.hotReady = st.HotReady
	t.hotPending = st.HotPending
	return nil
}

// --- Export. ---

// buildSnapshot captures the engine's complete state. It is safe only
// strictly between simulated events (the checkpoint hook) of a run that has
// not failed. It fails only when a pending event or flash op completion
// targets a handler outside the engine.
func (e *Engine) buildSnapshot() (*Snapshot, error) {
	targetID := func(h sim.Handler) (int32, error) {
		if h == sim.Handler(e) {
			return targetDriver, nil
		}
		for b, be := range e.boards {
			switch h {
			case sim.Handler(be):
				return targetBoard(b), nil
			case sim.Handler(be.ssd):
				return targetSSD(b), nil
			}
		}
		return 0, fmt.Errorf("unknown event target %T", h)
	}
	b0 := e.boards[0]
	s := &Snapshot{
		Cfg:              e.cfg,
		FlashCfg:         b0.ssd.Cfg,
		DRAMCfg:          b0.dr.Cfg,
		PartCfg:          e.part.Cfg,
		Spec:             b0.spec,
		NumWalks:         e.numStarted,
		MaxSimTime:       e.maxSimTime,
		TrackVisits:      b0.res.Visits != nil,
		Audit:            e.audit,
		UseAliasSampling: b0.alias != nil,
		GraphVertices:    e.initVertices,
		GraphEdges:       e.initEdges,
		Mutations:        e.muts,
		MutApplied:       e.mutCursor,

		RootRNG: e.rootRNG.State(),
		Boards:  make([]BoardImage, len(e.boards)),

		Owners:    e.shard.Owners(),
		Dead:      append([]bool(nil), e.dead...),
		FreeFB:    e.freeFB,
		InFabric:  e.inFabric,
		Remaining: e.remaining,

		FabricWalks:   e.fabricWalks,
		FabricBatches: e.fabricBatchCnt,
		FabricBytes:   e.fabricBytes,
		Evacuated:     e.evacuated,
		Kills:         e.kills,
	}
	for b, be := range e.boards {
		if err := be.image(&s.Boards[b], targetID); err != nil {
			return nil, fmt.Errorf("core: snapshot board %d: %w", b, err)
		}
		s.FabricQ = append(s.FabricQ, e.fabric[b].State())
		row := make([]EgressState, len(e.egress[b]))
		for dst, eb := range e.egress[b] {
			row[dst] = EgressState{Walks: fwOut(eb.walks), Bytes: eb.bytes}
		}
		s.Egress = append(s.Egress, row)
	}
	s.FBatches = make([]FabricBatchState, len(e.fbatches))
	for i, fb := range e.fbatches {
		s.FBatches[i] = FabricBatchState{Walks: fwOut(fb.walks), Dst: fb.dst, Free: fb.free}
	}
	simState, err := e.eng.ExportState(targetID)
	if err != nil {
		return nil, err
	}
	s.Sim = simState
	return s, nil
}

// image captures one board's body into s; the caller exports the shared
// kernel. targetID also maps flash op completions, which reference engine
// and SSD targets.
func (e *boardEngine) image(s *BoardImage, targetID func(sim.Handler) (int32, error)) error {
	flashState, err := e.ssd.ExportState(targetID)
	if err != nil {
		return err
	}

	*s = BoardImage{
		Flash: flashState,
		DRAM:  e.dr.State(),

		PWBBytes:  append([]int64(nil), e.pwbBytes...),
		FLSPages:  append([]int(nil), e.flsPages...),
		Score:     append([]float64(nil), e.score...),
		ScorePend: append([]int(nil), e.scorePend...),

		PendingFlashBytes: append([]int64(nil), e.pendingFlashBytes...),
		FlushMark:         append([]int(nil), e.flushMark...),
		ForeignerBufBytes: e.foreignerBufBytes,

		FreeNode:  e.freeNode,
		FreeBatch: e.freeBatch,

		SwitchLeft:  e.switchLeft,
		SwitchWalks: walksOut(e.switchWalks),

		CurPart:   e.curPart,
		ActiveCur: e.activeCur,
		Finished:  e.finished,

		FlushChipRR: e.flushChipRR,

		Res: e.res,
	}
	if e.inj != nil {
		st := e.inj.State()
		s.Injector = &st
	}
	s.Res.Visits = append([]uint64(nil), e.res.Visits...)

	s.PWB = make([][]WalkState, len(e.pwb))
	s.FLS = make([][]WalkState, len(e.fls))
	for b := range e.pwb {
		s.PWB[b] = walksOut(e.pwb[b])
		s.FLS[b] = walksOut(e.fls[b])
	}
	s.PendingMem = make([][]WalkState, len(e.pendingMem))
	s.PendingFlash = make([][]WalkState, len(e.pendingFlash))
	for p := range e.pendingMem {
		s.PendingMem[p] = walksOut(e.pendingMem[p])
		s.PendingFlash[p] = walksOut(e.pendingFlash[p])
	}

	s.Nodes = make([]NodeState, len(e.nodes))
	for i := range e.nodes {
		n := &e.nodes[i]
		s.Nodes[i] = NodeState{
			St: wsOut(&n.st), PrevSize: n.prevSize,
			Hot: n.hot, Foreign: n.foreign, RangeID: n.rangeID,
			Block: n.block, Steps: n.steps,
			Terminal: n.terminal, DeadEnd: n.deadEnd, Free: n.free,
		}
	}
	s.Batches = make([]BatchState, len(e.batches))
	for i := range e.batches {
		s.Batches[i] = BatchState{Walks: walksOut(e.batches[i].walks), Free: e.batches[i].free}
	}

	s.Chips = make([]ChipState, len(e.chips))
	for i, c := range e.chips {
		cs := ChipState{
			Tier:           tierOut(&c.tierCommon),
			Slots:          make([]SlotState, len(c.slots)),
			Roving:         walksOut(c.roving),
			RovingBytes:    c.rovingBytes,
			CompletedBytes: c.completedBytes,
			MyBlocks:       append([]int(nil), c.myBlocks...),
		}
		for j, sl := range c.slots {
			cs.Slots[j] = SlotState{
				Block: sl.block, Loading: sl.loading, Idle: sl.idle,
				Defers: sl.defers, Pending: sl.pending,
				LoadLeft: sl.loadLeft, LoadWalks: walksOut(sl.loadWalks),
			}
		}
		s.Chips[i] = cs
	}
	s.Chans = make([]ChanState, len(e.chans))
	for i, ca := range e.chans {
		s.Chans[i] = ChanState{Tier: tierOut(&ca.tierCommon), Failover: ca.failover}
	}
	b := e.board
	bs := BoardState{
		Tier:           tierOut(&b.tierCommon),
		Ports:          make([]sim.QueueState, len(b.ports)),
		PortRR:         b.portRR,
		Caches:         make([]CacheState, len(b.caches)),
		CacheRR:        b.cacheRR,
		CompletedBytes: b.completedBytes,
	}
	for i, p := range b.ports {
		bs.Ports[i] = p.State()
	}
	for i, qc := range b.caches {
		c := CacheState{Hits: qc.hits, Misses: qc.misses}
		for j := 0; j < qc.n; j++ {
			p := qc.slot(j)
			c.Lows = append(c.Lows, qc.ranges[p].lo)
			c.Highs = append(c.Highs, qc.ranges[p].hi)
			c.Blocks = append(c.Blocks, int(qc.blockIDs[p]))
		}
		bs.Caches[i] = c
	}
	s.Board = bs
	return nil
}

// --- Restore. ---

// ResumeOptions parameterizes a resumed run; everything about the workload
// itself comes from the snapshot.
type ResumeOptions struct {
	// OnProgress is RunConfig.OnProgress for the resumed run.
	OnProgress func(Progress)
	// OnSnapshot / SnapshotEvery re-arm periodic snapshots on the resumed
	// run (a resumed job keeps checkpointing).
	OnSnapshot    func(*Snapshot)
	SnapshotEvery uint64
	// CheckpointEvery is RunConfig.CheckpointEvery; 0 uses the default.
	CheckpointEvery uint64
	// OnWalks / EmitEvery re-attach the completed-walk export (export.go).
	// The snapshot carries the finished-walk counters, so the resumed run
	// continues the finish-order sequence numbering without a gap.
	OnWalks   func([]WalkDone)
	EmitEvery uint64
}

// ResumeEngine rebuilds an engine from a snapshot over the same graph. The
// resumed engine continues the interrupted run exactly: same clock, same
// pending events (fabric transfers and a scheduled kill included), same
// walk and fault RNG positions, so its final Result is bit-identical to the
// run the snapshot was taken from.
func ResumeEngine(g *graph.Graph, snap *Snapshot, opts ResumeOptions) (*Engine, error) {
	if snap == nil {
		return nil, fmt.Errorf("core: nil snapshot: %w", errs.ErrInvalidConfig)
	}
	if g.NumVertices() != snap.GraphVertices || g.NumEdges() != snap.GraphEdges {
		return nil, fmt.Errorf("core: snapshot was taken over a graph with %d vertices / %d edges, got %d / %d: %w",
			snap.GraphVertices, snap.GraphEdges, g.NumVertices(), g.NumEdges(), errs.ErrInvalidConfig)
	}
	rc := RunConfig{
		Cfg: snap.Cfg, FlashCfg: snap.FlashCfg, DRAMCfg: snap.DRAMCfg,
		PartCfg: snap.PartCfg, Spec: snap.Spec, NumWalks: snap.NumWalks,
		MaxSimTime: snap.MaxSimTime, TrackVisits: snap.TrackVisits,
		Audit: snap.Audit, UseAliasSampling: snap.UseAliasSampling,
		Mutations:  snap.Mutations,
		OnProgress: opts.OnProgress, CheckpointEvery: opts.CheckpointEvery,
		OnSnapshot: opts.OnSnapshot, SnapshotEvery: opts.SnapshotEvery,
		OnWalks: opts.OnWalks, EmitEvery: opts.EmitEvery,
	}
	e, err := newEngine(g, rc)
	if err != nil {
		return nil, err
	}
	if err := e.restore(snap); err != nil {
		return nil, err
	}
	return e, nil
}

// restore overlays the snapshot's state onto a freshly built skeleton.
func (e *Engine) restore(snap *Snapshot) error {
	nb := len(e.boards)
	switch {
	case len(snap.Boards) != nb:
		return fmt.Errorf("core: resume: snapshot has %d boards, config has %d", len(snap.Boards), nb)
	case len(snap.FabricQ) != nb, len(snap.Egress) != nb, len(snap.Dead) != nb:
		return fmt.Errorf("core: resume: snapshot fabric state sized for %d boards, config has %d", len(snap.FabricQ), nb)
	}
	// Pending events reference node/batch/op/fabric records by index, so
	// the pools restored below must land in the exact same layout.
	target := func(id int32) (sim.Handler, error) {
		if id == targetDriver {
			return e, nil
		}
		b := int(id-1) / 2
		if id < 0 || b >= nb {
			return nil, fmt.Errorf("unknown target id %d", id)
		}
		if (id-1)%2 == 0 {
			return e.boards[b], nil
		}
		return e.boards[b].ssd, nil
	}
	if err := e.eng.ImportState(snap.Sim, target); err != nil {
		return err
	}
	// Replay, as one batch, the mutations the original run had applied
	// beyond the At == 0 prefix (which construction already applied).
	// Incremental apply is rebuild-equivalent, so the graph and every
	// derived index land in the exact state the snapshot saw. Runs before
	// the per-board res overlay, so attribution counters come from the
	// snapshot, not the replay.
	if snap.MutApplied < e.mutCursor || snap.MutApplied > len(e.muts) {
		return fmt.Errorf("core: resume: snapshot applied %d of %d mutations (prefix %d)",
			snap.MutApplied, len(e.muts), e.mutCursor)
	}
	n, err := e.applyBatch(e.muts[e.mutCursor:snap.MutApplied])
	e.mutCursor += n
	if err != nil {
		return fmt.Errorf("core: resume: replay mutation %d: %w", e.mutCursor, err)
	}
	for b, be := range e.boards {
		if err := be.restore(&snap.Boards[b], target); err != nil {
			return fmt.Errorf("core: resume board %d: %w", b, err)
		}
		e.fabric[b].Restore(snap.FabricQ[b])
		if len(snap.Egress[b]) != nb {
			return fmt.Errorf("core: resume: egress row %d has %d entries, want %d", b, len(snap.Egress[b]), nb)
		}
		for dst, es := range snap.Egress[b] {
			e.egress[b][dst] = egressBuf{walks: fwIn(es.Walks), bytes: es.Bytes}
		}
	}
	if err := e.shard.SetOwners(snap.Owners); err != nil {
		return fmt.Errorf("core: resume: %w", err)
	}
	copy(e.dead, snap.Dead)
	e.fbatches = make([]fabricBatch, len(snap.FBatches))
	for i, fb := range snap.FBatches {
		e.fbatches[i] = fabricBatch{walks: fwIn(fb.Walks), dst: fb.Dst, free: fb.Free}
	}
	e.freeFB = snap.FreeFB
	e.inFabric = snap.InFabric
	e.remaining = snap.Remaining
	e.numStarted = snap.NumWalks
	e.rootRNG.SetState(snap.RootRNG)
	e.fabricWalks = snap.FabricWalks
	e.fabricBatchCnt = snap.FabricBatches
	e.fabricBytes = snap.FabricBytes
	e.evacuated = snap.Evacuated
	e.kills = snap.Kills
	// The launch work (preload, ticks, first partitions, a scheduled kill)
	// already happened in the original run; its events are in the restored
	// heap.
	e.launched = true
	e.lastSnap = e.eng.Processed()
	// The finish sequence continues from the restored finished counts: the
	// export flushed every record below that total before the snapshot was
	// delivered.
	e.finSeq = uint64(snap.WalksFinished())
	return nil
}

// restore overlays one board's body; the caller imported the kernel.
// target resolves flash op completion targets.
func (e *boardEngine) restore(snap *BoardImage, target func(int32) (sim.Handler, error)) error {
	nb := e.part.NumBlocks()
	np := e.part.NumPartitions
	switch {
	case len(snap.PWB) != nb, len(snap.FLS) != nb, len(snap.PWBBytes) != nb,
		len(snap.FLSPages) != nb, len(snap.Score) != nb, len(snap.ScorePend) != nb:
		return fmt.Errorf("core: resume: snapshot block stores sized for %d blocks, partitioning has %d", len(snap.PWB), nb)
	case len(snap.PendingMem) != np, len(snap.PendingFlash) != np,
		len(snap.PendingFlashBytes) != np, len(snap.FlushMark) != np:
		return fmt.Errorf("core: resume: snapshot pending stores sized for %d partitions, partitioning has %d", len(snap.PendingMem), np)
	case len(snap.Chips) != len(e.chips):
		return fmt.Errorf("core: resume: snapshot has %d chips, geometry has %d", len(snap.Chips), len(e.chips))
	case len(snap.Chans) != len(e.chans):
		return fmt.Errorf("core: resume: snapshot has %d channels, geometry has %d", len(snap.Chans), len(e.chans))
	case len(snap.Board.Ports) != len(e.board.ports):
		return fmt.Errorf("core: resume: snapshot has %d table ports, config has %d", len(snap.Board.Ports), len(e.board.ports))
	case len(snap.Board.Caches) != len(e.board.caches):
		return fmt.Errorf("core: resume: snapshot has %d query caches, config has %d", len(snap.Board.Caches), len(e.board.caches))
	case (snap.Injector != nil) != (e.inj != nil):
		return fmt.Errorf("core: resume: snapshot and config disagree on fault injection")
	}

	if err := e.ssd.ImportState(snap.Flash, target); err != nil {
		return err
	}
	if err := e.dr.Restore(snap.DRAM); err != nil {
		return err
	}
	if e.inj != nil {
		e.inj.Restore(*snap.Injector)
		copy(e.degraded, snap.Injector.Degraded)
	}

	for b := 0; b < nb; b++ {
		e.pwb[b] = walksIn(snap.PWB[b])
		e.fls[b] = walksIn(snap.FLS[b])
	}
	copy(e.pwbBytes, snap.PWBBytes)
	copy(e.flsPages, snap.FLSPages)
	copy(e.score, snap.Score)
	copy(e.scorePend, snap.ScorePend)

	for p := 0; p < np; p++ {
		e.pendingMem[p] = walksIn(snap.PendingMem[p])
		e.pendingFlash[p] = walksIn(snap.PendingFlash[p])
	}
	copy(e.pendingFlashBytes, snap.PendingFlashBytes)
	copy(e.flushMark, snap.FlushMark)
	e.foreignerBufBytes = snap.ForeignerBufBytes

	e.nodes = make([]wnode, len(snap.Nodes))
	for i, ns := range snap.Nodes {
		e.nodes[i] = wnode{
			st: wsIn(ns.St), prevSize: ns.PrevSize,
			hot: ns.Hot, foreign: ns.Foreign, rangeID: ns.RangeID,
			block: ns.Block, steps: ns.Steps,
			terminal: ns.Terminal, deadEnd: ns.DeadEnd, free: ns.Free,
		}
	}
	e.freeNode = snap.FreeNode
	e.batches = make([]walkBatch, len(snap.Batches))
	for i, bs := range snap.Batches {
		e.batches[i] = walkBatch{walks: walksIn(bs.Walks), free: bs.Free}
	}
	e.freeBatch = snap.FreeBatch

	e.switchLeft = snap.SwitchLeft
	e.switchWalks = walksIn(snap.SwitchWalks)

	e.curPart = snap.CurPart
	e.activeCur = snap.ActiveCur
	e.finished = snap.Finished
	e.flushChipRR = snap.FlushChipRR

	for i := range e.blockPos {
		e.blockPos[i] = -1
	}
	for i, c := range e.chips {
		cs := &snap.Chips[i]
		if len(cs.Slots) != len(c.slots) {
			return fmt.Errorf("core: resume: chip %d has %d slots in snapshot, config has %d", i, len(cs.Slots), len(c.slots))
		}
		if err := tierIn(&c.tierCommon, cs.Tier, fmt.Sprintf("chip %d", i)); err != nil {
			return err
		}
		for j, sl := range c.slots {
			ss := &cs.Slots[j]
			sl.block = ss.Block
			sl.loading = ss.Loading
			sl.idle = ss.Idle
			sl.defers = ss.Defers
			sl.pending = ss.Pending
			sl.loadLeft = ss.LoadLeft
			sl.loadWalks = walksIn(ss.LoadWalks)
		}
		c.roving = walksIn(cs.Roving)
		c.rovingBytes = cs.RovingBytes
		c.completedBytes = cs.CompletedBytes
		c.myBlocks = append(c.myBlocks[:0], cs.MyBlocks...)
		// blockPos and the scheduler work bitmap are derived indexes:
		// rebuild them from the restored block lists and store lengths
		// (refreshBlocks would also reset slot residency, so not that).
		for pos, b := range c.myBlocks {
			e.blockPos[b] = int32(pos)
		}
		words := (len(c.myBlocks) + 63) / 64
		if cap(c.workBits) < words {
			c.workBits = make([]uint64, words)
		}
		c.workBits = c.workBits[:words]
		for w := range c.workBits {
			c.workBits[w] = 0
		}
		for pos, b := range c.myBlocks {
			if len(e.pwb[b])+len(e.fls[b]) > 0 {
				c.workBits[pos>>6] |= 1 << (uint(pos) & 63)
			}
		}
	}
	for i, ca := range e.chans {
		cs := &snap.Chans[i]
		if err := tierIn(&ca.tierCommon, cs.Tier, fmt.Sprintf("channel %d", i)); err != nil {
			return err
		}
		ca.failover = cs.Failover
	}
	b := e.board
	if err := tierIn(&b.tierCommon, snap.Board.Tier, "board"); err != nil {
		return err
	}
	for i, p := range b.ports {
		p.Restore(snap.Board.Ports[i])
	}
	b.portRR = snap.Board.PortRR
	for i, qc := range b.caches {
		cs := &snap.Board.Caches[i]
		qc.invalidate()
		for j := range cs.Lows {
			qc.insertTail(cs.Lows[j], cs.Highs[j], cs.Blocks[j])
		}
		qc.hits = cs.Hits
		qc.misses = cs.Misses
	}
	b.cacheRR = snap.Board.CacheRR
	b.completedBytes = snap.Board.CompletedBytes

	e.res = snap.Res
	e.res.Visits = append([]uint64(nil), snap.Res.Visits...)
	return nil
}
