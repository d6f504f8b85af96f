package core

import (
	"fmt"
	"slices"

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
// every buffer and queue booking, the pooled batch/op records the pending
// events reference, the fault injector's stream position — and the
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
//
// Walks travel packed (WalkRecords) and the batch pools live-only
// (PoolImage); walkpack.go holds both codecs. A pending event that carries a
// walk names it by its position in its board's Held run: export renames
// the event's table index, and restore files Held first, so the position
// is the walk's new index and the event restores as it was written.

// Event-target IDs for the kernel and flash export: the driver is 0 (its
// fabric arrivals and kill events), and board b's engine and SSD are 1+2b
// and 2+2b.
const targetDriver int32 = 0

func targetBoard(b int) int32 { return int32(1 + 2*b) }
func targetSSD(b int) int32   { return int32(2 + 2*b) }

// SlotState is one chip subgraph slot.
type SlotState struct {
	Block     int
	Loading   bool
	Idle      bool
	Defers    int
	LoadLeft  int
	LoadWalks WalkRecords
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
	Roving         WalkRecords
	CompletedBytes int64
}

// ChanState is one channel-level accelerator.
type ChanState struct {
	Tier     TierState
	Failover bool
}

// CacheState is one walk query cache's LRU contents (front = most recent).
type CacheState struct {
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
	PWB       []WalkRecords
	FLS       []WalkRecords
	FLSPages  []int
	Score     []float64
	ScorePend []int

	// Per-partition pending walks and the foreigner buffer.
	PendingMem        []WalkRecords
	PendingFlash      []WalkRecords
	PendingFlashBytes []int64
	FlushMark         []int
	ForeignerBufBytes int64

	// Held packs the walks this board's pending events carry, in the
	// kernel's export order; each such event's A is its walk's position
	// here. Batches pools the roving batches pending events reference.
	Held    WalkRecords
	Batches PoolImage

	// Flushed-foreigner read-back in flight.
	SwitchLeft  int
	SwitchWalks WalkRecords

	CurPart   int
	ActiveCur int
	Finished  bool

	FlushChipRR int

	Chips []ChipState
	Chans []ChanState
	Board BoardState // the board-level accelerator

	Res Result
}

// EgressState is one (source, destination) egress batch being accumulated;
// Walks holds fabric walk records.
type EgressState struct {
	Walks WalkRecords
	Bytes int64
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
	FBatches  PoolImage
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

// poolOut exports a unit pool as one QueueState per unit carrying only its
// BusyUntil: idle units first as 0, then the busy units ascending. Units
// are interchangeable, so this multiset is the pool's whole timing state.
func poolOut(p *unitPool) UnitPoolState {
	st := UnitPoolState{Units: make([]sim.QueueState, p.units), Jobs: p.jobs, Busy: p.busy}
	busy := slices.Clone(p.until)
	slices.Sort(busy)
	for i, t := range busy {
		st.Units[p.idle+i].BusyUntil = t
	}
	return st
}

// poolIn restores a pool from its units' BusyUntil values in any order (an
// image written when every unit was a queue lists them by unit, with
// per-unit counters this model no longer keeps). A unit free at 0 is idle;
// one that freed later but before the cut stays in the heap until the next
// dispatch drains it, which starts a job at max(now, busy-until) either way.
func poolIn(p *unitPool, st UnitPoolState, what string) error {
	if len(st.Units) != p.units {
		return fmt.Errorf("core: resume: %s has %d units, snapshot has %d", what, p.units, len(st.Units))
	}
	p.idle, p.until = 0, p.until[:0]
	for _, u := range st.Units {
		switch {
		case u.BusyUntil < 0:
			return fmt.Errorf("core: resume: %s unit busy until %d", what, u.BusyUntil)
		case u.BusyUntil == 0:
			p.idle++
		default:
			p.until = append(p.until, u.BusyUntil)
		}
	}
	slices.Sort(p.until) // an ascending slice is a min-heap
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
		part := t.e.part
		seen := make(map[int]bool, len(st.HotIDs))
		for _, id := range st.HotIDs {
			if id < 0 || id >= part.NumBlocks() || part.Blocks[id].Dense || seen[id] {
				return fmt.Errorf("core: resume: %s hot block %d is out of range, dense or repeated", what, id)
			}
			seen[id] = true
		}
		t.SetHotBlocks(st.HotIDs)
	}
	// hotPending is counted from the pending evHotLoaded events
	// (checkEvent) and compared with st.HotPending (checkHotPending).
	t.hotReady = st.HotReady
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
	// Every unfinished walk is in exactly one store, pooled record or
	// pending event.
	p := &packer{buf: make([]byte, 0, 48*e.remaining+4096)}
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
		InFabric:  e.inFabric,
		Remaining: e.remaining,

		FabricWalks:   e.fabricWalks,
		FabricBatches: e.fabricBatchCnt,
		FabricBytes:   e.fabricBytes,
		Evacuated:     e.evacuated,
		Kills:         e.kills,
	}
	for b, be := range e.boards {
		if err := be.image(&s.Boards[b], targetID, p); err != nil {
			return nil, fmt.Errorf("core: snapshot board %d: %w", b, err)
		}
		s.FabricQ = append(s.FabricQ, e.fabric[b].State())
		row := make([]EgressState, len(e.egress[b]))
		for dst, eb := range e.egress[b] {
			row[dst] = EgressState{Walks: p.fabricWalks(eb.walks), Bytes: eb.bytes}
		}
		s.Egress = append(s.Egress, row)
	}
	var err error
	if s.FBatches, err = p.pool(len(e.fbatches), e.freeFB,
		func(i int32) int32 { return e.fbatches[i].free },
		func(b []byte, i int32) []byte { return appendFabricBatch(b, &e.fbatches[i]) }); err != nil {
		return nil, err
	}
	simState, err := e.eng.ExportState(targetID)
	if err != nil {
		return nil, err
	}
	// An event carries its walk by table index; the image names the walk by
	// its position in the board's Held run instead.
	held := make([][]int32, len(e.boards))
	for i := range simState.Events {
		ev := &simState.Events[i]
		if b := int(ev.Target-1) / 2; ev.Target == targetBoard(b) && eventPayload[ev.Kind]&payWalk != 0 {
			held[b] = append(held[b], ev.A)
			ev.A = int32(len(held[b]) - 1)
		}
	}
	for b, be := range e.boards {
		s.Boards[b].Held = p.walks(be.wtab, held[b])
	}
	s.Sim = simState
	return s, nil
}

// image captures one board's body into s, packing its walks with p; the
// caller exports the shared kernel. targetID also maps flash op
// completions, which reference engine and SSD targets.
func (e *boardEngine) image(s *BoardImage, targetID func(sim.Handler) (int32, error), p *packer) error {
	flashState, err := e.ssd.ExportState(targetID)
	if err != nil {
		return err
	}

	*s = BoardImage{
		Flash: flashState,
		DRAM:  e.dr.State(),

		FLSPages:  append([]int(nil), e.flsPages...),
		Score:     append([]float64(nil), e.score...),
		ScorePend: append([]int(nil), e.scorePend...),

		PendingFlashBytes: append([]int64(nil), e.pendingFlashBytes...),
		FlushMark:         append([]int(nil), e.flushMark...),
		ForeignerBufBytes: e.foreignerBufBytes,

		SwitchLeft:  e.switchLeft,
		SwitchWalks: p.walks(e.wtab, e.switchWalks),

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

	s.PWB = make([]WalkRecords, len(e.pwb))
	s.FLS = make([]WalkRecords, len(e.fls))
	for b := range e.pwb {
		s.PWB[b] = p.walks(e.wtab, e.pwb[b])
		s.FLS[b] = p.walks(e.wtab, e.fls[b])
	}
	s.PendingMem = make([]WalkRecords, len(e.pendingMem))
	s.PendingFlash = make([]WalkRecords, len(e.pendingFlash))
	for i := range e.pendingMem {
		s.PendingMem[i] = p.walks(e.wtab, e.pendingMem[i])
		s.PendingFlash[i] = p.walks(e.wtab, e.pendingFlash[i])
	}

	if s.Batches, err = p.pool(len(e.batches), e.freeBatch,
		func(i int32) int32 { return e.batches[i].free },
		func(b []byte, i int32) []byte { return appendWalks(b, e.wtab, e.batches[i].walks) }); err != nil {
		return err
	}

	s.Chips = make([]ChipState, len(e.chips))
	for i, c := range e.chips {
		cs := ChipState{
			Tier:           tierOut(&c.tierCommon),
			Slots:          make([]SlotState, len(c.slots)),
			Roving:         p.walks(e.wtab, c.roving),
			CompletedBytes: c.completedBytes,
		}
		for j, sl := range c.slots {
			cs.Slots[j] = SlotState{
				Block: sl.block, Loading: sl.loading, Idle: sl.idle, Defers: sl.defers,
				LoadLeft: sl.loadLeft, LoadWalks: p.walks(e.wtab, sl.loadWalks),
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
		bs.Caches[i] = CacheState{Blocks: qc.blocks(nil), Hits: qc.hits, Misses: qc.misses}
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
	// Pending events reference batch/op/fabric records by index, so the
	// pools restored below must land in the exact same layout.
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
	var u unpacker
	held := make([]int, nb)
	for b, be := range e.boards {
		// The walks pending events carry go first, into the board's empty
		// table, so each lands at the index its event names.
		hu := unpacker{be: be}
		if held[b] = len(hu.walks(snap.Boards[b].Held)); hu.err != nil {
			return fmt.Errorf("core: resume board %d carried walks: %w", b, hu.err)
		}
		if err := be.restore(&snap.Boards[b], target); err != nil {
			return fmt.Errorf("core: resume board %d: %w", b, err)
		}
		e.fabric[b].Restore(snap.FabricQ[b])
		if len(snap.Egress[b]) != nb {
			return fmt.Errorf("core: resume: egress row %d has %d entries, want %d", b, len(snap.Egress[b]), nb)
		}
		for dst, es := range snap.Egress[b] {
			e.egress[b][dst] = egressBuf{walks: u.fabricWalks(es.Walks), bytes: es.Bytes}
		}
	}
	if u.err != nil {
		return fmt.Errorf("core: resume egress: %w", u.err)
	}
	if err := e.shard.SetOwners(snap.Owners); err != nil {
		return fmt.Errorf("core: resume: %w", err)
	}
	copy(e.dead, snap.Dead)
	if e.freeFB, err = snap.FBatches.load(minFBatchBytes,
		func(n int) { e.fbatches = make([]fabricBatch, n) },
		func(i, next int32) { e.fbatches[i].free = next },
		func(i int32, r *recReader) { e.fbatches[i] = r.fabricBatch() }); err != nil {
		return fmt.Errorf("core: resume fabric transfers: %w", err)
	}
	carried, err := e.checkEvents(snap, held)
	if err != nil {
		return fmt.Errorf("core: resume: %w", err)
	}
	if err := e.checkWalks(carried); err != nil {
		return fmt.Errorf("core: resume: %w", err)
	}
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

// restore overlays one board's body; the caller imported the kernel and
// filed the carried walks. target resolves flash op completion targets.
func (e *boardEngine) restore(snap *BoardImage, target func(int32) (sim.Handler, error)) error {
	nb := e.part.NumBlocks()
	np := e.part.NumPartitions
	switch {
	case len(snap.PWB) != nb, len(snap.FLS) != nb, len(snap.FLSPages) != nb,
		len(snap.Score) != nb, len(snap.ScorePend) != nb:
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
	case snap.CurPart < -1 || snap.CurPart >= np:
		return fmt.Errorf("core: resume: current partition %d outside [-1, %d)", snap.CurPart, np)
	case snap.FlushChipRR < 0 || snap.FlushChipRR >= e.ssd.NumChips():
		return fmt.Errorf("core: resume: flush chip cursor %d outside [0, %d)", snap.FlushChipRR, e.ssd.NumChips())
	case len(snap.Res.Visits) != len(e.res.Visits):
		return fmt.Errorf("core: resume: %d visit counters, the run keeps %d", len(snap.Res.Visits), len(e.res.Visits))
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

	// Every decoded walk is filed in this board's table; the stores and
	// pools get fresh indices after the carried walks.
	u := unpacker{be: e}
	for b := 0; b < nb; b++ {
		e.pwb[b] = u.walks(snap.PWB[b])
		e.pwbBytes[b] = e.storeBytes(e.pwb[b])
		e.fls[b] = u.walks(snap.FLS[b])
		// Overflows add pages with at least one walk and a claim of the
		// whole store zeroes them, so an empty store holds no pages. A
		// partial claim debits pages by walk count and can leave fewer
		// than the remaining walks fill (even none), so that is no bound.
		switch pages := snap.FLSPages[b]; {
		case pages < 0, pages > 0 && len(e.fls[b]) == 0:
			return fmt.Errorf("core: resume: block %d flash walk store holds %d walks on %d pages", b, len(e.fls[b]), pages)
		case snap.ScorePend[b] < 0:
			return fmt.Errorf("core: resume: block %d score has %d pending inserts", b, snap.ScorePend[b])
		}
	}
	copy(e.flsPages, snap.FLSPages)
	copy(e.score, snap.Score)
	copy(e.scorePend, snap.ScorePend)

	for p := 0; p < np; p++ {
		e.pendingMem[p] = u.walks(snap.PendingMem[p])
		e.pendingFlash[p] = u.walks(snap.PendingFlash[p])
	}
	copy(e.pendingFlashBytes, snap.PendingFlashBytes)
	copy(e.flushMark, snap.FlushMark)
	e.foreignerBufBytes = snap.ForeignerBufBytes

	var err error
	if e.freeBatch, err = snap.Batches.load(minBatchBytes,
		func(n int) { e.batches = make([]walkBatch, n) },
		func(i, next int32) { e.batches[i].free = next },
		func(i int32, r *recReader) { e.batches[i] = walkBatch{walks: r.walks(e), free: -1} }); err != nil {
		return fmt.Errorf("core: resume roving batches: %w", err)
	}

	e.switchLeft = snap.SwitchLeft
	e.switchWalks = u.walks(snap.SwitchWalks)

	e.curPart = snap.CurPart
	e.activeCur = snap.ActiveCur
	e.finished = snap.Finished
	e.flushChipRR = snap.FlushChipRR

	for i, c := range e.chips {
		cs := &snap.Chips[i]
		if len(cs.Slots) != len(c.slots) {
			return fmt.Errorf("core: resume: chip %d has %d slots in snapshot, config has %d", i, len(cs.Slots), len(c.slots))
		}
		if err := tierIn(&c.tierCommon, cs.Tier, fmt.Sprintf("chip %d", i)); err != nil {
			return err
		}
		// A slot's pending count is its pending update completions, which
		// checkEvents counts.
		for j, sl := range c.slots {
			ss := &cs.Slots[j]
			switch {
			case ss.Block < -1 || ss.Block >= nb:
				return fmt.Errorf("core: resume: chip %d slot %d holds block %d outside [-1, %d)", i, j, ss.Block, nb)
			case ss.Defers < 0 || ss.Defers > maxLoadDefers:
				return fmt.Errorf("core: resume: chip %d slot %d deferred %d loads, outside [0, %d]", i, j, ss.Defers, maxLoadDefers)
			}
			sl.block = ss.Block
			sl.loading = ss.Loading
			sl.idle = ss.Idle
			sl.defers = ss.Defers
			sl.loadLeft = ss.LoadLeft
			sl.loadWalks = u.walks(ss.LoadWalks)
		}
		c.roving = u.walks(cs.Roving)
		c.rovingBytes = e.storeBytes(c.roving)
		// A completed-walk buffer is flushed as soon as it reaches its
		// threshold.
		if cs.CompletedBytes < 0 || cs.CompletedBytes >= e.cfg.ChipCompletedBufBytes {
			return fmt.Errorf("core: resume: chip %d completed-walk buffer holds %d bytes, outside [0, %d)",
				i, cs.CompletedBytes, e.cfg.ChipCompletedBufBytes)
		}
		c.completedBytes = cs.CompletedBytes
		// The block list, blockPos and the work bitmap follow from the
		// restored partition and stores (refreshBlocks would also reset
		// slot residency, so not that).
		c.deriveBlocks()
	}
	cpc := e.ssd.Cfg.ChipsPerChannel
	for i, ca := range e.chans {
		cs := &snap.Chans[i]
		if err := tierIn(&ca.tierCommon, cs.Tier, fmt.Sprintf("channel %d", i)); err != nil {
			return err
		}
		// Only a chip's degradation fails its channel over, and it stays
		// degraded.
		if cs.Failover && (e.degraded == nil || !slices.Contains(e.degraded[i*cpc:(i+1)*cpc], true)) {
			return fmt.Errorf("core: resume: channel %d failed over with no degraded chip", i)
		}
		ca.failover = cs.Failover
	}
	b := e.board
	if err := tierIn(&b.tierCommon, snap.Board.Tier, "board"); err != nil {
		return err
	}
	if err := e.checkBoardState(&snap.Board); err != nil {
		return err
	}
	for i, p := range b.ports {
		p.Restore(snap.Board.Ports[i])
	}
	b.portRR = snap.Board.PortRR
	first, _ := e.part.PartitionSpan(max(e.curPart, 0))
	for i, qc := range b.caches {
		cs := &snap.Board.Caches[i]
		qc.reset(first)
		for _, id := range cs.Blocks {
			qc.insertTail(id)
		}
		qc.hits = cs.Hits
		qc.misses = cs.Misses
	}
	b.cacheRR = snap.Board.CacheRR
	b.completedBytes = snap.Board.CompletedBytes

	if u.err != nil {
		return fmt.Errorf("core: resume walk stores: %w", u.err)
	}
	e.res = snap.Res
	e.res.Visits = append([]uint64(nil), snap.Res.Visits...)
	return nil
}

// claims counts the pending events and op completions that name each
// record of a restored pool or carried-walk run. A free record starts at
// -1, so a claim on it fails like a second claim on a live one.
type claims []int8

// retiring marks a carried walk claimed by an update completion whose hop
// finished it.
const retiring = 2

func newClaims(img *PoolImage) claims {
	c := make(claims, img.Len)
	for _, i := range img.Free {
		c[i] = -1
	}
	return c
}

func (c claims) claim(ref int32, what string) error {
	if ref < 0 || int(ref) >= len(c) {
		return fmt.Errorf("%s %d outside [0, %d)", what, ref, len(c))
	}
	if c[ref] != 0 {
		return fmt.Errorf("%s %d is free or claimed twice", what, ref)
	}
	c[ref] = 1
	return nil
}

// unclaimed fails on a live record no event names: it would never be
// consumed, and the walk it holds would never finish.
func (c claims) unclaimed(what string) error {
	for i, n := range c {
		if n == 0 {
			return fmt.Errorf("live %s %d is named by no pending event", what, i)
		}
	}
	return nil
}

// checkEvents validates every imported pending event and every live flash
// op's completion against its target's kind space, once every pool is
// restored: the kind is known, chip, channel, tier, slot and board indices
// are in range, the routing scratch names partitions, blocks and ranges
// that exist, and carried-walk, roving-batch, fabric-transfer and flash-op
// references are live. Each of a board's held[b] carried walks, roving
// batches and fabric transfers must be named by exactly one event or
// completion — a second one would hand two tiers the same walk. A hostile
// image is an error here rather than a panic or a walk that never finishes
// once the run resumes. The pass also counts each chip slot's pending
// updates and each tier's pending hot blocks, which must match the image's
// count, and returns each board's carried-walk claims for checkWalks.
func (e *Engine) checkEvents(snap *Snapshot, held []int) ([]claims, error) {
	nb := len(e.boards)
	carried, batches := make([]claims, nb), make([]claims, nb)
	for b := range e.boards {
		carried[b] = make(claims, held[b])
		batches[b] = newClaims(&snap.Boards[b].Batches)
	}
	fbatches := newClaims(&snap.FBatches)
	// check validates an event aimed at the driver or a board; restore has
	// already resolved every target ID.
	check := func(target int32, kind uint16, a, b int32, c int64) error {
		if target == targetDriver {
			switch kind {
			case evFabricArrive:
				return fbatches.claim(a, "fabric transfer")
			case evBoardKill:
				if b < 0 || int(b) >= nb {
					return fmt.Errorf("board kill names board %d of %d", b, nb)
				}
				return nil
			}
			return fmt.Errorf("unknown driver event kind %d", kind)
		}
		if bd := int(target-1) / 2; target == targetBoard(bd) {
			return e.boards[bd].checkEvent(kind, a, b, c, carried[bd], batches[bd])
		}
		return fmt.Errorf("completion kind %d aimed at an SSD", kind)
	}
	ssdEvents := make([][]sim.SavedEvent, nb)
	for _, ev := range snap.Sim.Events {
		if b := int(ev.Target-1) / 2; ev.Target == targetSSD(b) {
			ssdEvents[b] = append(ssdEvents[b], ev)
			continue
		}
		if err := check(ev.Target, ev.Kind, ev.A, ev.B, ev.C); err != nil {
			return nil, fmt.Errorf("pending event at %v: %w", ev.At, err)
		}
	}
	for b, be := range e.boards {
		if err := be.ssd.CheckPending(ssdEvents[b]); err != nil {
			return nil, fmt.Errorf("board %d: %w", b, err)
		}
		for i, op := range snap.Boards[b].Flash.Ops {
			if op.Remaining == 0 || !op.HasDone {
				continue
			}
			d := op.Done
			if err := check(d.Target, d.Kind, d.A, d.B, d.C); err != nil {
				return nil, fmt.Errorf("board %d flash op %d completion: %w", b, i, err)
			}
		}
	}
	for b, be := range e.boards {
		if err := be.checkHotPending(&snap.Boards[b]); err != nil {
			return nil, fmt.Errorf("board %d: %w", b, err)
		}
		if err := carried[b].unclaimed("carried walk"); err != nil {
			return nil, fmt.Errorf("board %d: %w", b, err)
		}
		if err := batches[b].unclaimed("roving batch"); err != nil {
			return nil, fmt.Errorf("board %d: %w", b, err)
		}
	}
	return carried, fbatches.unclaimed("fabric transfer")
}

// checkHotPending compares each tier's HotPending in img with the pending
// evHotLoaded events checkEvent counted for it. Chips preload nothing.
func (e *boardEngine) checkHotPending(img *BoardImage) error {
	check := func(t *tierCommon, st *TierState, what string) error {
		if t.hotPending != st.HotPending {
			return fmt.Errorf("%s has %d hot blocks pending, %d preload completions are", what, st.HotPending, t.hotPending)
		}
		return nil
	}
	if err := check(&e.board.tierCommon, &img.Board.Tier, "the board tier"); err != nil {
		return err
	}
	for i, ca := range e.chans {
		if err := check(&ca.tierCommon, &img.Chans[i].Tier, fmt.Sprintf("channel %d", i)); err != nil {
			return err
		}
	}
	for i, c := range e.chips {
		if err := check(&c.tierCommon, &img.Chips[i].Tier, fmt.Sprintf("chip %d", i)); err != nil {
			return err
		}
	}
	return nil
}

// checkWalks range-checks every restored walk against what its readers
// index: the graph's vertices, the partitioning's dense blocks and ranges,
// and the hop budget. The packed codec knows no graph, so a walk value no
// run could hold is refused here rather than indexing out of range or
// silently changing the run once it resumes. Restore files every decoded
// walk in a fresh table, so every table entry is live, and the carried
// walks first, so carried[b] (checkEvents) covers board b's leading
// entries.
func (e *Engine) checkWalks(carried []claims) error {
	for b, be := range e.boards {
		for i := range be.wtab {
			// A walk whose update completion is pending with the terminal
			// flag has taken its last hop.
			done := i < len(carried[b]) && carried[b][i] == retiring
			if err := be.checkWalk(&be.wtab[i], done); err != nil {
				return fmt.Errorf("board %d walk %d: %w", b, i, err)
			}
		}
	}
	// Every board shares the graph, partitioning and spec, so the first
	// checks the walks on the fabric.
	be := e.boards[0]
	for src, row := range e.egress {
		for dst := range row {
			for i := range row[dst].walks {
				if err := be.checkWalk(&row[dst].walks[i].st, false); err != nil {
					return fmt.Errorf("egress %d to %d walk %d: %w", src, dst, i, err)
				}
			}
		}
	}
	for j := range e.fbatches {
		for i := range e.fbatches[j].walks {
			if err := be.checkWalk(&e.fbatches[j].walks[i].st, false); err != nil {
				return fmt.Errorf("fabric transfer %d walk %d: %w", j, i, err)
			}
		}
	}
	return nil
}

// checkWalk checks one walk; terminal reports that it has taken its last
// hop, the one state in which no hops may be left.
func (e *boardEngine) checkWalk(st *wstate, terminal bool) error {
	nv := e.g.NumVertices()
	switch {
	case st.w.Src >= nv, st.w.Cur >= nv:
		return fmt.Errorf("walk from vertex %d at vertex %d, graph has %d", st.w.Src, st.w.Cur, nv)
	case st.prev != noPrev && st.prev >= nv:
		return fmt.Errorf("previous vertex %d, graph has %d", st.prev, nv)
	case st.w.Hop > e.spec.Length, st.w.Hop == 0 && !terminal:
		return fmt.Errorf("%d hops left of %d", st.w.Hop, e.spec.Length)
	case st.denseBlock < -1 || st.denseBlock >= e.part.NumBlocks(),
		st.denseBlock >= 0 && !e.part.Blocks[st.denseBlock].Dense:
		return fmt.Errorf("dense block %d is not a dense block", st.denseBlock)
	case st.denseBlock >= 0 && st.denseEdge >= e.g.OutDegree(st.w.Cur):
		return fmt.Errorf("dense edge %d of vertex %d, which has %d", st.denseEdge, st.w.Cur, e.g.OutDegree(st.w.Cur))
	case st.rangeTag < -1 || st.rangeTag >= len(e.part.Ranges):
		return fmt.Errorf("range tag %d outside [-1, %d)", st.rangeTag, len(e.part.Ranges))
	}
	return nil
}

// checkEvent validates one event or op completion aimed at this board
// against its kind's payload (eventPayload), claiming the carried walk or
// roving batch it names. It counts each chip update completion against its
// slot's pending walks, and each preload completion against its tier's
// pending hot blocks.
func (e *boardEngine) checkEvent(kind uint16, a, b int32, c int64, carried, batches claims) error {
	if int(kind) >= len(eventPayload) {
		return fmt.Errorf("unknown board event kind %d", kind)
	}
	p := eventPayload[kind]
	lo, hi := splitC(c)
	switch {
	case p&(payChip|paySlot) != 0 && (b < 0 || int(b) >= len(e.chips)):
		return fmt.Errorf("event kind %d names chip %d of %d", kind, b, len(e.chips))
	case p&paySlot != 0 && (lo < 0 || int(lo) >= len(e.chips[b].slots)):
		return fmt.Errorf("event kind %d names slot %d of %d", kind, lo, len(e.chips[b].slots))
	case p&payChan != 0 && (b < 0 || int(b) >= len(e.chans)),
		p&payTier != 0 && (b < -1 || int(b) >= len(e.chans)):
		return fmt.Errorf("event kind %d names channel %d of %d", kind, b, len(e.chans))
	case p&payBytes != 0 && lo != walk.StateBytes && lo != walk.DenseStateBytes:
		return fmt.Errorf("tier update claimed %d queue bytes, not a walk record", lo)
	case p&payHop != 0 && hi&^(hopTerminal|hopDeadEnd) != 0:
		return fmt.Errorf("update completion carries unknown hop flags %#x", hi)
	case p&payBoardRoute != 0 && (b < 0 || lo < -1 || int(lo) >= e.part.NumBlocks() ||
		hi < -1 || int(hi) >= e.part.NumPartitions):
		return fmt.Errorf("board guide routes to block %d, partition %d in %d steps", lo, hi, b)
	case p&payChanRoute != 0 && (lo < -1 || int(lo) >= len(e.part.Ranges) ||
		hi < -1 || int(hi) >= e.part.NumPartitions):
		return fmt.Errorf("channel guide tags range %d, partition %d", lo, hi)
	case p&payBatch != 0:
		return batches.claim(a, "roving batch")
	case p&payWalk != 0:
		if err := carried.claim(a, "carried walk"); err != nil {
			return err
		}
		if p&payHop != 0 && hi&hopTerminal != 0 {
			carried[a] = retiring
		}
		if kind == evChipUpdateDone {
			e.chips[b].slots[lo].pending++
		}
	}
	if kind == evHotLoaded {
		e.tier(b).hotPending++
	}
	return nil
}

// checkBoardState rejects a board-accelerator image the router could not
// run from: round-robin cursors outside their rings, negative port
// bookings, a completed-walk buffer past its flush threshold, and
// query-cache contents no miss sequence could have produced.
// The O(1) cache probe relies on the last: each entry is a distinct
// non-dense block of the current partition. The caller has restored
// curPart.
func (e *boardEngine) checkBoardState(bs *BoardState) error {
	b := e.board
	first, last := e.part.PartitionSpan(max(e.curPart, 0))
	if e.curPart < 0 {
		last = first - 1 // no partition started: the caches are empty
	}
	switch {
	case bs.PortRR < 0 || bs.PortRR >= len(b.ports):
		return fmt.Errorf("core: resume: table port cursor %d outside [0, %d)", bs.PortRR, len(b.ports))
	case bs.CacheRR < 0 || bs.CacheRR >= max(len(b.caches), 1):
		return fmt.Errorf("core: resume: query cache cursor %d outside [0, %d)", bs.CacheRR, len(b.caches))
	case bs.CompletedBytes < 0 || bs.CompletedBytes >= e.cfg.CompletedBufBytes:
		return fmt.Errorf("core: resume: completed-walk buffer holds %d bytes, outside [0, %d)", bs.CompletedBytes, e.cfg.CompletedBufBytes)
	}
	for i, p := range bs.Ports {
		if p.BusyUntil < 0 {
			return fmt.Errorf("core: resume: table port %d busy until %d", i, p.BusyUntil)
		}
	}
	seen := make(map[int]bool)
	for i := range bs.Caches {
		cs := &bs.Caches[i]
		if n := len(cs.Blocks); n > b.caches[i].capacity {
			return fmt.Errorf("core: resume: query cache %d holds %d entries, capacity %d", i, n, b.caches[i].capacity)
		}
		clear(seen)
		for j, id := range cs.Blocks {
			if id < first || id > last {
				return fmt.Errorf("core: resume: query cache %d entry %d: block %d outside partition %d", i, j, id, e.curPart)
			}
			switch {
			case e.part.Blocks[id].Dense:
				return fmt.Errorf("core: resume: query cache %d entry %d: block %d is dense", i, j, id)
			case seen[id]:
				return fmt.Errorf("core: resume: query cache %d entry %d: block %d cached twice", i, j, id)
			}
			seen[id] = true
		}
	}
	return nil
}
