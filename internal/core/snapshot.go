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
// every buffer and queue booking, the flash op records, the fault
// injector's stream position — and the inter-board fabric (link bookings
// and egress batches).
// ResumeEngine rebuilds the engine skeleton from the identity section (the
// original RunConfig inputs) and overlays the captured state; because the
// walk trajectories are timing-independent (per-walk RNG streams) AND the
// kernel restore preserves exact (time, seq) event order, a resumed run's
// Result is bit-identical to the uninterrupted run — the invariant
// TestResumeMetamorphic proves against the golden digest.
//
// Every pending event and every flash op completion is a typed record, so a
// snapshot can be taken at any checkpoint from event zero on — in the middle
// of the time-0 hot-subgraph preload too (its pending completions are the
// blocks still in flight). What is NOT captured: progress time series and
// tracers, which RunConfig.validate therefore refuses beside OnSnapshot.
//
// The image holds no count that the rest of it records: resume derives
// each from the pending events or the restored stores (DESIGN §10.1).
//
// Walks travel packed (WalkRecords, walkpack.go). A saved event names no
// walk-table, batch or transfer index: every pending kernel event and live
// flash op completion whose kind names a walk (payWalk), a roving batch
// (payBatch) or a fabric transfer (evFabricArrive) carries that record,
// and export writes its A as 0. The records go in one packed stream,
// Snapshot.Carried, in the order the image lists the carrying events:
// Sim.Events, then each board's live flash op completions in op order.
// Restore reads the stream back in that order, files each record in a
// fresh table, batch or transfer slot and points the event's A at it. The
// flash op pool is the one pool an image indexes, because several part
// events share one op. No record names another, so one identity covers
// the walks: those filed in the tables plus those on the fabric number
// NumWalks - WalksFinished().

// Handler IDs: the indices of the engine's handlers in the kernel's table,
// which events and flash op completions name them by. The driver is 0 (its
// fabric arrivals and kill events), and board b's engine and SSD are 1+2b
// and 2+2b; newEngine registers them in that order.
const targetDriver int32 = 0

func targetBoard(b int) int32 { return int32(1 + 2*b) }
func targetSSD(b int) int32   { return int32(2 + 2*b) }

// SlotState is one chip subgraph slot.
type SlotState struct {
	Block     int
	Idle      bool
	Defers    int
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
	Updater UnitPoolState
	Guider  UnitPoolState
	HotIDs  []int
	HotNil  bool
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

// BoardImage is one board's share of a Snapshot: its devices, walk stores
// and accelerator tiers.
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

	// Per-partition pending walks; PendingMem[p][FlushMark[p]:] sit in the
	// foreigner buffer.
	PendingMem   []WalkRecords
	PendingFlash []WalkRecords
	FlushMark    []int

	// Flushed-foreigner read-back in flight.
	SwitchWalks WalkRecords

	CurPart     int
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
	TrackVisits      bool
	Audit            bool
	UseAliasSampling bool
	// GraphVertices/GraphEdges are the shared graph's counts, which
	// mutations never change: a resumed run is handed that graph and
	// replays the stream's applied prefix onto a fresh overlay.
	GraphVertices uint64
	GraphEdges    uint64
	// Mutations is the run's full mutation stream; MutApplied is how many
	// of them had been applied when the snapshot was taken. ResumeEngine
	// re-applies mutations [0, MutApplied) to a fresh overlay before
	// overlaying state, and the applier hook resumes from the cursor.
	Mutations  graph.MutationStream
	MutApplied int

	// Sim is the shared event kernel; RootRNG the run seed's stream, from
	// which every walk's private stream was derived.
	Sim     sim.EngineState
	RootRNG [4]uint64
	// Carried packs the records the carrying events name, in the order the
	// image lists them (see above).
	Carried []byte

	// Boards holds one body per board, indexed by board.
	Boards []BoardImage

	// Fabric state: shard ownership, device liveness, per-link bookings
	// and egress batches. The transfers in flight are the records the
	// pending evFabricArrive events carry.
	Owners  []int32
	Dead    []bool
	FabricQ []sim.QueueState
	Egress  [][]EgressState

	FabricWalks   uint64
	FabricBatches uint64
	FabricBytes   int64
	Evacuated     uint64
	Kills         uint64
}

// Preloading reports whether the snapshot was cut while some tier's time-0
// hot-subgraph preload was still in flight: a preload completion
// (evHotLoaded) is pending, as a kernel event or a live flash op's. Such a
// cut precedes every walk-store change.
func (s *Snapshot) Preloading() bool {
	for _, ev := range s.Sim.Events {
		if ev.Kind == evHotLoaded && ev.Target == targetBoard(int(ev.Target-1)/2) {
			return true
		}
	}
	for b := range s.Boards {
		for _, op := range s.Boards[b].Flash.Ops {
			if op.Remaining > 0 && op.Done.Kind == evHotLoaded && op.Done.Target == targetBoard(b) {
				return true
			}
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
		Updater: poolOut(t.updater),
		Guider:  poolOut(t.guider),
		HotIDs:  t.hot.ids(),
		HotNil:  t.hot == nil,
	}
}

func tierIn(t *tierCommon, st TierState, what string) error {
	if err := poolIn(t.updater, st.Updater, what+" updater"); err != nil {
		return err
	}
	if err := poolIn(t.guider, st.Guider, what+" guider"); err != nil {
		return err
	}
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
	// The queue bytes and the preload's pending blocks are counted from
	// the pending events (checkEvent), and readiness follows from the
	// latter (derivePending).
	return nil
}

// --- Export. ---

// buildSnapshot captures the engine's complete state. It is safe only
// strictly between simulated events (the checkpoint hook) of a run that has
// not failed. It fails only when a pending event or flash op completion
// targets a handler outside the engine, which no restore could resolve.
func (e *Engine) buildSnapshot() (*Snapshot, error) {
	b0 := e.boards[0]
	// Every unfinished walk is in exactly one store or pending event.
	p := &packer{buf: make([]byte, 0, 48*e.remaining+4096)}
	s := &Snapshot{
		Cfg:              e.cfg,
		FlashCfg:         b0.ssd.Cfg,
		DRAMCfg:          b0.dr.Cfg,
		PartCfg:          e.part.Cfg,
		Spec:             b0.spec,
		NumWalks:         e.numStarted,
		TrackVisits:      b0.res.Visits != nil,
		Audit:            e.audit,
		UseAliasSampling: e.alias != nil,
		GraphVertices:    e.g.NumVertices(),
		GraphEdges:       e.g.NumEdges(),
		Mutations:        e.muts,
		MutApplied:       e.mutCursor,

		Sim:     e.eng.ExportState(),
		RootRNG: e.rootRNG.State(),
		Boards:  make([]BoardImage, len(e.boards)),

		Owners: e.shard.Owners(),
		Dead:   append([]bool(nil), e.dead...),

		FabricWalks:   e.fabricWalks,
		FabricBatches: e.fabricBatchCnt,
		FabricBytes:   e.fabricBytes,
		Evacuated:     e.evacuated,
		Kills:         e.kills,
	}
	// The carried records go first, as one window of the arena.
	flashStates := make([]flash.State, len(e.boards))
	for b, be := range e.boards {
		flashStates[b] = be.ssd.ExportState()
	}
	start := len(p.buf)
	var err error
	for i := range s.Sim.Events {
		ev := &s.Sim.Events[i]
		if p.buf, err = e.appendRecord(p.buf, ev.Target, ev.Kind, &ev.A); err != nil {
			return nil, err
		}
	}
	for _, fs := range flashStates {
		for i := range fs.Ops {
			if op := &fs.Ops[i]; op.Remaining > 0 && !op.Done.None() {
				if p.buf, err = e.appendRecord(p.buf, op.Done.Target, op.Done.Kind, &op.Done.A); err != nil {
					return nil, err
				}
			}
		}
	}
	s.Carried = p.cut(start)
	for b, be := range e.boards {
		be.image(&s.Boards[b], flashStates[b], p)
		s.FabricQ = append(s.FabricQ, e.fabric[b].State())
		row := make([]EgressState, len(e.egress[b]))
		for dst, eb := range e.egress[b] {
			row[dst] = EgressState{Walks: p.fabricWalks(eb.walks), Bytes: eb.bytes}
		}
		s.Egress = append(s.Egress, row)
	}
	return s, nil
}

// appendRecord appends to b the record a pending event or flash op
// completion names by its A — a walk, a roving batch or a fabric transfer —
// and writes its A as 0; a kind that names none is left as it is. A target
// past the engine's own handlers is an error.
func (e *Engine) appendRecord(b []byte, target int32, kind uint16, a *int32) ([]byte, error) {
	if target > targetSSD(len(e.boards)-1) {
		return nil, fmt.Errorf("core: snapshot: unknown event target %T", e.eng.Handler(target))
	}
	if !carriesRecord(target, kind, len(e.boards)) {
		return b, nil
	}
	switch be := e.boards[(target-1)/2]; {
	case target == targetDriver:
		b = appendFabricBatch(b, &e.fbatches[*a])
	case eventPayload[kind]&payWalk != 0:
		b = appendWalks(b, be.wtab, []int32{*a})
	default:
		b = appendWalks(b, be.wtab, be.batches[*a].walks)
	}
	*a = 0
	return b, nil
}

// image captures one board's body into s, beside its exported flash state,
// packing its walks with p; the caller exports the shared kernel and the
// records events carry.
func (e *boardEngine) image(s *BoardImage, fs flash.State, p *packer) {
	*s = BoardImage{
		Flash: fs,
		DRAM:  e.dr.State(),

		FLSPages:  append([]int(nil), e.flsPages...),
		Score:     append([]float64(nil), e.score...),
		ScorePend: append([]int(nil), e.scorePend...),

		FlushMark: append([]int(nil), e.flushMark...),

		SwitchWalks: p.walks(e.wtab, e.switchWalks),

		CurPart:     e.curPart,
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
				Block: sl.block, Idle: sl.idle, Defers: sl.defers,
				LoadWalks: p.walks(e.wtab, sl.loadWalks),
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
		bs.Caches[i] = CacheState{Blocks: qc.blocks(nil)}
	}
	s.Board = bs
}

// --- Restore. ---

// ResumeEngine rebuilds an engine from a snapshot over the same graph. The
// resumed engine continues the interrupted run exactly: same clock, same
// pending events (fabric transfers and a scheduled kill included), same
// walk and fault RNG positions, so its final Result is bit-identical to the
// run the snapshot was taken from. Everything about the workload comes
// from the snapshot; obs are the resumed run's observers. The snapshot
// carries the finished-walk counters, so an OnWalks export continues the
// finish-order numbering without a gap.
func ResumeEngine(g *graph.Graph, snap *Snapshot, obs Observers) (*Engine, error) {
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
		TrackVisits: snap.TrackVisits, Audit: snap.Audit, UseAliasSampling: snap.UseAliasSampling,
		Mutations: snap.Mutations, Observers: obs,
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
	// Replay, as one batch, the mutations the original run had applied
	// beyond the At == 0 prefix (which construction already applied) onto
	// the fresh overlay. Incremental apply is rebuild-equivalent, so the
	// overlay and every derived index land in the exact state the snapshot
	// saw. Runs before the walks are checked against the graph, and before
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
	// The records pending events carry are filed first, into the empty
	// walk tables and batch and transfer pools, reading the stream in the
	// order export wrote it. The kernel and each SSD import copies of the
	// image's events and ops whose A names them, so the image is left as it
	// was handed.
	r := recReader{b: snap.Carried}
	events := slices.Clone(snap.Sim.Events)
	for i := range events {
		ev := &events[i]
		if ev.A, err = e.fileRecord(&r, ev.Target, ev.Kind, ev.A, ev.C); err != nil {
			return fmt.Errorf("core: resume: pending event at %v: %w", ev.At, err)
		}
	}
	ops := make([][]flash.OpState, nb)
	for b := range e.boards {
		ops[b] = slices.Clone(snap.Boards[b].Flash.Ops)
		for i := range ops[b] {
			op := &ops[b][i]
			if op.Remaining == 0 || op.Done.None() {
				continue
			}
			d := &op.Done
			if d.A, err = e.fileRecord(&r, d.Target, d.Kind, d.A, d.C); err != nil {
				return fmt.Errorf("core: resume: board %d flash op %d completion: %w", b, i, err)
			}
		}
	}
	if err := r.done(); err != nil {
		return fmt.Errorf("core: resume: carried records: %w", err)
	}
	carried := make([]int, nb)
	for b, be := range e.boards {
		carried[b] = len(be.wtab)
	}
	kernel := snap.Sim
	kernel.Events = events
	if err := e.eng.ImportState(kernel); err != nil {
		return err
	}
	var u unpacker
	for b, be := range e.boards {
		if err := be.restore(&snap.Boards[b], ops[b]); err != nil {
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
	if err := e.checkEvents(snap); err != nil {
		return fmt.Errorf("core: resume: %w", err)
	}
	if err := e.checkWalks(carried); err != nil {
		return fmt.Errorf("core: resume: %w", err)
	}
	// The fabric holds the walks of its egress batches and transfers.
	for _, row := range e.egress {
		for _, eb := range row {
			e.inFabric += len(eb.walks)
		}
	}
	for i := range e.fbatches {
		e.inFabric += len(e.fbatches[i].walks)
	}
	e.numStarted = snap.NumWalks
	e.remaining = snap.NumWalks - snap.WalksFinished()
	// Every walk not yet finished is in exactly one table or on the fabric
	// (auditConservation's identity). A store holding a walk twice, a
	// duplicated event or a walk missing from every store would finish a
	// different run, or never finish it.
	held := e.inFabric
	for _, be := range e.boards {
		held += be.liveWalks()
	}
	if held != e.remaining {
		return fmt.Errorf("core: resume: image holds %d walks, but %d started and %d finished",
			held, snap.NumWalks, snap.WalksFinished())
	}
	for _, be := range e.boards {
		be.finished = e.boardDone(be)
	}
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
// filed the records pending events carry. ops is the image's op pool with
// each completion's A naming its filed record.
func (e *boardEngine) restore(snap *BoardImage, ops []flash.OpState) error {
	nb := e.part.NumBlocks()
	np := e.part.NumPartitions
	switch {
	case len(snap.PWB) != nb, len(snap.FLS) != nb, len(snap.FLSPages) != nb,
		len(snap.Score) != nb, len(snap.ScorePend) != nb:
		return fmt.Errorf("core: resume: snapshot block stores sized for %d blocks, partitioning has %d", len(snap.PWB), nb)
	case len(snap.PendingMem) != np, len(snap.PendingFlash) != np, len(snap.FlushMark) != np:
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

	fs := snap.Flash
	fs.Ops = ops
	if err := e.ssd.ImportState(fs); err != nil {
		return err
	}
	if err := e.dr.Restore(snap.DRAM); err != nil {
		return err
	}
	if e.inj != nil {
		e.inj.Restore(*snap.Injector)
		copy(e.degraded, snap.Injector.Degraded)
	}

	// Every decoded walk is filed in this board's table; the stores get
	// fresh indices after the carried walks.
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
		if m := snap.FlushMark[p]; m < 0 || m > len(e.pendingMem[p]) {
			return fmt.Errorf("core: resume: partition %d flush mark %d outside [0, %d]", p, m, len(e.pendingMem[p]))
		}
	}
	copy(e.flushMark, snap.FlushMark)
	e.foreignerBufBytes = e.foreignerBytes()

	// The read-back's pending pages are counted by checkEvent.
	e.switchWalks = u.walks(snap.SwitchWalks)

	e.curPart = snap.CurPart
	e.flushChipRR = snap.FlushChipRR

	for i, c := range e.chips {
		cs := &snap.Chips[i]
		if len(cs.Slots) != len(c.slots) {
			return fmt.Errorf("core: resume: chip %d has %d slots in snapshot, config has %d", i, len(cs.Slots), len(c.slots))
		}
		if err := tierIn(&c.tierCommon, cs.Tier, fmt.Sprintf("chip %d", i)); err != nil {
			return err
		}
		// A slot's pending count and its load parts left are its pending
		// update and load completions, which checkEvent counts.
		for j, sl := range c.slots {
			ss := &cs.Slots[j]
			switch {
			case ss.Block < -1 || ss.Block >= nb:
				return fmt.Errorf("core: resume: chip %d slot %d holds block %d outside [-1, %d)", i, j, ss.Block, nb)
			case ss.Defers < 0 || ss.Defers > maxLoadDefers:
				return fmt.Errorf("core: resume: chip %d slot %d deferred %d loads, outside [0, %d]", i, j, ss.Defers, maxLoadDefers)
			}
			sl.block = ss.Block
			sl.idle = ss.Idle
			sl.defers = ss.Defers
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
	}
	b.cacheRR = snap.Board.CacheRR
	b.completedBytes = snap.Board.CompletedBytes

	if u.err != nil {
		return fmt.Errorf("core: resume walk stores: %w", u.err)
	}
	// Every walk on the board is in its table now; those no store holds,
	// and those in the current partition's block stores, are active (the
	// audit's identity).
	e.activeCur = e.liveWalks() - e.storedWalks() + e.activeCurStoredOverlap()
	e.res = snap.Res
	e.res.Visits = append([]uint64(nil), snap.Res.Visits...)
	return nil
}

// carriesRecord reports whether an event or flash op completion aimed at
// target with the given kind carries a record on an array of nb boards: a
// fabric transfer to the driver, or a walk or roving batch to a board.
func carriesRecord(target int32, kind uint16, nb int) bool {
	if target == targetDriver {
		return kind == evFabricArrive
	}
	b := int(target-1) / 2
	return b >= 0 && b < nb && target == targetBoard(b) &&
		int(kind) < len(eventPayload) && eventPayload[kind]&(payWalk|payBatch) != 0
}

// fileRecord files the record a saved event or flash op completion
// carries, read from the image's record stream r — a walk in its board's
// table, a roving batch or a fabric transfer — in a fresh slot, checks each
// walk it holds, and returns the slot, which becomes the event's A. A kind
// that names no record reads none and keeps its A.
func (e *Engine) fileRecord(r *recReader, target int32, kind uint16, a int32, c int64) (int32, error) {
	if !carriesRecord(target, kind, len(e.boards)) {
		return a, nil
	}
	b := int(target-1) / 2
	fabric := target == targetDriver
	if fabric {
		fb := r.fabricBatch()
		if r.err != nil {
			return 0, fmt.Errorf("fabric transfer: %w", r.err)
		}
		if fb.dst < 0 || int(fb.dst) >= len(e.boards) || len(fb.walks) == 0 {
			return 0, fmt.Errorf("fabric transfer of %d walks to board %d of %d", len(fb.walks), fb.dst, len(e.boards))
		}
		for i := range fb.walks {
			if err := e.checkFabricWalk(&fb.walks[i]); err != nil {
				return 0, fmt.Errorf("fabric transfer walk %d: %w", i, err)
			}
		}
		return e.newFBatch(fb.walks, int(fb.dst)), nil
	}
	be := e.boards[b]
	ws := r.walks(be)
	if r.err != nil {
		return 0, fmt.Errorf("event kind %d: %w", kind, r.err)
	}
	pay := eventPayload[kind]
	switch {
	case pay&payWalk != 0 && len(ws) != 1:
		return 0, fmt.Errorf("event kind %d carries %d walks, not one", kind, len(ws))
	case len(ws) == 0:
		return 0, fmt.Errorf("event kind %d carries an empty roving batch", kind)
	}
	// A walk whose update completion is pending with the terminal flag has
	// taken its last hop.
	_, hop := splitC(c)
	for i, w := range ws {
		if err := be.checkWalk(be.walk(w), pay&payHop != 0 && hop&hopTerminal != 0); err != nil {
			return 0, fmt.Errorf("event kind %d walk %d: %w", kind, i, err)
		}
	}
	if pay&payWalk != 0 {
		return ws[0], nil
	}
	return be.newBatch(ws), nil
}

// checkEvents validates every imported pending event and every live flash
// op's completion against its target's kind space, once every store is
// restored: the kind is known, chip, channel, tier, slot and board indices
// are in range, and the routing scratch names partitions, blocks and
// ranges that exist. A hostile image is an error here rather than a panic
// or a walk that never finishes once the run resumes. The pass also counts
// what the image does not repeat (checkEvent).
func (e *Engine) checkEvents(snap *Snapshot) error {
	nb := len(e.boards)
	// check validates an event aimed at the driver or a board; the kernel
	// and SSD imports have refused every target ID past the handler table.
	check := func(target int32, kind uint16, b int32, c int64) error {
		if target == targetDriver {
			switch kind {
			case evFabricArrive:
				return nil
			case evBoardKill:
				if b < 0 || int(b) >= nb {
					return fmt.Errorf("board kill names board %d of %d", b, nb)
				}
				return nil
			}
			return fmt.Errorf("unknown driver event kind %d", kind)
		}
		if bd := int(target-1) / 2; target == targetBoard(bd) {
			return e.boards[bd].checkEvent(kind, b, c)
		}
		return fmt.Errorf("completion kind %d aimed at an SSD", kind)
	}
	ssdEvents := make([][]sim.SavedEvent, nb)
	for _, ev := range snap.Sim.Events {
		if b := int(ev.Target-1) / 2; ev.Target == targetSSD(b) {
			ssdEvents[b] = append(ssdEvents[b], ev)
			continue
		}
		if err := check(ev.Target, ev.Kind, ev.B, ev.C); err != nil {
			return fmt.Errorf("pending event at %v: %w", ev.At, err)
		}
	}
	for b, be := range e.boards {
		if err := be.ssd.CheckPending(ssdEvents[b]); err != nil {
			return fmt.Errorf("board %d: %w", b, err)
		}
		for i, op := range snap.Boards[b].Flash.Ops {
			if op.Remaining == 0 || op.Done.None() {
				continue
			}
			d := op.Done
			if d.Kind == evChanTick {
				return fmt.Errorf("board %d flash op %d completes a channel tick, which only the kernel schedules", b, i)
			}
			if err := check(d.Target, d.Kind, d.B, d.C); err != nil {
				return fmt.Errorf("board %d flash op %d completion: %w", b, i, err)
			}
		}
	}
	for b, be := range e.boards {
		if err := be.derivePending(); err != nil {
			return fmt.Errorf("board %d: %w", b, err)
		}
	}
	return nil
}

// derivePending sets what follows from the counts checkEvent took: a slot
// is loading while load parts are pending, and a board or channel tier
// routes hot once its preload has landed (nothing reads a chip's). It
// refuses walks that no pending completion would ever hand on: a slot's
// claimed walks with no load part pending, and read-back walks with no
// page pending (or pages pending for no walks).
func (e *boardEngine) derivePending() error {
	for i, c := range e.chips {
		for j, s := range c.slots {
			s.loading = s.loadLeft > 0
			if len(s.loadWalks) > 0 && !s.loading {
				return fmt.Errorf("chip %d slot %d claimed %d walks with no load part pending", i, j, len(s.loadWalks))
			}
		}
	}
	if (len(e.switchWalks) > 0) != (e.switchLeft > 0) {
		return fmt.Errorf("%d read-back walks wait on %d pending pages", len(e.switchWalks), e.switchLeft)
	}
	e.board.hotReady = e.board.hotPending == 0
	for _, ca := range e.chans {
		ca.hotReady = ca.hotPending == 0
	}
	return nil
}

// checkWalks range-checks every walk the stores restored against what its
// readers index: the graph's vertices, the partitioning's dense blocks and
// ranges, and the hop budget. The packed codec knows no graph, so a walk
// value no run could hold is refused here rather than indexing out of
// range or silently changing the run once it resumes. Restore files every
// decoded walk in a fresh table, so every table entry is live, and the
// records events carry first: fileRecord checked board b's leading
// carried[b] walks and the fabric transfers.
func (e *Engine) checkWalks(carried []int) error {
	for b, be := range e.boards {
		for i := carried[b]; i < len(be.wtab); i++ {
			if err := be.checkWalk(&be.wtab[i], false); err != nil {
				return fmt.Errorf("board %d walk %d: %w", b, i, err)
			}
		}
	}
	for src, row := range e.egress {
		for dst := range row {
			for i := range row[dst].walks {
				if err := e.checkFabricWalk(&row[dst].walks[i]); err != nil {
					return fmt.Errorf("egress %d to %d walk %d: %w", src, dst, i, err)
				}
			}
		}
	}
	return nil
}

// checkFabricWalk checks a walk on the fabric: its destination partition
// exists, and every board shares the graph, partitioning and spec, so the
// first checks the walk itself.
func (e *Engine) checkFabricWalk(fw *fabricWalk) error {
	if fw.p < 0 || int(fw.p) >= e.part.NumPartitions {
		return fmt.Errorf("destination partition %d of %d", fw.p, e.part.NumPartitions)
	}
	return e.boards[0].checkWalk(&fw.st, false)
}

// checkWalk checks one walk; terminal reports that it has taken its last
// hop, the one state in which no hops may be left.
func (e *boardEngine) checkWalk(st *wstate, terminal bool) error {
	nv := e.g.NumVertices()
	switch {
	case uint64(st.w.Src) >= nv, uint64(st.w.Cur) >= nv:
		return fmt.Errorf("walk from vertex %d at vertex %d, graph has %d", st.w.Src, st.w.Cur, nv)
	case st.prev != noPrev && uint64(st.prev) >= nv:
		return fmt.Errorf("previous vertex %d, graph has %d", st.prev, nv)
	case st.w.Hop > e.spec.Length, st.w.Hop == 0 && !terminal:
		return fmt.Errorf("%d hops left of %d", st.w.Hop, e.spec.Length)
	case st.denseBlock < -1 || int(st.denseBlock) >= e.part.NumBlocks(),
		st.denseBlock >= 0 && !e.part.Blocks[st.denseBlock].Dense:
		return fmt.Errorf("dense block %d is not a dense block", st.denseBlock)
	case st.denseBlock >= 0 && st.denseEdge >= e.outDegree(st.w.Cur):
		return fmt.Errorf("dense edge %d of vertex %d, which has %d", st.denseEdge, st.w.Cur, e.outDegree(st.w.Cur))
	case st.rangeTag < -1 || int(st.rangeTag) >= len(e.part.Ranges):
		return fmt.Errorf("range tag %d outside [-1, %d)", st.rangeTag, len(e.part.Ranges))
	}
	return nil
}

// checkEvent validates one event or op completion aimed at this board
// against its kind's payload (eventPayload); fileRecord already filed the
// walk or roving batch it carries. It counts what each event settles: a chip
// update its slot's pending walks, a load part its slot's parts left, a
// tier update the queue bytes it claimed, a preload its tier's pending
// hot blocks, a read-back page the board's pages left, and a channel tick
// the driver's pending ticks.
func (e *boardEngine) checkEvent(kind uint16, b int32, c int64) error {
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
	}
	switch kind {
	case evChipUpdateDone:
		e.chips[b].slots[lo].pending++
	case evLoadPart:
		e.chips[b].slots[lo].loadLeft++
	case evTierUpdateDone:
		e.tier(b).queueBytes += int64(lo)
	case evHotLoaded:
		e.tier(b).hotPending++
	case evSwitchPage:
		e.switchLeft++
	case evChanTick:
		e.drv.ticks++
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
