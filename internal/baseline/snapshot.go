package baseline

import (
	"context"
	"fmt"

	"flashwalker/internal/errs"
	"flashwalker/internal/fault"
	"flashwalker/internal/flash"
	"flashwalker/internal/graph"
	"flashwalker/internal/sim"
	"flashwalker/internal/walk"
)

// The baseline's snapshot is a replay record, not a state image: the
// complete set of construction inputs, from which the whole run is a pure
// function — GraphWalker itself restarts interrupted walks the same way.
// ResumeContext rebuilds the engine from these inputs and re-runs it from
// event zero, producing the identical Result (same shared RNG stream, same
// event order). The baseline is a comparison engine, run for sweeps against
// FlashWalker, not a long-lived job: re-simulating a run from the start
// costs little, and spares the baseline a mid-run state image of its pools,
// LRU and loads in flight.

// SnapshotConfig is Config minus the non-serializable OnProgress hook.
type SnapshotConfig struct {
	MemoryBytes     int64
	WalkMemBytes    int64
	BlockBytes      int64
	IDBytes         int
	CPUHopTime      sim.Time
	Threads         int
	Prefetch        bool
	Seed            uint64
	CheckpointEvery uint64
	Faults          fault.Config
}

// Snapshot records everything needed to reproduce a GraphWalker run.
type Snapshot struct {
	Cfg           SnapshotConfig
	SSDCfg        flash.Config
	Spec          walk.Spec
	NumWalks      int
	StartSeed     uint64
	GraphVertices uint64
	GraphEdges    uint64
}

// Snapshot captures the engine's construction inputs. The record does not
// depend on how far the run has progressed, so it can be taken at any
// moment.
func (e *Engine) Snapshot() *Snapshot {
	c := e.cfg
	return &Snapshot{
		Cfg: SnapshotConfig{
			MemoryBytes: c.MemoryBytes, WalkMemBytes: c.WalkMemBytes,
			BlockBytes: c.BlockBytes, IDBytes: c.IDBytes,
			CPUHopTime: c.CPUHopTime, Threads: c.Threads,
			Prefetch: c.Prefetch, Seed: c.Seed,
			CheckpointEvery: c.CheckpointEvery, Faults: c.Faults,
		},
		SSDCfg:        e.ssd.Cfg,
		Spec:          e.spec,
		NumWalks:      e.numWalks,
		StartSeed:     e.startSeed,
		GraphVertices: e.g.NumVertices(),
		GraphEdges:    e.g.NumEdges(),
	}
}

// ResumeContext reproduces the snapshotted run over the same graph by
// deterministic replay from event zero and drives it to completion. The
// returned Result is identical to what the uninterrupted run would have
// produced. onProgress, when non-nil, re-attaches live progress.
func ResumeContext(ctx context.Context, g *graph.Graph, snap *Snapshot, onProgress func(Progress)) (*Result, error) {
	if snap == nil {
		return nil, fmt.Errorf("baseline: nil snapshot: %w", errs.ErrInvalidConfig)
	}
	if g.NumVertices() != snap.GraphVertices || g.NumEdges() != snap.GraphEdges {
		return nil, fmt.Errorf("baseline: snapshot was taken over a graph with %d vertices / %d edges, got %d / %d: %w",
			snap.GraphVertices, snap.GraphEdges, g.NumVertices(), g.NumEdges(), errs.ErrInvalidConfig)
	}
	cfg := Config{
		MemoryBytes: snap.Cfg.MemoryBytes, WalkMemBytes: snap.Cfg.WalkMemBytes,
		BlockBytes: snap.Cfg.BlockBytes, IDBytes: snap.Cfg.IDBytes,
		CPUHopTime: snap.Cfg.CPUHopTime, Threads: snap.Cfg.Threads,
		Prefetch: snap.Cfg.Prefetch, Seed: snap.Cfg.Seed,
		CheckpointEvery: snap.Cfg.CheckpointEvery, Faults: snap.Cfg.Faults,
		OnProgress: onProgress,
	}
	e, err := NewWithSSD(g, cfg, snap.SSDCfg, snap.Spec, snap.NumWalks, snap.StartSeed)
	if err != nil {
		return nil, err
	}
	return e.RunContext(ctx)
}
