package harness

import (
	"context"

	"flashwalker/internal/baseline"
	"flashwalker/internal/core"
	"flashwalker/internal/dram"
	"flashwalker/internal/fault"
	"flashwalker/internal/flash"
	"flashwalker/internal/partition"
	"flashwalker/internal/sim"
	"flashwalker/internal/walk"
)

// WalkLength is fixed at 6 in every experiment (paper §IV-A).
const WalkLength = 6

// FlashWalkerConfig derives a scaled core.RunConfig for a dataset. Cycle
// times and unit counts stay at Table II values; subgraph buffers keep the
// paper's slot counts (4 chip slots, 8 channel-resident and 64
// board-resident hot subgraphs) against the scaled block size; walk
// buffers are scaled so overflow pressure appears at the scaled walk
// counts.
func FlashWalkerConfig(d Dataset, opts core.Options, numWalks int, seed uint64) core.RunConfig {
	cfg := core.Default()
	cfg.Opts = opts
	cfg.Seed = seed

	cfg.ChipSubgraphBufBytes = 4 * d.SubgraphBytes
	cfg.ChannelSubgraphBufBytes = 8 * d.SubgraphBytes
	cfg.BoardSubgraphBufBytes = 64 * d.SubgraphBytes

	cfg.ChipWalkQueueBytes = 16 << 10
	cfg.ChannelWalkQueueBytes = 32 << 10
	cfg.BoardWalkQueueBytes = 256 << 10
	cfg.ChipRovingBufBytes = 8 << 10

	cfg.PartitionWalkEntryBytes = 4 << 10
	cfg.CompletedBufBytes = 16 << 10
	cfg.ForeignerBufBytes = 16 << 10
	cfg.ChipCompletedBufBytes = 2 << 10

	// Load batching compensates for the scaled walk density (the paper's
	// walks-per-subgraph is ~300x ours); see DESIGN.md §6.
	cfg.MinWalksToLoad = 8
	cfg.LoadIdleDelay = 20 * sim.Microsecond

	if opts.SmartSchedule {
		// Figure 9 uses α = 0.4 for the SS configuration to relieve the
		// channel bus (§IV-E); β stays 1.5.
		cfg.Alpha = 0.4
		cfg.Beta = 1.5
	}

	return core.RunConfig{
		Cfg:      cfg,
		FlashCfg: flash.Default(),
		DRAMCfg:  dram.Default(),
		PartCfg: partition.Config{
			BlockBytes:            d.SubgraphBytes,
			IDBytes:               d.IDBytes,
			SubgraphsPerPartition: subgraphsPerPartition(d),
			RangeSize:             32,
		},
		Spec:      walk.Spec{Kind: walk.Unbiased, Length: WalkLength},
		NumWalks:  numWalks,
		StartSeed: seed + 100,
	}
}

// subgraphsPerPartition is the dataset's partition granularity (the
// registry default is one 4096-subgraph partition per ~16 MiB of CSR; the
// multi-board preset cuts finer).
func subgraphsPerPartition(d Dataset) int {
	if d.SubgraphsPerPartition > 0 {
		return d.SubgraphsPerPartition
	}
	return 4096
}

// GraphWalkerConfig derives the scaled baseline configuration: block size
// is the paper's 1 GB divided by 4096 (256 KiB), memory is the scaled
// 4/8/16 GB knob.
func GraphWalkerConfig(d Dataset, memBytes int64, seed uint64) baseline.Config {
	return baseline.Config{
		MemoryBytes:  memBytes,
		WalkMemBytes: 64 << 10,
		BlockBytes:   256 << 10,
		IDBytes:      d.IDBytes,
		// GraphWalker (ATC'20) reports up to ~4.9e7 steps/s on an 8-core
		// host; 250 ns per hop per thread across 8 threads gives 3.2e7
		// effective steps/s, a representative mid-range rate.
		CPUHopTime: 250 * sim.Nanosecond,
		Threads:    8,
		Seed:       seed,
	}
}

// RunFlashWalker executes FlashWalker on the dataset on one board.
// Canceling ctx halts the simulation at the next event boundary.
func RunFlashWalker(ctx context.Context, d Dataset, opts core.Options, numWalks int, seed uint64, progressBin sim.Time) (*core.Result, error) {
	g, err := d.Graph()
	if err != nil {
		return nil, err
	}
	rc := FlashWalkerConfig(d, opts, numWalks, seed)
	rc.ProgressBin = progressBin
	return runTo(ctx, g, rc)
}

// RunFlashWalkerBoards executes FlashWalker on an nb-board SSD array over
// the dataset (nb <= 1: one board).
func RunFlashWalkerBoards(ctx context.Context, d Dataset, opts core.Options, numWalks, nb int, seed uint64) (*core.Result, error) {
	g, err := d.Graph()
	if err != nil {
		return nil, err
	}
	rc := FlashWalkerConfig(d, opts, numWalks, seed)
	rc.Cfg.Boards = nb
	return runTo(ctx, g, rc)
}

// RunFlashWalkerFaults is RunFlashWalker under a fault-injection profile:
// the same workload, with the flash stack perturbed by fc's deterministic
// fault stream.
func RunFlashWalkerFaults(ctx context.Context, d Dataset, opts core.Options, numWalks int, seed uint64, fc fault.Config) (*core.Result, error) {
	g, err := d.Graph()
	if err != nil {
		return nil, err
	}
	rc := FlashWalkerConfig(d, opts, numWalks, seed)
	rc.Cfg.Faults = fc
	return runTo(ctx, g, rc)
}

// RunGraphWalker executes the baseline on the dataset with the given
// memory capacity. Canceling ctx halts the simulation at the next event
// boundary (see baseline.Engine.RunContext).
func RunGraphWalker(ctx context.Context, d Dataset, memBytes int64, numWalks int, seed uint64) (*baseline.Result, error) {
	g, err := d.Graph()
	if err != nil {
		return nil, err
	}
	cfg := GraphWalkerConfig(d, memBytes, seed)
	spec := walk.Spec{Kind: walk.Unbiased, Length: WalkLength}
	e, err := baseline.New(g, cfg, spec, numWalks, seed+100)
	if err != nil {
		return nil, err
	}
	return e.RunContext(ctx)
}
