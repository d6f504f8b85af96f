// Package core implements FlashWalker itself: the board-level,
// channel-level and chip-level accelerators, the walk routing machinery
// (subgraph mapping table, approximate walk search, walk query caches,
// dense-vertex pre-walking), the partition walk buffer with
// overflow-to-flash, and the Eq. 1 subgraph scheduler.
//
// The engine is a discrete-event model: each accelerator's updater and
// guider pools are serializing resources with the per-operation cycle
// times of Table II, flash and DRAM come from internal/flash and
// internal/dram, and walks are individually tracked as they move between
// queues, buffers, and devices.
package core

import (
	"fmt"

	"flashwalker/internal/errs"
	"flashwalker/internal/fault"
	"flashwalker/internal/sim"
)

// Options are the Figure-9 feature toggles. The "baseline" FlashWalker of
// §IV-E has all three disabled; the full system enables all three.
type Options struct {
	// WalkQuery (WQ) enables the approximate walk search in channel-level
	// accelerators (range-granular queries that shrink the board-level
	// binary search) and the board-level walk query caches.
	WalkQuery bool
	// HotSubgraphs (HS) stores the top in-degree subgraphs in the
	// channel-level and board-level subgraph buffers so walks landing in
	// them are updated without descending to a chip.
	HotSubgraphs bool
	// SmartSchedule (SS) schedules subgraphs by the Eq. 1 critical-degree
	// score. When disabled, the scheduler falls back to most-buffered-
	// walks-first (GraphWalker-style state-aware ordering).
	SmartSchedule bool
}

// AllOptions enables every optimization.
func AllOptions() Options {
	return Options{WalkQuery: true, HotSubgraphs: true, SmartSchedule: true}
}

// Config holds the accelerator parameters (Table II) plus the engine's
// behavioural knobs.
type Config struct {
	// --- Table II cycle times (interval between operations per unit). ---
	ChipUpdaterCycle    sim.Time // 16 ns (500 MHz)
	ChipGuiderCycle     sim.Time // 16 ns
	ChannelUpdaterCycle sim.Time // 8 ns
	ChannelGuiderCycle  sim.Time // 8 ns
	BoardUpdaterCycle   sim.Time // 4 ns (1 GHz)
	BoardGuiderCycle    sim.Time // 4 ns

	// --- Table II unit counts. ---
	ChipUpdaters    int // 1
	ChipGuiders     int // 1
	ChannelUpdaters int // 1
	ChannelGuiders  int // 4
	BoardUpdaters   int // 4
	BoardGuiders    int // 128

	// OpsPerUpdate is the number of operations a walk updater performs per
	// walk when not stalled (5 in §IV-A). Biased walks add their ITS
	// binary-search steps on top.
	OpsPerUpdate int

	// --- Table II buffer capacities (bytes). ---
	ChipSubgraphBufBytes    int64 // 1 MB
	ChannelSubgraphBufBytes int64 // 2 MB
	BoardSubgraphBufBytes   int64 // 16 MB
	ChipWalkQueueBytes      int64 // 64 KB
	ChannelWalkQueueBytes   int64 // 128 KB
	BoardWalkQueueBytes     int64 // 1 MB
	ChipRovingBufBytes      int64 // 32 KB

	// --- §IV-A table and cache capacities. ---
	MappingTableBytes int64 // 2 MB board subgraph mapping table
	DenseTableBytes   int64 // 128 KB dense vertices mapping table
	QueryCacheBytes   int64 // 4 KB per walk query cache
	NumQueryCaches    int   // 32 caches, shared 4 guiders each
	MappingEntryBytes int64 // bytes per mapping entry (2 IDs + addr + degree)
	// TablePorts is the number of independent banks of the mapping table;
	// searches serialize per bank, modelling the access contention the
	// query cache relieves.
	TablePorts int

	// --- Buffering / flushing. ---
	// PartitionWalkEntryBytes is the DRAM capacity of one partition walk
	// buffer entry; when an entry fills, it overflows to flash (§III-D).
	PartitionWalkEntryBytes int64
	// CompletedBufBytes / ForeignerBufBytes are the board-side buffers
	// flushed to flash when full.
	CompletedBufBytes int64
	ForeignerBufBytes int64
	// ChipCompletedBufBytes is each chip's completed-walk buffer.
	ChipCompletedBufBytes int64

	// RovingFetchInterval is the fixed interval at which a channel-level
	// accelerator collects roving walks from its chips (§III-B).
	RovingFetchInterval sim.Time
	// MinWalksToLoad batches subgraph loads: a slot defers once (for
	// LoadIdleDelay) when its best candidate has fewer buffered walks, so
	// trickling walks amortize the page reads. After one deferral the load
	// proceeds regardless, guaranteeing progress. Set to 1 to disable.
	MinWalksToLoad int
	// LoadIdleDelay is the single deferral interval for MinWalksToLoad.
	LoadIdleDelay sim.Time
	// CommandBytes is the size of a scheduling command on the channel bus.
	CommandBytes int64

	// --- Eq. 1 scheduling. ---
	Alpha float64 // weight of buffered walks (1.2 default; 0.4 in Fig. 9 SS)
	Beta  float64 // non-dense multiplier (1.5)
	// TopN is the per-chip top-N candidate list length.
	TopN int
	// ScoreUpdateEveryM batches scoreboard updates: a block's cached score
	// is refreshed only every M-th walk insertion (§III-D).
	ScoreUpdateEveryM int

	// --- Multi-board SSD array. ---
	// Boards is the number of shard-owning boards in the simulated array.
	// 0 or 1 simulates the paper's single board; N > 1 runs N boards, each
	// owning a round-robin shard of the graph partitions, connected by a
	// modeled inter-board fabric (array.go). One driver runs every count.
	Boards int
	// FabricLatency is the fixed per-message latency of the inter-board
	// fabric (PCIe-switch/NVMe-oF hop), charged on top of the serialized
	// transfer time.
	FabricLatency sim.Time
	// FabricBytesPerSec is the per-board egress bandwidth of the fabric.
	FabricBytesPerSec int64
	// FabricBatchBytes is the egress batching threshold: foreigner walks
	// bound for another board accumulate per (source, destination) pair
	// and ship when the batch reaches this size (or when the source board
	// drains, so no walk is ever stranded).
	FabricBatchBytes int64

	Opts Options

	Seed uint64

	// Faults configures deterministic fault injection in the flash stack
	// (internal/fault). The zero value disables it; a zero-rate enabled
	// config injects nothing and leaves the timeline bit-identical.
	Faults fault.Config
}

// Default returns the Table II configuration with the paper's default
// α = 1.2, β = 1.5.
func Default() Config {
	return Config{
		ChipUpdaterCycle:    16 * sim.Nanosecond,
		ChipGuiderCycle:     16 * sim.Nanosecond,
		ChannelUpdaterCycle: 8 * sim.Nanosecond,
		ChannelGuiderCycle:  8 * sim.Nanosecond,
		BoardUpdaterCycle:   4 * sim.Nanosecond,
		BoardGuiderCycle:    4 * sim.Nanosecond,

		ChipUpdaters:    1,
		ChipGuiders:     1,
		ChannelUpdaters: 1,
		ChannelGuiders:  4,
		BoardUpdaters:   4,
		BoardGuiders:    128,

		OpsPerUpdate: 5,

		ChipSubgraphBufBytes:    1 << 20,
		ChannelSubgraphBufBytes: 2 << 20,
		BoardSubgraphBufBytes:   16 << 20,
		ChipWalkQueueBytes:      64 << 10,
		ChannelWalkQueueBytes:   128 << 10,
		BoardWalkQueueBytes:     1 << 20,
		ChipRovingBufBytes:      32 << 10,

		MappingTableBytes: 2 << 20,
		DenseTableBytes:   128 << 10,
		QueryCacheBytes:   4 << 10,
		NumQueryCaches:    32,
		MappingEntryBytes: 32,
		TablePorts:        4,

		PartitionWalkEntryBytes: 16 << 10,
		CompletedBufBytes:       64 << 10,
		ForeignerBufBytes:       64 << 10,
		ChipCompletedBufBytes:   8 << 10,

		RovingFetchInterval: 2 * sim.Microsecond,
		MinWalksToLoad:      1,
		LoadIdleDelay:       20 * sim.Microsecond,
		CommandBytes:        16,

		Alpha:             1.2,
		Beta:              1.5,
		TopN:              8,
		ScoreUpdateEveryM: 8,

		// Fabric defaults model a PCIe-switch hop between boards: ~1 us
		// switch+protocol latency, 4 GB/s effective per-board egress, and
		// 4 KB transfer batches. Only read when Boards > 1.
		Boards:            1,
		FabricLatency:     1 * sim.Microsecond,
		FabricBytesPerSec: 4 << 30,
		FabricBatchBytes:  4 << 10,

		Opts: AllOptions(),
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	type namedTime struct {
		name string
		v    sim.Time
	}
	for _, nt := range []namedTime{
		{"ChipUpdaterCycle", c.ChipUpdaterCycle},
		{"ChipGuiderCycle", c.ChipGuiderCycle},
		{"ChannelUpdaterCycle", c.ChannelUpdaterCycle},
		{"ChannelGuiderCycle", c.ChannelGuiderCycle},
		{"BoardUpdaterCycle", c.BoardUpdaterCycle},
		{"BoardGuiderCycle", c.BoardGuiderCycle},
		{"RovingFetchInterval", c.RovingFetchInterval},
		{"LoadIdleDelay", c.LoadIdleDelay},
	} {
		if nt.v <= 0 {
			return fmt.Errorf("core: %s must be positive: %w", nt.name, errs.ErrInvalidConfig)
		}
	}
	type namedInt struct {
		name string
		v    int
	}
	for _, ni := range []namedInt{
		{"ChipUpdaters", c.ChipUpdaters},
		{"ChipGuiders", c.ChipGuiders},
		{"ChannelUpdaters", c.ChannelUpdaters},
		{"ChannelGuiders", c.ChannelGuiders},
		{"BoardUpdaters", c.BoardUpdaters},
		{"BoardGuiders", c.BoardGuiders},
		{"OpsPerUpdate", c.OpsPerUpdate},
		{"NumQueryCaches", c.NumQueryCaches},
		{"TablePorts", c.TablePorts},
		{"MinWalksToLoad", c.MinWalksToLoad},
		{"TopN", c.TopN},
		{"ScoreUpdateEveryM", c.ScoreUpdateEveryM},
	} {
		if ni.v <= 0 {
			return fmt.Errorf("core: %s must be positive: %w", ni.name, errs.ErrInvalidConfig)
		}
	}
	type namedBytes struct {
		name string
		v    int64
	}
	for _, nb := range []namedBytes{
		{"ChipSubgraphBufBytes", c.ChipSubgraphBufBytes},
		{"ChannelSubgraphBufBytes", c.ChannelSubgraphBufBytes},
		{"BoardSubgraphBufBytes", c.BoardSubgraphBufBytes},
		{"ChipWalkQueueBytes", c.ChipWalkQueueBytes},
		{"ChannelWalkQueueBytes", c.ChannelWalkQueueBytes},
		{"BoardWalkQueueBytes", c.BoardWalkQueueBytes},
		{"ChipRovingBufBytes", c.ChipRovingBufBytes},
		{"MappingTableBytes", c.MappingTableBytes},
		{"QueryCacheBytes", c.QueryCacheBytes},
		{"MappingEntryBytes", c.MappingEntryBytes},
		{"PartitionWalkEntryBytes", c.PartitionWalkEntryBytes},
		{"CompletedBufBytes", c.CompletedBufBytes},
		{"ForeignerBufBytes", c.ForeignerBufBytes},
		{"ChipCompletedBufBytes", c.ChipCompletedBufBytes},
		{"CommandBytes", c.CommandBytes},
	} {
		if nb.v <= 0 {
			return fmt.Errorf("core: %s must be positive: %w", nb.name, errs.ErrInvalidConfig)
		}
	}
	if c.Alpha <= 0 || c.Beta <= 0 {
		return fmt.Errorf("core: Alpha/Beta must be positive: %w", errs.ErrInvalidConfig)
	}
	if c.Boards < 0 || c.Boards > MaxBoards {
		return fmt.Errorf("core: Boards %d outside [0, %d]: %w", c.Boards, MaxBoards, errs.ErrInvalidConfig)
	}
	if c.Boards > 1 {
		if c.FabricLatency < 0 {
			return fmt.Errorf("core: negative FabricLatency %v: %w", c.FabricLatency, errs.ErrInvalidConfig)
		}
		if c.FabricBytesPerSec <= 0 {
			return fmt.Errorf("core: FabricBytesPerSec must be positive with Boards > 1: %w", errs.ErrInvalidConfig)
		}
		if c.FabricBatchBytes <= 0 {
			return fmt.Errorf("core: FabricBatchBytes must be positive with Boards > 1: %w", errs.ErrInvalidConfig)
		}
	}
	if c.Faults.KillBoardAt > 0 {
		if c.Boards <= 1 {
			return fmt.Errorf("core: whole-device kill (Faults.KillBoardAt) requires Boards > 1: %w", errs.ErrInvalidConfig)
		}
		if c.Faults.KillBoard >= c.Boards {
			return fmt.Errorf("core: Faults.KillBoard %d outside array of %d boards: %w", c.Faults.KillBoard, c.Boards, errs.ErrInvalidConfig)
		}
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	return nil
}

// MaxBoards bounds the array size a Config may request; it exists to keep
// hostile service submissions from allocating an absurd device fleet.
const MaxBoards = 64
