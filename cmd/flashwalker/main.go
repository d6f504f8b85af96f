// Command flashwalker runs the FlashWalker in-storage accelerator
// simulation on a graph and prints the result.
//
// The graph comes either from a registered scaled dataset (-dataset) or
// from a binary graph file written by gengraph (-graph).
//
// Examples:
//
//	flashwalker -dataset TT-S -walks 10000
//	flashwalker -graph g.bin -walks 5000 -kind restart -stopprob 0.15
//	flashwalker -dataset FS-S -walks 10000 -no-wq -no-hs -no-ss
//	flashwalker -dataset TT-S -walks 10000 -faults -fault-read-rate 0.05
//	flashwalker -dataset MB-S -walks 10000 -boards 4
//	flashwalker -dataset MB-S -walks 10000 -boards 4 -kill-board 2 -kill-at 500000
//	flashwalker -dataset TT-S -walks 10000 -mutations stream.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"flashwalker/internal/core"
	"flashwalker/internal/errs"
	"flashwalker/internal/fault"
	"flashwalker/internal/graph"
	"flashwalker/internal/harness"
	"flashwalker/internal/metrics"
	"flashwalker/internal/sim"
	"flashwalker/internal/trace"
	"flashwalker/internal/walk"
)

func main() {
	dataset := flag.String("dataset", "", "scaled dataset name (TT-S, FS-S, CW-S, R2B-S, R8B-S, MB-S)")
	graphPath := flag.String("graph", "", "binary graph file (alternative to -dataset)")
	walks := flag.Int("walks", 10000, "number of walks")
	length := flag.Uint("length", harness.WalkLength, "walk length (hops)")
	kind := flag.String("kind", "unbiased", "walk kind: unbiased, biased, restart")
	stopProb := flag.Float64("stopprob", 0.15, "per-hop stop probability for -kind restart")
	seed := flag.Uint64("seed", 1, "simulation seed")
	noWQ := flag.Bool("no-wq", false, "disable the walk query optimization")
	noHS := flag.Bool("no-hs", false, "disable hot subgraphs")
	noSS := flag.Bool("no-ss", false, "disable score-based subgraph scheduling")
	subgraph := flag.Int64("subgraph", 4096, "graph block size in bytes (for -graph)")
	tracePath := flag.String("trace", "", "write a JSONL event trace to this file")
	faults := flag.Bool("faults", false, "enable deterministic fault injection (default profile)")
	faultSeed := flag.Uint64("fault-seed", 0, "override the fault RNG seed (with -faults)")
	faultReadRate := flag.Float64("fault-read-rate", -1, "override the per-sense read-error probability (with -faults)")
	faultBusyRate := flag.Float64("fault-busy-rate", -1, "override the per-sense plane-busy probability (with -faults)")
	boards := flag.Int("boards", 1, "number of SSD boards in the simulated array (>1 enables the inter-board fabric)")
	fabricLatencyNS := flag.Int64("fabric-latency-ns", -1, "override the fabric per-message latency in ns (with -boards > 1)")
	fabricMBps := flag.Int64("fabric-mbps", -1, "override the per-board fabric bandwidth in MB/s (with -boards > 1)")
	killBoard := flag.Int("kill-board", -1, "fail-stop this board mid-run (with -boards > 1)")
	killAt := flag.Int64("kill-at", 0, "simulated time in ns at which -kill-board dies")
	mutations := flag.String("mutations", "", "JSON file with a timestamped edge insert/delete stream applied during the run")
	flag.Parse()

	opts := core.Options{WalkQuery: !*noWQ, HotSubgraphs: !*noHS, SmartSchedule: !*noSS}
	spec, err := parseSpec(*kind, uint32(*length), *stopProb)
	if err != nil {
		fail(err)
	}

	var g *graph.Graph
	var rc core.RunConfig
	switch {
	case *dataset != "":
		d, err := harness.DatasetByName(*dataset)
		if err != nil {
			fail(err)
		}
		if g, err = d.Graph(); err != nil {
			fail(err)
		}
		rc = harness.FlashWalkerConfig(d, opts, *walks, *seed)
	case *graphPath != "":
		if g, err = graph.Load(*graphPath); err != nil {
			fail(err)
		}
		d := harness.Dataset{Name: *graphPath, IDBytes: 4, SubgraphBytes: *subgraph}
		rc = harness.FlashWalkerConfig(d, opts, *walks, *seed)
	default:
		fail(fmt.Errorf("one of -dataset or -graph is required"))
	}
	rc.Spec = spec

	if *faults {
		fc := fault.Default()
		if *faultSeed != 0 {
			fc.Seed = *faultSeed
		}
		if *faultReadRate >= 0 {
			fc.ReadErrorRate = *faultReadRate
		}
		if *faultBusyRate >= 0 {
			fc.PlaneBusyRate = *faultBusyRate
		}
		rc.Cfg.Faults = fc
	}

	rc.Cfg.Boards = *boards
	if *fabricLatencyNS >= 0 {
		rc.Cfg.FabricLatency = sim.Time(*fabricLatencyNS)
	}
	if *fabricMBps > 0 {
		rc.Cfg.FabricBytesPerSec = *fabricMBps * 1_000_000
	}
	if *killBoard >= 0 {
		rc.Cfg.Faults.KillBoard = *killBoard
		rc.Cfg.Faults.KillBoardAt = sim.Time(*killAt)
	}

	if *mutations != "" {
		ms, err := loadMutations(*mutations)
		if err != nil {
			fail(err)
		}
		rc.Mutations = ms
	}

	var traceFile *os.File
	var tw *trace.Writer
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fail(err)
		}
		traceFile = f
		tw = trace.NewWriter(f)
		rc.Tracer = tw
	}

	// Ctrl-C / SIGTERM cancels at the next event boundary; the partial
	// result is printed before exiting non-zero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var res *core.Result
	e, err := core.NewEngine(g, rc)
	if err == nil {
		res, err = e.RunContext(ctx)
	}
	if res != nil {
		if err != nil {
			fmt.Println("run canceled; partial result:")
		}
		printResult(res)
	}
	if cerr := closeTrace(traceFile, tw); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		if errors.Is(err, errs.ErrCanceled) {
			fmt.Fprintln(os.Stderr, "flashwalker:", err)
			os.Exit(130)
		}
		fail(err)
	}
}

// loadMutations reads a mutation stream from a JSON file: an array of
// {"at_ns","op","src","dst","weight"} objects, time-sorted. Only the shape
// is checked here — the engine validates the stream against the graph and
// the partitioning's dense-vertex cap at construction.
func loadMutations(path string) (graph.MutationStream, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ms graph.MutationStream
	if err := json.Unmarshal(data, &ms); err != nil {
		return nil, fmt.Errorf("mutations %s: %w", path, err)
	}
	if err := ms.ValidateShape(); err != nil {
		return nil, fmt.Errorf("mutations %s: %w", path, err)
	}
	return ms, nil
}

// closeTrace flushes and closes the trace output, reporting either the
// writer's deferred encode error or the file close error — both used to
// be silently dropped, leaving truncated traces looking complete.
func closeTrace(f *os.File, tw *trace.Writer) error {
	if f == nil {
		return nil
	}
	if err := tw.Err(); err != nil {
		f.Close()
		return fmt.Errorf("trace write: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace close: %w", err)
	}
	return nil
}

func parseSpec(kind string, length uint32, stopProb float64) (walk.Spec, error) {
	switch kind {
	case "unbiased":
		return walk.Spec{Kind: walk.Unbiased, Length: length}, nil
	case "biased":
		return walk.Spec{Kind: walk.Biased, Length: length}, nil
	case "restart":
		return walk.Spec{Kind: walk.Restart, Length: length, StopProb: stopProb}, nil
	default:
		return walk.Spec{}, fmt.Errorf("unknown walk kind %q", kind)
	}
}

func printResult(r *core.Result) {
	fmt.Printf("simulated time        %v\n", r.Time)
	fmt.Printf("walks                 %d started, %d completed, %d dead-ended\n",
		r.Started, r.Completed, r.DeadEnded)
	fmt.Printf("hops                  %d (%.2fM hops/s)\n", r.Hops, r.HopRate()/1e6)
	fmt.Printf("flash read            %s (%d pages)\n", metrics.FormatBytes(r.Flash.ReadBytes), r.Flash.ReadPages)
	fmt.Printf("flash written         %s (%d pages)\n", metrics.FormatBytes(r.Flash.WriteBytes), r.Flash.ProgramPages)
	fmt.Printf("channel-bus traffic   %s\n", metrics.FormatBytes(r.Flash.ChannelBytes))
	fmt.Printf("subgraph loads        %d (%d buffer-resident)\n", r.SubgraphLoads, r.SubgraphReloads)
	fmt.Printf("roving walks          %d in %d batches\n", r.RovingWalks, r.RovingTransfers)
	fmt.Printf("updates: chip         %d\n", r.ChipUpdates)
	fmt.Printf("updates: channel hot  %d\n", r.HotHitsChannel)
	fmt.Printf("updates: board hot    %d\n", r.HotHitsBoard)
	fmt.Printf("pre-walks (dense)     %d\n", r.PreWalks)
	fmt.Printf("query cache hit rate  %.1f%% (%d hits, %d misses)\n",
		100*r.QueryCacheHitRate(), r.QueryCacheHits, r.QueryCacheMisses)
	fmt.Printf("PWB overflows         %d\n", r.PWBOverflows)
	fmt.Printf("foreigner walks       %d (%d flushes)\n", r.ForeignerWalks, r.ForeignerFlushes)
	fmt.Printf("partition switches    %d\n", r.PartitionSwitches)
	if r.MutationsApplied != 0 {
		fmt.Printf("mutations applied     %d\n", r.MutationsApplied)
	}
	fmt.Printf("chip updater util     %.1f%% mean / %.1f%% max\n",
		100*r.ChipUpdaterUtil, 100*r.ChipUpdaterUtilMax)
	fmt.Printf("channel bus util max  %.1f%%\n", 100*r.ChannelBusUtilMax)
	if r.Boards > 1 {
		fmt.Printf("boards                %d\n", r.Boards)
		fmt.Printf("fabric traffic        %s (%d walks in %d batches)\n",
			metrics.FormatBytes(r.FabricBytes), r.FabricWalks, r.FabricBatches)
		if r.BoardKills != 0 {
			fmt.Printf("board kills           %d (%d walks evacuated)\n", r.BoardKills, r.EvacuatedWalks)
		}
	}
	if r.Faults != (fault.Counters{}) || r.FaultReroutes != 0 || r.FailoverBlocks != 0 {
		fmt.Printf("faults: read errors   %d (%d retries, %d exhausted)\n",
			r.Faults.ReadErrors, r.Faults.Retries, r.Faults.RetriesExhausted)
		fmt.Printf("faults: plane stalls  %d (%v stalled, %v backoff)\n",
			r.Faults.PlaneBusyStalls, r.Faults.StallTime, r.Faults.BackoffTime)
		fmt.Printf("faults: degradation   %d chips, %d blocks failed over, %d walks rerouted\n",
			r.Faults.DegradedChips, r.FailoverBlocks, r.FaultReroutes)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "flashwalker:", err)
	os.Exit(1)
}
