package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime/debug"
	"time"

	"flashwalker/internal/core"
	"flashwalker/internal/graph"
	"flashwalker/internal/harness"
	"flashwalker/internal/walk"
)

// engineWorkload is one in-process simulator workload: a dataset, a walk
// kind and count, a board count, and an optional rewire stream.
type engineWorkload struct {
	dataset      string
	walks        int
	boards       int
	spec         walk.Spec // zero value: the harness default (unbiased, length 6)
	rewires      int
	rewireSpanNS int64 // the rewires' at_ns are spread over (0, rewireSpanNS]
}

// Toy size, for smoke tests: a run takes milliseconds.
const (
	toyWalks        = 2_000
	toyRewires      = 20
	toyRewireSpanNS = 100_000
)

// setups is how many times a run sets up; setup_s is their median.
func setups(toy bool) int {
	if toy {
		return 1
	}
	return 3
}

// freshHeap collects garbage and returns freed memory to the OS, so each
// set-up and rep starts as a new process would, and neither its time nor
// the peak RSS depends on when the collector or scavenger last ran.
func freshHeap() { debug.FreeOSMemory() }

// runner is the one method the single-board Engine and the Array share.
type runner interface {
	RunContext(ctx context.Context) (*core.Result, error)
}

func construct(g *graph.Graph, rc core.RunConfig) (runner, error) {
	if rc.Cfg.Boards > 1 {
		return core.NewArray(g, rc)
	}
	return core.NewEngine(g, rc)
}

// outcome is the part of a run's result that must repeat exactly: for a
// host-only change every field is frozen.
type outcome struct {
	Started, Completed, DeadEnded int
	Hops                          uint64
	SimNS                         int64
	FlashRead, FlashWrite         int64
	FilterProbes, Mutations       uint64
}

func outcomeOf(r *core.Result) outcome {
	return outcome{
		Started: r.Started, Completed: r.Completed, DeadEnded: r.DeadEnded,
		Hops: r.Hops, SimNS: int64(r.Time),
		FlashRead: r.Flash.ReadBytes, FlashWrite: r.Flash.WriteBytes,
		FilterProbes: r.FilterProbes, Mutations: r.MutationsApplied,
	}
}

func (o outcome) digest() string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", o)))
	return hex.EncodeToString(sum[:8])
}

// check returns the invariant violations of one finished run of want walks.
func (o outcome) check(want int) []string {
	var p []string
	if o.Started != want {
		p = append(p, fmt.Sprintf("started %d walks, want %d", o.Started, want))
	}
	if o.Started != o.Completed+o.DeadEnded {
		p = append(p, fmt.Sprintf("started %d != completed %d + dead-ended %d", o.Started, o.Completed, o.DeadEnded))
	}
	return p
}

// checkRecords returns the violations of a run's exported walk records:
// one per finished walk, with sequence numbers from 0 without a gap.
func (o outcome) checkRecords(records uint64, seqOK bool) []string {
	var p []string
	if !seqOK {
		p = append(p, "walk record sequence has a gap or does not start at 0")
	}
	if records != uint64(o.Completed+o.DeadEnded) {
		p = append(p, fmt.Sprintf("%d walk records for %d finished walks", records, o.Completed+o.DeadEnded))
	}
	return p
}

// repOut is one engine run: construction plus RunContext.
type repOut struct {
	res            *core.Result
	construct, run time.Duration
	events         uint64 // simulated events; counted by exported reps only
	problems       []string
}

// engineRep constructs and runs one engine, recording spans under trace
// id when the tracer is on. With export set, the run also exports its walk
// records and reports progress, so the rep checks the records and counts
// the simulated events; timed reps leave it off, as the harness does.
func engineRep(g *graph.Graph, rc core.RunConfig, tr *tracer, trace string, export bool) repOut {
	var out repOut
	var records uint64
	seqOK := true
	if export {
		rc.OnWalks = func(recs []core.WalkDone) {
			for _, r := range recs {
				if r.Seq != records {
					seqOK = false
				}
				records++
			}
		}
		rc.OnProgress = func(p core.Progress) { out.events = p.Events }
	}
	t0 := time.Now()
	r, err := construct(g, rc)
	t1 := time.Now()
	if err != nil {
		out.problems = append(out.problems, fmt.Sprintf("construct: %v", err))
		return out
	}
	res, err := r.RunContext(context.Background())
	t2 := time.Now()
	if err != nil {
		out.problems = append(out.problems, fmt.Sprintf("run: %v", err))
		return out
	}
	root := tr.add(trace, "rep", 0, t0, t2)
	tr.add(trace, "core.construct", root, t0, t1)
	tr.add(trace, "core.run", root, t1, t2)
	// A single engine's Result lives inside the Engine: keep a copy, so a
	// kept rep does not keep its whole engine reachable.
	kept := *res
	out.res, out.construct, out.run = &kept, t1.Sub(t0), t2.Sub(t1)
	o := outcomeOf(res)
	out.problems = o.check(rc.NumWalks)
	if export {
		out.problems = append(out.problems, o.checkRecords(records, seqOK)...)
	}
	return out
}

func (w engineWorkload) size(toy bool) engineWorkload {
	if toy {
		w.walks = toyWalks
		if w.rewires > 0 {
			w.rewires, w.rewireSpanNS = toyRewires, toyRewireSpanNS
		}
	}
	return w
}

// run measures the workload: set-up several times, one untimed warm-up
// rep, then timed reps for the run's seconds. A traced run spends the
// first half untraced and the second half with spans and a CPU profile.
func (w engineWorkload) run(s *session) error {
	d, err := harness.DatasetByName(w.dataset)
	if err != nil {
		return err
	}
	w = w.size(s.o.toy)
	rc := harness.FlashWalkerConfig(d, core.AllOptions(), w.walks, s.o.seed)
	if w.spec.Length > 0 {
		rc.Spec = w.spec
	}
	rc.Cfg.Boards = w.boards

	var setupS, genS []float64
	var g *graph.Graph
	for i := 0; i < setups(s.o.toy); i++ {
		trace := fmt.Sprintf("setup-%d", i)
		freshHeap()
		t0 := time.Now()
		g, err = d.Gen()
		gen := time.Now()
		if err != nil {
			return fmt.Errorf("generating %s: %w", w.dataset, err)
		}
		genS = append(genS, gen.Sub(t0).Seconds())
		streamGen, ready := gen, gen
		if w.rewires > 0 {
			rc.Mutations, err = rewireStream(g, w.rewires, w.rewireSpanNS, s.o.seed)
			streamGen = time.Now()
			if err != nil {
				return err
			}
			if err := core.ValidateMutations(g, rc.PartCfg, rc.Mutations); err != nil {
				return fmt.Errorf("rewire stream: %w", err)
			}
			ready = time.Now()
		}
		if _, err := construct(g, rc); err != nil {
			return fmt.Errorf("constructing the engine: %w", err)
		}
		end := time.Now()
		root := s.tr.add(trace, "setup", 0, t0, end)
		s.tr.add(trace, "graph.generate", root, t0, gen)
		if w.rewires > 0 {
			s.tr.add(trace, "stream.generate", root, gen, streamGen)
			s.tr.add(trace, "stream.validate", root, streamGen, ready)
		}
		s.tr.add(trace, "core.construct", root, ready, end)
		setupS = append(setupS, end.Sub(t0).Seconds())
	}
	s.set("setup_s", median(setupS), "s")

	// Rep 0 is the untimed warm-up: it alone exports its walk records, so
	// the record checks and the event count cost no timed rep anything.
	var want string
	rep := func(i int) repOut {
		freshHeap()
		r := engineRep(g, rc, s.tr, fmt.Sprintf("rep-%d", i), i == 0)
		if r.res != nil {
			got := outcomeOf(r.res).digest()
			if want == "" {
				want = got
				r.problems = append(r.problems, s.checkPin(got)...)
			} else if got != want {
				r.problems = append(r.problems, fmt.Sprintf("digest %s differs from rep 0's %s", got, want))
			}
		}
		s.check(fmt.Sprintf("rep %d", i), r.problems)
		return r
	}
	s.tr.on = false
	warm := rep(0)
	if warm.res == nil {
		return fmt.Errorf("warm-up rep failed: %v", warm.problems)
	}

	// Timed reps. A traced run alternates untraced and traced reps, so a
	// drift in the host's speed cannot pass for tracing overhead.
	budget := time.Duration(s.o.seconds * float64(time.Second))
	var plain, traced []repOut
	start := time.Now()
	var last time.Duration
	for i := 1; len(plain) == 0 || (s.o.trace && len(traced) == 0) || time.Since(start)+last/2 < budget; i++ {
		var r repOut
		on := s.o.trace && i%2 == 0
		if on {
			if err := s.traced(func() { r = rep(i) }); err != nil {
				return err
			}
		} else {
			r = rep(i)
		}
		if r.res == nil {
			return fmt.Errorf("rep %d failed: %v", i, r.problems)
		}
		last = r.construct + r.run
		if on {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	res := warm.res
	e2e := repMetrics(plain)
	s.set("wall_mhops_s", e2e.mhops, "Mhops/s")
	s.set("sim_us", float64(res.Time)/1e3, "us")
	s.set("job_p50_ms", e2e.jobMS, "ms")
	if !s.o.trace {
		return nil
	}

	if err := s.cpu(); err != nil {
		return err
	}
	s.tr.on = true
	s.set("graph.generate_s", median(genS), "s")
	tm := repMetrics(traced)
	s.set("trace_overhead_pct", 100*(e2e.mhops/tm.mhops-1), "%")
	s.set("core.construct_s", median(s.tr.durations("core.construct"))/1e3, "s")
	s.set("core.run_s", median(s.tr.durations("core.run"))/1e3, "s")
	s.set("sim.events", float64(warm.events), "count")
	s.set("sim.host_ns_per_event", tm.runNS/float64(warm.events), "ns")
	s.resultLayers(res)
	s.set("partition.partition_ms", partitionMS(g, rc), "ms")
	if err := s.serviceProbe(); err != nil {
		return err
	}
	return s.probes()
}

// repStats are the medians over a set of reps.
type repStats struct {
	mhops, jobMS, runNS float64
}

func repMetrics(reps []repOut) repStats {
	var mh, job, run []float64
	for _, r := range reps {
		mh = append(mh, float64(r.res.Hops)/r.run.Seconds()/1e6)
		job = append(job, ms(r.construct+r.run))
		run = append(run, float64(r.run.Nanoseconds()))
	}
	return repStats{mhops: median(mh), jobMS: median(job), runNS: median(run)}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// resultLayers reports the simulator's own counters for one run. They
// depend only on the inputs, so a host-only change must leave them equal.
func (s *session) resultLayers(r *core.Result) {
	const mib = 1 << 20
	s.set("graph.mutations_applied", float64(r.MutationsApplied), "count")
	s.set("flash.read_mib", float64(r.Flash.ReadBytes)/mib, "MiB")
	s.set("flash.write_mib", float64(r.Flash.WriteBytes)/mib, "MiB")
	s.set("core.query_cache_hit_ratio", r.QueryCacheHitRate(), "ratio")
	s.set("core.subgraph_reload_ratio", ratio(r.SubgraphReloads, r.SubgraphLoads), "ratio")
	s.set("core.roving_walks_per_batch", ratio(r.RovingWalks, r.RovingTransfers), "walks")
	s.set("core.filter_probes_per_hop", ratio(r.FilterProbes, r.Hops), "ratio")
	s.set("core.pwb_overflows", float64(r.PWBOverflows), "count")
	s.set("core.fabric_mib", float64(r.FabricBytes)/mib, "MiB")
	s.set("core.channel_bus_util_max", r.ChannelBusUtilMax, "ratio")
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// checkPin records a run's outcome digest and returns a violation if it
// differs from the digest pinned for this workload, size and seed.
func (s *session) checkPin(digest string) []string {
	size := "full"
	if s.o.toy {
		size = "toy"
	}
	key := fmt.Sprintf("%s/%s/seed=%d", s.o.workload, size, s.o.seed)
	s.notes = append(s.notes, fmt.Sprintf("outcome digest %s (%s)", digest, key))
	if pin, ok := s.pinned[key]; ok && pin != digest {
		return []string{fmt.Sprintf("digest %s differs from the pinned %s for %s", digest, pin, key)}
	}
	return nil
}
