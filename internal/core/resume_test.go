package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"flashwalker/internal/errs"
	"flashwalker/internal/fault"
	"flashwalker/internal/graph"
	"flashwalker/internal/sim"
	"flashwalker/internal/snapshot"
	"flashwalker/internal/trace"
	"flashwalker/internal/walk"
)

// resumeFaultConfig is a fault mix aggressive enough to degrade chips and
// trigger failover during the golden workload.
func resumeFaultConfig() fault.Config {
	return fault.Config{
		Enabled:             true,
		Seed:                0xFA17,
		ReadErrorRate:       0.3,
		MaxRetries:          2,
		RetryBackoff:        5 * sim.Microsecond,
		DegradeAfterErrors:  2,
		DegradedReadPenalty: 30 * sim.Microsecond,
	}
}

// interruptCore runs rc until its snapshotAt-th successful snapshot,
// cancels the run at that exact checkpoint, and returns the snapshot after
// round-tripping it through the on-disk codec (so the test also proves the
// whole state image survives serialization, not just in-process copying).
func interruptCore(t *testing.T, g *graph.Graph, rc RunConfig, snapshotAt int) *Snapshot {
	t.Helper()
	return interruptWhen(t, g, rc, snapshotAt, nil)
}

// interruptWhen is interruptCore counting only the snapshots satisfying
// want (nil accepts every snapshot).
func interruptWhen(t testing.TB, g *graph.Graph, rc RunConfig, snapshotAt int, want func(*Snapshot) bool) *Snapshot {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var captured *Snapshot
	count := 0
	rc.CheckpointEvery = 64
	rc.SnapshotEvery = 1
	rc.OnSnapshot = func(s *Snapshot) {
		if want != nil && !want(s) {
			return
		}
		count++
		if count == snapshotAt {
			captured = s
			cancel()
		}
	}
	e, err := NewEngine(g, rc)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if _, err := e.RunContext(ctx); err == nil {
		t.Fatalf("run finished after only %d matching snapshots; interrupt never landed", count)
	}
	if captured == nil {
		t.Fatalf("run ended with %d matching snapshots, wanted %d", count, snapshotAt)
	}
	data, err := snapshot.Encode("core-engine", captured)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	back := new(Snapshot)
	if err := snapshot.Decode(data, "core-engine", back); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return back
}

// resumeContext is ResumeEngine followed by RunContext.
func resumeContext(ctx context.Context, g *graph.Graph, snap *Snapshot, opts ResumeOptions) (*Result, error) {
	e, err := ResumeEngine(g, snap, opts)
	if err != nil {
		return nil, err
	}
	return e.RunContext(ctx)
}

// TestResumeMetamorphic is the headline invariant of the checkpoint layer:
// for every walk kind, with and without fault injection, run-to-completion
// and snapshot -> kill -> serialize -> deserialize -> resume produce
// bit-identical Results — same full digest (timeline included) and same
// per-vertex visit counts.
func TestResumeMetamorphic(t *testing.T) {
	cases := map[string]struct {
		spec   walk.Spec
		faults fault.Config
	}{
		"unbiased":           {spec: walk.Spec{Kind: walk.Unbiased, Length: 6}},
		"unbiased-faults":    {spec: walk.Spec{Kind: walk.Unbiased, Length: 6}, faults: resumeFaultConfig()},
		"secondorder":        {spec: walk.Spec{Kind: walk.SecondOrder, Length: 6, P: 0.5, Q: 2}},
		"secondorder-faults": {spec: walk.Spec{Kind: walk.SecondOrder, Length: 6, P: 0.5, Q: 2}, faults: resumeFaultConfig()},
	}
	g := testGraph(t)
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			rc := goldenConfig()
			rc.Spec = tc.spec
			rc.Cfg.Faults = tc.faults
			rc.TrackVisits = true
			clean := runEngine(t, g, rc)

			snap := interruptCore(t, g, rc, 3)
			res, err := resumeContext(context.Background(), g, snap, ResumeOptions{})
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if got, want := digestResult(res), digestResult(clean); got != want {
				t.Fatalf("resumed run diverged from uninterrupted run:\n got %s\nwant %s", got, want)
			}
			if len(res.Visits) != len(clean.Visits) {
				t.Fatalf("visit vector length %d, want %d", len(res.Visits), len(clean.Visits))
			}
			for v := range clean.Visits {
				if res.Visits[v] != clean.Visits[v] {
					t.Fatalf("vertex %d visited %d times resumed, %d clean", v, res.Visits[v], clean.Visits[v])
				}
			}
		})
	}
}

// TestSnapshotMinIntervalDeliversFirstCut snapshots at every checkpoint
// with a one-hour minimum interval: the run delivers only its first due
// cut, and its Result is the unsnapshotted run's. A resume with the same
// interval from that cut delivers exactly one more.
func TestSnapshotMinIntervalDeliversFirstCut(t *testing.T) {
	g := testGraph(t)
	rc := goldenConfig()
	clean := runEngine(t, g, rc)

	var cuts []*Snapshot
	rc.CheckpointEvery, rc.SnapshotEvery = 64, 1
	rc.SnapshotMinInterval = time.Hour
	rc.OnSnapshot = func(s *Snapshot) { cuts = append(cuts, s) }
	snapped := runEngine(t, g, rc)
	if len(cuts) != 1 {
		t.Fatalf("%d cuts delivered within an hour, want 1", len(cuts))
	}
	if got, want := digestResult(snapped), digestResult(clean); got != want {
		t.Fatalf("run with a one-hour snapshot interval diverged:\n got %s\nwant %s", got, want)
	}

	var resumedCuts int
	res, err := resumeContext(context.Background(), g, cuts[0], ResumeOptions{
		OnSnapshot: func(*Snapshot) { resumedCuts++ }, SnapshotEvery: 1,
		SnapshotMinInterval: time.Hour, CheckpointEvery: 64,
	})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if resumedCuts != 1 {
		t.Fatalf("resumed run delivered %d cuts within an hour, want 1", resumedCuts)
	}
	if got, want := digestResult(res), digestResult(clean); got != want {
		t.Fatalf("resumed run diverged:\n got %s\nwant %s", got, want)
	}
}

// TestResumeDuringPreload cuts a run at its first snapshot taken while the
// time-0 hot-subgraph preload is still in flight — a tier not yet ready,
// its block reads live flash ops — round-trips it through the codec, and
// proves the resumed run lands on the golden digest with identical
// per-vertex visits, on one board and two.
func TestResumeDuringPreload(t *testing.T) {
	g := testGraph(t)
	inPreload := func(s *Snapshot) bool {
		if !s.Preloading() {
			return false
		}
		ready, live := true, false
		for i := range s.Boards {
			b := &s.Boards[i]
			ready = ready && b.Board.Tier.HotReady
			for j := range b.Chans {
				ready = ready && b.Chans[j].Tier.HotReady
			}
			for _, op := range b.Flash.Ops {
				live = live || op.Remaining > 0
			}
		}
		return !ready && live
	}
	for _, tc := range []struct {
		boards int
		digest string
	}{{1, goldenDigest}, {2, arrayGoldenDigest2}} {
		t.Run(fmt.Sprintf("boards=%d", tc.boards), func(t *testing.T) {
			rc := arrayConfig(tc.boards)
			rc.TrackVisits = true
			clean := runEngine(t, g, rc)

			snap := interruptWhen(t, g, rc, 1, inPreload)
			res, err := resumeContext(context.Background(), g, snap, ResumeOptions{})
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if got := digestResult(res); got != tc.digest {
				t.Fatalf("resume from a preload cut diverged:\n got %s\nwant %s", got, tc.digest)
			}
			assertSameVisits(t, res.Visits, clean.Visits)
		})
	}
}

// TestResumeChained proves snapshots compose: a resumed run keeps
// snapshotting, and resuming from a second-generation snapshot still lands
// on the uninterrupted result.
func TestResumeChained(t *testing.T) {
	g := testGraph(t)
	rc := goldenConfig()
	clean := runEngine(t, g, rc)

	first := interruptCore(t, g, rc, 2)

	// Resume, snapshot again further in, interrupt again.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var second *Snapshot
	count := 0
	e, err := ResumeEngine(g, first, ResumeOptions{
		CheckpointEvery: 64,
		SnapshotEvery:   1,
		OnSnapshot: func(s *Snapshot) {
			count++
			if count == 2 {
				second = s
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatalf("ResumeEngine: %v", err)
	}
	if _, err := e.RunContext(ctx); err == nil {
		t.Fatalf("second leg finished after %d snapshots; interrupt never landed", count)
	}
	if second == nil {
		t.Fatalf("second leg took %d snapshots, wanted 2", count)
	}

	res, err := resumeContext(context.Background(), g, second, ResumeOptions{})
	if err != nil {
		t.Fatalf("final resume: %v", err)
	}
	if got, want := digestResult(res), digestResult(clean); got != want {
		t.Fatalf("twice-resumed run diverged:\n got %s\nwant %s", got, want)
	}
}

// TestResumeRejectsWrongGraph guards against resuming over the wrong
// dataset: graph identity is validated before any state is overlaid.
func TestResumeRejectsWrongGraph(t *testing.T) {
	g := testGraph(t)
	snap := interruptCore(t, g, goldenConfig(), 1)

	other, err := graph.RMAT(graph.DefaultRMAT(1024, 8192, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeEngine(other, snap, ResumeOptions{}); err == nil {
		t.Fatal("resume over a different graph succeeded")
	} else if !errors.Is(err, errs.ErrInvalidConfig) {
		t.Fatalf("wrong-graph resume error %v, want ErrInvalidConfig", err)
	}
}

// TestSnapshotRejectsUncapturedObservers pins the validate rules that keep
// OnSnapshot honest: snapshots capture neither progress time series nor a
// tracer, so asking for both would silently lose them on resume.
func TestSnapshotRejectsUncapturedObservers(t *testing.T) {
	g := testGraph(t)
	rc := goldenConfig()
	rc.OnSnapshot = func(*Snapshot) {}
	rc.ProgressBin = 100 * sim.Microsecond
	if _, err := NewEngine(g, rc); !errors.Is(err, errs.ErrInvalidConfig) {
		t.Fatalf("OnSnapshot with ProgressBin: %v, want ErrInvalidConfig", err)
	}

	rc = goldenConfig()
	rc.OnSnapshot = func(*Snapshot) {}
	rc.Tracer = trace.NewRecorder()
	if _, err := NewEngine(g, rc); !errors.Is(err, errs.ErrInvalidConfig) {
		t.Fatalf("OnSnapshot with Tracer: %v, want ErrInvalidConfig", err)
	}
}

// foreignHandler is an event target the engine does not own.
type foreignHandler struct{}

func (foreignHandler) HandleEvent(sim.Event) {}

// TestSnapshotBuildErrorFailsRun proves a snapshot that cannot be built
// fails the run with the build error, instead of the run finishing without
// recovery points.
func TestSnapshotBuildErrorFailsRun(t *testing.T) {
	g := testGraph(t)
	rc := goldenConfig()
	rc.CheckpointEvery = 64
	snaps := 0
	rc.OnSnapshot = func(*Snapshot) { snaps++ }
	e, err := NewEngine(g, rc)
	if err != nil {
		t.Fatal(err)
	}
	e.eng.Schedule(sim.Second, sim.Event{Target: foreignHandler{}})
	_, err = e.RunContext(context.Background())
	if err == nil || !strings.Contains(err.Error(), "unknown event target core.foreignHandler") {
		t.Fatalf("run with a foreign event pending: %v, want an unknown-target error", err)
	}
	if snaps != 0 {
		t.Fatalf("%d snapshots delivered despite the build error", snaps)
	}
}
