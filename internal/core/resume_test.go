package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"flashwalker/internal/errs"
	"flashwalker/internal/fault"
	"flashwalker/internal/flash"
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
func resumeContext(ctx context.Context, g *graph.Graph, snap *Snapshot, obs Observers) (*Result, error) {
	e, err := ResumeEngine(g, snap, obs)
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
			res, err := resumeContext(context.Background(), g, snap, Observers{})
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
	res, err := resumeContext(context.Background(), g, cuts[0], Observers{
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
	// A preloading cut has a tier whose preload completions are pending,
	// so it is not yet ready.
	inPreload := func(s *Snapshot) bool {
		if !s.Preloading() {
			return false
		}
		for i := range s.Boards {
			for _, op := range s.Boards[i].Flash.Ops {
				if op.Remaining > 0 {
					return true
				}
			}
		}
		return false
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
			res, err := resumeContext(context.Background(), g, snap, Observers{})
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

// derivedCounts is every count resume derives rather than reads from the
// image, as an engine holds it: the walks on the fabric and left to
// finish, the channel ticks pending, and each board's counts.
type derivedCounts struct {
	InFabric, Remaining, Ticks int
	Boards                     []boardCounts
}

// boardCounts is one board's share of derivedCounts: its read-back pages
// left, active walks, foreigner-buffer bytes and done flag, each chip
// slot's load parts left and loading flag, the board and channel tiers'
// pending preload blocks and ready flags, and every tier's hot-queue bytes.
type boardCounts struct {
	SwitchLeft, ActiveCur int
	ForeignerBufBytes     int64
	Finished              bool
	LoadLeft              []int
	Loading               []bool
	HotPending            []int
	HotReady              []bool
	QueueBytes            []int64
}

func countsOf(e *Engine) derivedCounts {
	d := derivedCounts{InFabric: e.inFabric, Remaining: e.remaining, Ticks: e.ticks}
	for _, be := range e.boards {
		bc := boardCounts{SwitchLeft: be.switchLeft, ActiveCur: be.activeCur,
			ForeignerBufBytes: be.foreignerBufBytes, Finished: be.finished}
		for _, c := range be.chips {
			for _, s := range c.slots {
				bc.LoadLeft = append(bc.LoadLeft, s.loadLeft)
				bc.Loading = append(bc.Loading, s.loading)
			}
			bc.QueueBytes = append(bc.QueueBytes, c.queueBytes)
		}
		hot := []*tierCommon{&be.board.tierCommon}
		for _, ca := range be.chans {
			hot = append(hot, &ca.tierCommon)
		}
		for _, t := range hot {
			bc.HotPending = append(bc.HotPending, t.hotPending)
			bc.HotReady = append(bc.HotReady, t.hotReady)
			bc.QueueBytes = append(bc.QueueBytes, t.queueBytes)
		}
		d.Boards = append(d.Boards, bc)
	}
	return d
}

// stressDigest4 pins the timeline of TestResumeDerivesCounters' 4-board
// run, whose foreigner flushes are read back at partition switches: the
// read-back's page count follows from its walks, as the image's
// PendingFlashBytes did.
const stressDigest4 = "time=1870000 started=500 completed=500 dead=0 hops=3000 " +
	"readPages=652 progPages=153 readB=2670592 chanB=2503472 " +
	"dramR=45820 dramW=6040 " +
	"qcHit=363 qcMiss=4365 search=21267 range=347 prewalk=0 " +
	"hotCh=96 hotBd=2599 chip=305 loads=64 reloads=32 " +
	"pwb=0 foreign=2075 switches=58"

// TestResumeDerivesCounters resumes every cut of three workloads after a
// codec round trip: the golden one on one board and two, and a 4-board run
// with faults that degrade chips, a board kill, a timed mutation stream and
// a foreigner buffer small enough to flush. Each count resume derives must
// equal the live engine's at that cut, and each must be nonzero (or set,
// or clear) at some cut, so a derivation left at zero fails here too. The
// 4-board run's timeline is pinned (stressDigest4), and a run that does
// not finish within a minute fails rather than hangs.
func TestResumeDerivesCounters(t *testing.T) {
	g := testGraph(t)
	mg, edges := mutTestGraph(t, false)
	stress := mutConfig(false)
	stress.Cfg.Boards = 4
	stress.Cfg.Faults = resumeFaultConfig()
	stress.Cfg.ForeignerBufBytes = 256
	clocks := probeClocks(t, mg, stress)
	ms := mutStream(edges, false)
	stress.Mutations = timedStream(ms, midStreamTimes(t, len(ms), clocks))
	stress.Cfg.Faults.KillBoard = 1
	stress.Cfg.Faults.KillBoardAt = clocks[len(clocks)/3]

	seen, ran := map[string]bool{}, 0
	note := func(c derivedCounts, started int) {
		seen["fabric"] = seen["fabric"] || c.InFabric > 0
		seen["ticks"] = seen["ticks"] || c.Ticks > 0
		seen["finished walks"] = seen["finished walks"] || c.Remaining < started
		for _, b := range c.Boards {
			seen["read-back"] = seen["read-back"] || b.SwitchLeft > 0
			seen["active"] = seen["active"] || b.ActiveCur > 0
			seen["foreigner buffer"] = seen["foreigner buffer"] || b.ForeignerBufBytes > 0
			seen["board done"] = seen["board done"] || b.Finished
			seen["load parts"] = seen["load parts"] || slices.ContainsFunc(b.LoadLeft, func(n int) bool { return n > 0 })
			seen["loading"] = seen["loading"] || slices.Contains(b.Loading, true)
			seen["preload"] = seen["preload"] || slices.ContainsFunc(b.HotPending, func(n int) bool { return n > 0 })
			seen["not ready"] = seen["not ready"] || slices.Contains(b.HotReady, false)
			seen["hot queue"] = seen["hot queue"] || slices.ContainsFunc(b.QueueBytes, func(n int64) bool { return n > 0 })
		}
	}
	for _, tc := range []struct {
		name, digest string
		g            *graph.Graph
		rc           RunConfig
	}{
		{"golden-1", goldenDigest, g, arrayConfig(1)},
		{"golden-2", arrayGoldenDigest2, g, arrayConfig(2)},
		{"stress-4", stressDigest4, mg, stress},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ran++
			var live *Engine
			cuts := 0
			rc := tc.rc
			rc.CheckpointEvery, rc.SnapshotEvery = 64, 1
			rc.OnSnapshot = func(s *Snapshot) {
				cuts++
				want := countsOf(live)
				e, err := ResumeEngine(tc.g, cloneSnapshot(t, s), Observers{})
				if err != nil {
					t.Fatalf("cut %d: resume: %v", cuts, err)
				}
				if got := countsOf(e); !reflect.DeepEqual(got, want) {
					t.Fatalf("cut %d: resume derived\n%+v\nthe live engine holds\n%+v", cuts, got, want)
				}
				note(want, live.numStarted)
			}
			e, err := NewEngine(tc.g, rc)
			if err != nil {
				t.Fatal(err)
			}
			live = e
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			res, err := e.RunContext(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got := digestResult(res); got != tc.digest {
				t.Fatalf("digest changed:\n got %s\nwant %s", got, tc.digest)
			}
			if cuts == 0 {
				t.Fatal("the run took no cut")
			}
			t.Logf("%d cuts", cuts)
			if tc.rc.Cfg.Faults.KillBoardAt > 0 && (res.BoardKills != 1 || res.ForeignerFlushes == 0 ||
				res.Faults.DegradedChips == 0 || res.MutationsApplied != uint64(len(ms))) {
				t.Fatalf("stress run killed %d boards, flushed %d times, degraded %d chips, applied %d mutations",
					res.BoardKills, res.ForeignerFlushes, res.Faults.DegradedChips, res.MutationsApplied)
			}
		})
	}
	if ran < 3 {
		return // a subtest was filtered out
	}
	for _, what := range []string{"fabric", "ticks", "finished walks", "read-back", "active", "foreigner buffer", "board done",
		"load parts", "loading", "preload", "not ready", "hot queue"} {
		if !seen[what] {
			t.Errorf("no cut shows %s", what)
		}
	}
}

// TestStalledRunFails resumes a golden mid-run cut without the audit, as
// the daemon runs, and breaks the resumed engine in one of two ways: a
// loading slot waits on one load part more than is pending, or a parked
// walk is dropped. Either leaves walks no completion will ever hand on,
// and once only channel ticks are pending the run must fail with the
// stalled error, well inside a ten-second deadline, rather than tick until
// it.
func TestStalledRunFails(t *testing.T) {
	g := testGraph(t)
	cut := interruptWhen(t, g, goldenConfig(), 1, func(s *Snapshot) bool {
		loading := slices.ContainsFunc(s.Boards[0].Flash.Ops, func(op flash.OpState) bool {
			return op.Remaining > 0 && !op.Done.None() && op.Done.Kind == evLoadPart
		})
		parked := slices.ContainsFunc(s.Boards[0].PendingMem, func(rec WalkRecords) bool { return rec != nil })
		return !s.Preloading() && loading && parked
	})
	cases := map[string]func(t *testing.T, be *boardEngine){
		"load part never comes": func(t *testing.T, be *boardEngine) {
			for _, c := range be.chips {
				for _, sl := range c.slots {
					if sl.loading {
						sl.loadLeft++
						return
					}
				}
			}
			t.Fatal("no slot is loading")
		},
		"parked walk dropped": func(t *testing.T, be *boardEngine) {
			for p, ws := range be.pendingMem {
				if len(ws) == 0 {
					continue
				}
				be.pendingMem[p] = ws[1:]
				if be.flushMark[p] > 0 {
					be.flushMark[p]--
				} else {
					be.foreignerBufBytes -= walk.StateBytes
				}
				be.dropWalk(ws[0])
				return
			}
			t.Fatal("no walk is parked")
		},
	}
	for name, lose := range cases {
		t.Run(name, func(t *testing.T) {
			s := cloneSnapshot(t, cut)
			s.Audit = false
			e, err := ResumeEngine(g, s, Observers{})
			if err != nil {
				t.Fatal(err)
			}
			lose(t, e.boards[0])
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if _, err := e.RunContext(ctx); err == nil || !strings.Contains(err.Error(), "simulation stalled") {
				t.Fatalf("run ended with %v, want the stalled error", err)
			}
		})
	}
}

// TestResumeChecksConservation: the walks an image files in its boards'
// tables plus those on the fabric must number NumWalks - WalksFinished().
// Each edit breaks only that identity — a walk-carrying event or a fabric
// arrival duplicated, a walk appended to or dropped from a store, one more
// walk counted finished — and resume must refuse it by that check, on one
// board and two.
func TestResumeChecksConservation(t *testing.T) {
	g := testGraph(t)
	dup := func(t *testing.T, s *Snapshot, want func(ev sim.SavedEvent) bool) {
		i := slices.IndexFunc(s.Sim.Events, want)
		if i < 0 {
			t.Fatal("cut has no pending event of the wanted kind")
		}
		dupEvent(t, s, i)
	}
	cases := map[string]func(t *testing.T, s *Snapshot){
		"walk-carrying event duplicated": func(t *testing.T, s *Snapshot) {
			dup(t, s, func(ev sim.SavedEvent) bool {
				return ev.Target == targetBoard(0) && eventPayload[ev.Kind]&payWalk != 0
			})
		},
		"walk appended to a PWB store": func(t *testing.T, s *Snapshot) { appendPWBWalk(t, &s.Boards[0]) },
		"walk dropped from a PWB store": func(t *testing.T, s *Snapshot) {
			editPWB(t, &s.Boards[0], func(ws []int32) []int32 { return ws[1:] })
		},
		"one more walk finished": func(t *testing.T, s *Snapshot) { s.Boards[0].Res.Completed++ },
	}
	for _, nb := range []int{1, 2} {
		cut := carryingCut(t, nb)
		if _, err := ResumeEngine(g, cloneSnapshot(t, cut), Observers{}); err != nil {
			t.Fatalf("boards=%d: unmodified cut rejected: %v", nb, err)
		}
		if nb > 1 {
			cases["fabric arrival duplicated"] = func(t *testing.T, s *Snapshot) {
				dup(t, s, func(ev sim.SavedEvent) bool { return ev.Target == targetDriver && ev.Kind == evFabricArrive })
			}
		}
		for name, edit := range cases {
			t.Run(fmt.Sprintf("boards=%d/%s", nb, name), func(t *testing.T) {
				s := cloneSnapshot(t, cut)
				edit(t, s)
				if _, err := ResumeEngine(g, s, Observers{}); err == nil || !strings.Contains(err.Error(), "started and") {
					t.Fatalf("resume: %v, want the conservation refusal", err)
				}
			})
		}
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
	e, err := ResumeEngine(g, first, Observers{
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

	res, err := resumeContext(context.Background(), g, second, Observers{})
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
	if _, err := ResumeEngine(other, snap, Observers{}); err == nil {
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
