package core

import (
	"context"
	"errors"
	"testing"

	"flashwalker/internal/errs"
	"flashwalker/internal/sim"
	"flashwalker/internal/trace"
)

// arrayGoldenDigest2 pins the golden workload's full timeline on a 2-board
// array, the multi-board counterpart of goldenDigest: any change to fabric
// timing, shard placement, or cross-board event ordering moves it. The same
// update discipline applies — refactors keep it bit-identical, intentional
// behaviour changes must say so.
const arrayGoldenDigest2 = "time=1018000 started=500 completed=416 dead=84 hops=2564 " +
	"readPages=590 progPages=0 readB=2416640 chanB=477972 " +
	"dramR=39360 dramW=39360 " +
	"qcHit=436 qcMiss=2040 search=8040 range=1559 prewalk=0 " +
	"hotCh=217 hotBd=444 chip=1987 loads=836 reloads=342 " +
	"pwb=0 foreign=496 switches=11"

// arrayConfig is goldenConfig on nb boards.
func arrayConfig(nb int) RunConfig {
	rc := goldenConfig()
	rc.Cfg.Boards = nb
	return rc
}

// TestArrayBoards1MatchesGolden is the behaviour-preservation proof of the
// array layer: an explicit 1-board config reproduces the golden digest of
// the default config bit for bit — the shared-kernel driver added no
// events, changed no ordering, and moved no RNG draw.
func TestArrayBoards1MatchesGolden(t *testing.T) {
	g := testGraph(t)
	res := runEngine(t, g, arrayConfig(1))
	if got := digestResult(res); got != goldenDigest {
		t.Fatalf("1-board array diverged from the single-board golden digest:\n got %s\nwant %s", got, goldenDigest)
	}
	if res.Boards != 1 || res.FabricWalks != 0 || res.FabricBytes != 0 {
		t.Fatalf("1-board array used the fabric: %+v", res)
	}
}

// TestArrayGoldenDigest2 pins the 2-board timeline (and is the multi-board
// golden-digest check the CI race lane runs by name).
func TestArrayGoldenDigest2(t *testing.T) {
	g := testGraph(t)
	res := runEngine(t, g, arrayConfig(2))
	if got := digestResult(res); got != arrayGoldenDigest2 {
		t.Fatalf("2-board golden digest changed:\n got %s\nwant %s", got, arrayGoldenDigest2)
	}
	if res.FabricWalks == 0 || res.FabricBatches == 0 || res.FabricBytes == 0 {
		t.Fatalf("2-board run shipped nothing over the fabric: %+v", res)
	}
}

// TestArrayRepeatable guards multi-board determinism: two arrays built from
// the same RunConfig produce identical digests.
func TestArrayRepeatable(t *testing.T) {
	g := testGraph(t)
	for _, nb := range []int{2, 3} {
		a := digestResult(runEngine(t, g, arrayConfig(nb)))
		b := digestResult(runEngine(t, g, arrayConfig(nb)))
		if a != b {
			t.Fatalf("%d boards: same config, different digests:\n a %s\n b %s", nb, a, b)
		}
	}
}

// TestArrayOutcomeEquality is the fabric's metamorphic invariant: because
// every walk owns an RNG stream derived from its global index, trajectories
// depend only on (walk, graph) — board count and fabric timing change when
// walks finish, never where they go. Walk outcomes and per-vertex visit
// counts must match the single-board engine exactly for any board count.
func TestArrayOutcomeEquality(t *testing.T) {
	g := testGraph(t)
	rc := goldenConfig()
	rc.TrackVisits = true
	clean := runEngine(t, g, rc)
	for _, nb := range []int{1, 2, 3, 4} {
		rcN := rc
		rcN.Cfg.Boards = nb
		res := runEngine(t, g, rcN)
		if res.Started != clean.Started || res.Completed != clean.Completed ||
			res.DeadEnded != clean.DeadEnded || res.Hops != clean.Hops {
			t.Fatalf("%d boards: outcomes (%d/%d/%d/%d) != single-board (%d/%d/%d/%d)",
				nb, res.Started, res.Completed, res.DeadEnded, res.Hops,
				clean.Started, clean.Completed, clean.DeadEnded, clean.Hops)
		}
		if len(res.Visits) != len(clean.Visits) {
			t.Fatalf("%d boards: visit vector length %d, want %d", nb, len(res.Visits), len(clean.Visits))
		}
		for v := range clean.Visits {
			if res.Visits[v] != clean.Visits[v] {
				t.Fatalf("%d boards: vertex %d visited %d times, single-board %d",
					nb, v, res.Visits[v], clean.Visits[v])
			}
		}
		if nb > 1 && res.FabricWalks == 0 {
			t.Fatalf("%d boards: no fabric traffic on a multi-partition workload", nb)
		}
	}
}

// TestArrayWalksConserved runs a larger multi-board workload with the
// fleet-wide conservation audit on and every stress knob that moves walks
// between stores (tiny foreigner buffer, tiny PWB entries, many partitions).
func TestArrayWalksConserved(t *testing.T) {
	g := testGraph(t)
	rc := testConfig()
	rc.Cfg.Boards = 3
	rc.Audit = true
	rc.PartCfg.SubgraphsPerPartition = 8
	rc.Cfg.ForeignerBufBytes = 256
	rc.Cfg.PartitionWalkEntryBytes = 64
	rc.NumWalks = 500
	res := runEngine(t, g, rc)
	if res.WalksFinished() != res.Started {
		t.Fatalf("finished %d of %d walks", res.WalksFinished(), res.Started)
	}
	if res.ForeignerFlushes == 0 {
		t.Fatal("tiny foreigner buffer never flushed on the array path")
	}
	if res.PartitionSwitches < uint64(res.Boards) {
		t.Fatalf("only %d partition switches across %d boards", res.PartitionSwitches, res.Boards)
	}
}

// TestArrayFabricTimingMatters checks the fabric is a real modeled resource:
// slowing it down must stretch the simulated end-to-end time without
// changing any walk outcome.
func TestArrayFabricTimingMatters(t *testing.T) {
	g := testGraph(t)
	fast := runEngine(t, g, arrayConfig(2))
	slow := arrayConfig(2)
	slow.Cfg.FabricLatency = 200 * sim.Microsecond
	slow.Cfg.FabricBytesPerSec = 1 << 20
	sres := runEngine(t, g, slow)
	if sres.Time <= fast.Time {
		t.Fatalf("slow fabric finished in %v, fast fabric in %v", sres.Time, fast.Time)
	}
	if sres.Hops != fast.Hops || sres.Completed != fast.Completed {
		t.Fatal("fabric timing changed walk outcomes")
	}
}

// TestNewArrayRejectsBadInput covers the array-specific construction guards.
func TestNewArrayRejectsBadInput(t *testing.T) {
	g := testGraph(t)

	rc := arrayConfig(2)
	rc.ProgressBin = 100 * sim.Microsecond
	if _, err := NewArray(g, rc); !errors.Is(err, errs.ErrInvalidConfig) {
		t.Fatalf("ProgressBin on an array: %v, want ErrInvalidConfig", err)
	}

	rc = arrayConfig(2)
	rc.Tracer = trace.NewRecorder()
	if _, err := NewArray(g, rc); !errors.Is(err, errs.ErrInvalidConfig) {
		t.Fatalf("Tracer on an array: %v, want ErrInvalidConfig", err)
	}

	rc = arrayConfig(2)
	rc.Cfg.FabricBytesPerSec = 0
	if _, err := NewArray(g, rc); !errors.Is(err, errs.ErrInvalidConfig) {
		t.Fatalf("zero fabric bandwidth: %v, want ErrInvalidConfig", err)
	}

	rc = arrayConfig(MaxBoards + 1)
	if _, err := NewArray(g, rc); !errors.Is(err, errs.ErrInvalidConfig) {
		t.Fatalf("%d boards accepted: %v", MaxBoards+1, err)
	}
}

// TestHandlerIDsPinned: construction registers the engine's handlers with
// the kernel in the order images name them — the driver 0, board b's
// engine 1+2b and its SSD 2+2b — and a run registers no other, on one, two
// and four boards.
func TestHandlerIDsPinned(t *testing.T) {
	g := testGraph(t)
	for _, nb := range []int{1, 2, 4} {
		e, err := NewEngine(g, arrayConfig(nb))
		if err != nil {
			t.Fatal(err)
		}
		check := func(when string) {
			t.Helper()
			if n := e.eng.Handlers(); n != 1+2*nb {
				t.Fatalf("boards=%d %s: kernel holds %d handlers, want %d", nb, when, n, 1+2*nb)
			}
			if targetDriver != 0 || e.eng.Handler(0) != sim.Handler(e) {
				t.Fatalf("boards=%d %s: handler 0 is not the driver", nb, when)
			}
			for b, be := range e.boards {
				if targetBoard(b) != int32(1+2*b) || e.eng.Handler(int32(1+2*b)) != sim.Handler(be) {
					t.Fatalf("boards=%d %s: handler %d is not board %d's engine", nb, when, 1+2*b, b)
				}
				if targetSSD(b) != int32(2+2*b) || e.eng.Handler(int32(2+2*b)) != sim.Handler(be.ssd) {
					t.Fatalf("boards=%d %s: handler %d is not board %d's SSD", nb, when, 2+2*b, b)
				}
			}
		}
		check("at construction")
		if _, err := e.RunContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		check("after the run")
	}
}
