package core

import (
	"context"
	"errors"
	"testing"

	"flashwalker/internal/errs"
	"flashwalker/internal/graph"
	"flashwalker/internal/sim"
)

// TestArrayResumeMetamorphic extends the PR-5 resume invariant to arrays:
// a 2-board run interrupted at a snapshot that has walks IN FLIGHT on the
// fabric (in-fabric count > 0, so egress buffers and pending evFabricArrive
// events are part of the restored image), serialized, deserialized, and
// resumed lands on a bit-identical Result to the uninterrupted run.
func TestArrayResumeMetamorphic(t *testing.T) {
	g := testGraph(t)
	rc := arrayConfig(2)
	rc.TrackVisits = true
	clean := runEngine(t, g, rc)

	snap := interruptWhen(t, g, rc, 1, func(s *Snapshot) bool { return s.InFabric > 0 })
	if snap.InFabric == 0 {
		t.Fatal("captured snapshot has no in-flight fabric walks")
	}
	res, err := resumeContext(context.Background(), g, snap, ResumeOptions{})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got, want := digestResult(res), digestResult(clean); got != want {
		t.Fatalf("resumed array diverged from uninterrupted run:\n got %s\nwant %s", got, want)
	}
	if res.FabricWalks != clean.FabricWalks || res.FabricBatches != clean.FabricBatches ||
		res.FabricBytes != clean.FabricBytes {
		t.Fatalf("fabric counters diverged: resumed %d/%d/%d, clean %d/%d/%d",
			res.FabricWalks, res.FabricBatches, res.FabricBytes,
			clean.FabricWalks, clean.FabricBatches, clean.FabricBytes)
	}
	for v := range clean.Visits {
		if res.Visits[v] != clean.Visits[v] {
			t.Fatalf("vertex %d visited %d times resumed, %d clean", v, res.Visits[v], clean.Visits[v])
		}
	}
}

// TestArrayResumeChained proves array snapshots compose, interrupting the
// resumed leg again deeper into the run.
func TestArrayResumeChained(t *testing.T) {
	g := testGraph(t)
	rc := arrayConfig(2)
	clean := runEngine(t, g, rc)

	first := interruptWhen(t, g, rc, 2, nil)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var second *Snapshot
	count := 0
	a, err := ResumeEngine(g, first, ResumeOptions{
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
	if _, err := a.RunContext(ctx); err == nil {
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
		t.Fatalf("twice-resumed array diverged:\n got %s\nwant %s", got, want)
	}
}

// TestArrayResumeRejectsBadSnapshot guards the array resume validations.
func TestArrayResumeRejectsBadSnapshot(t *testing.T) {
	g := testGraph(t)
	snap := interruptWhen(t, g, arrayConfig(2), 1, nil)

	if _, err := ResumeEngine(g, nil, ResumeOptions{}); !errors.Is(err, errs.ErrInvalidConfig) {
		t.Fatalf("nil snapshot: %v, want ErrInvalidConfig", err)
	}
	other, err := graph.RMAT(graph.DefaultRMAT(1024, 8192, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeEngine(other, snap, ResumeOptions{}); !errors.Is(err, errs.ErrInvalidConfig) {
		t.Fatalf("wrong-graph resume: %v, want ErrInvalidConfig", err)
	}
}

// killConfig is the golden workload on nb boards with board `board` killed
// at killAt. Partitions are cut fine (8 subgraphs each) so every board owns
// several and the killed one still holds parked walks to evacuate; with the
// default coarse cut a board owns one partition and consumes arrivals the
// moment they land, leaving a kill nothing to evacuate.
func killConfig(nb, board int, killAt sim.Time) RunConfig {
	rc := arrayConfig(nb)
	rc.PartCfg.SubgraphsPerPartition = 8
	rc.TrackVisits = true
	rc.Cfg.Faults.KillBoardAt = killAt
	rc.Cfg.Faults.KillBoard = board
	return rc
}

// TestArrayBoardKillOutcomeEquality is the whole-device fault invariant: a
// mid-run fail-stop of one board (shard re-placed onto the survivors,
// parked walks evacuated over the fabric, in-flight batches bounced) still
// finishes every walk with outcomes and visit counts identical to the
// clean run — per-walk RNG streams make trajectories independent of where
// walks execute, kills included.
func TestArrayBoardKillOutcomeEquality(t *testing.T) {
	g := testGraph(t)
	cleanRC := killConfig(3, 0, 0) // killAt 0 = kill disabled, same workload
	cleanV := runEngine(t, g, cleanRC)

	// Kill board 1 midway through the clean run's ~970 us timeline.
	rc := killConfig(3, 1, 200*sim.Microsecond)
	res := runEngine(t, g, rc)
	if res.BoardKills != 1 {
		t.Fatalf("BoardKills = %d, want 1", res.BoardKills)
	}
	if res.WalksFinished() != res.Started {
		t.Fatalf("kill run finished %d of %d walks", res.WalksFinished(), res.Started)
	}
	if res.Started != cleanV.Started || res.Completed != cleanV.Completed ||
		res.DeadEnded != cleanV.DeadEnded || res.Hops != cleanV.Hops {
		t.Fatalf("kill run outcomes (%d/%d/%d/%d) != clean (%d/%d/%d/%d)",
			res.Started, res.Completed, res.DeadEnded, res.Hops,
			cleanV.Started, cleanV.Completed, cleanV.DeadEnded, cleanV.Hops)
	}
	for v := range cleanV.Visits {
		if res.Visits[v] != cleanV.Visits[v] {
			t.Fatalf("vertex %d visited %d times with kill, %d clean", v, res.Visits[v], cleanV.Visits[v])
		}
	}

	// Killing a board that still holds parked walks must evacuate them.
	if res.EvacuatedWalks == 0 {
		t.Fatal("kill at 200us evacuated nothing")
	}
	// Determinism: the same kill twice lands on the same digest.
	if a, b := digestResult(res), digestResult(runEngine(t, g, rc)); a != b {
		t.Fatalf("kill run not deterministic:\n a %s\n b %s", a, b)
	}
}

// TestArrayBoardKillTimingSweep kills at several points of the timeline —
// before launch work completes, mid-run, and after most walks finished —
// and requires every variant to finish all walks with clean outcomes.
func TestArrayBoardKillTimingSweep(t *testing.T) {
	g := testGraph(t)
	cleanRC := killConfig(3, 0, 0)
	cleanRC.TrackVisits = false
	clean := runEngine(t, g, cleanRC)
	for _, at := range []sim.Time{1 * sim.Microsecond, 150 * sim.Microsecond, 700 * sim.Microsecond} {
		rc := killConfig(3, 2, at)
		rc.TrackVisits = false
		res := runEngine(t, g, rc)
		if res.WalksFinished() != res.Started {
			t.Fatalf("kill at %v: finished %d of %d", at, res.WalksFinished(), res.Started)
		}
		if res.Completed != clean.Completed || res.Hops != clean.Hops {
			t.Fatalf("kill at %v changed outcomes: %d/%d vs clean %d/%d",
				at, res.Completed, res.Hops, clean.Completed, clean.Hops)
		}
	}
}

// TestArrayKillThenResume combines both fault layers: interrupt a 2-board
// kill run at a snapshot taken BEFORE the kill fires (the pending kill is a
// typed event in the exported heap), resume from the serialized image, and
// require the resumed run to replay the kill and land on the uninterrupted
// kill run's exact digest.
func TestArrayKillThenResume(t *testing.T) {
	g := testGraph(t)
	rc := killConfig(2, 1, 200*sim.Microsecond)
	clean := runEngine(t, g, rc)

	snap := interruptWhen(t, g, rc, 2, nil)
	res, err := resumeContext(context.Background(), g, snap, ResumeOptions{})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res.BoardKills != 1 {
		t.Fatalf("resumed run recorded %d kills, want 1", res.BoardKills)
	}
	if got, want := digestResult(res), digestResult(clean); got != want {
		t.Fatalf("resumed kill run diverged:\n got %s\nwant %s", got, want)
	}
}
