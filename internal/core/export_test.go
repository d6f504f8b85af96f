package core

import (
	"context"
	"testing"

	"flashwalker/internal/graph"
	"flashwalker/internal/walk"
)

// collectWalks returns an OnWalks callback that copies every delivered
// record (the engine reuses the batch slice) into *out.
func collectWalks(out *[]WalkDone) func([]WalkDone) {
	return func(recs []WalkDone) {
		*out = append(*out, recs...)
	}
}

// checkExport verifies the export invariants against the run's Result:
// finish-order seqs are exactly 0..n-1 in delivery order, the completed /
// dead-ended split matches, hop counts respect the spec, and retirement
// times never go backwards.
func checkExport(t *testing.T, recs []WalkDone, res *Result, spec walk.Spec) {
	t.Helper()
	if len(recs) != res.WalksFinished() {
		t.Fatalf("exported %d records, result finished %d", len(recs), res.WalksFinished())
	}
	completed := 0
	for i, r := range recs {
		if r.Seq != uint64(i) {
			t.Fatalf("record %d has seq %d; export must be gapless and in finish order", i, r.Seq)
		}
		if r.DeadEnd {
			if r.Hops >= spec.Length {
				t.Fatalf("dead-ended record %d took %d hops of %d", i, r.Hops, spec.Length)
			}
		} else {
			completed++
			if r.Hops != spec.Length {
				t.Fatalf("completed record %d took %d hops, want %d", i, r.Hops, spec.Length)
			}
		}
		if i > 0 && r.At < recs[i-1].At {
			t.Fatalf("record %d retired at %v, before record %d at %v", i, r.At, i-1, recs[i-1].At)
		}
	}
	if completed != res.Completed {
		t.Fatalf("exported %d completed walks, result says %d", completed, res.Completed)
	}
}

// TestWalkExportDoesNotPerturbTimeline is the export twin of the golden
// digest test: attaching an OnWalks consumer must leave the simulated
// timeline bit-identical, while delivering every finished walk exactly once
// in finish order.
func TestWalkExportDoesNotPerturbTimeline(t *testing.T) {
	g := testGraph(t)
	rc := goldenConfig()
	var recs []WalkDone
	rc.OnWalks = collectWalks(&recs)
	res := runEngine(t, g, rc)
	if got := digestResult(res); got != goldenDigest {
		t.Fatalf("walk export moved the golden timeline:\n got %s\nwant %s", got, goldenDigest)
	}
	checkExport(t, recs, res, rc.Spec)
}

// TestWalkExportKeepsItsFloor sets only OnWalks, on a short checkpoint
// interval: the boundaries must deliver every record once and in order,
// at most once per minWalkGap events plus the delivery at run end.
func TestWalkExportKeepsItsFloor(t *testing.T) {
	g := testGraph(t)
	rc := goldenConfig()
	rc.CheckpointEvery = 64
	var recs []WalkDone
	deliveries := 0
	rc.OnWalks = func(b []WalkDone) {
		deliveries++
		recs = append(recs, b...)
	}
	e, err := NewEngine(g, rc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	checkExport(t, recs, res, rc.Spec)
	events := e.eng.Processed()
	if most := int((events+minWalkGap-1)/minWalkGap) + 1; deliveries < 2 || deliveries > most {
		t.Fatalf("%d deliveries over %d events, want 2 to %d", deliveries, events, most)
	}
}

// TestWalkExportResumeContinuity proves seq continuity across
// snapshot/resume: an interrupted-and-resumed run's export, deduplicated on
// seq (the interrupted run keeps emitting between the captured snapshot and
// the cancellation), is record-for-record identical to the uninterrupted
// run's export.
func TestWalkExportResumeContinuity(t *testing.T) {
	g := testGraph(t)

	ref := goldenConfig()
	var want []WalkDone
	ref.OnWalks = collectWalks(&want)
	refRes := runEngine(t, g, ref)
	checkExport(t, want, refRes, ref.Spec)

	rc := goldenConfig()
	var phase1 []WalkDone
	rc.OnWalks = collectWalks(&phase1)
	snap := interruptCore(t, g, rc, 3)

	var phase2 []WalkDone
	res, err := resumeContext(context.Background(), g, snap, Observers{
		OnWalks: collectWalks(&phase2),
	})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got := digestResult(res); got != digestResult(refRes) {
		t.Fatalf("resumed digest diverged:\n got %s\nwant %s", got, digestResult(refRes))
	}

	cut := uint64(snap.WalksFinished())
	if len(phase1) < int(cut) {
		t.Fatalf("interrupted run exported %d records, snapshot finished count is %d: flush-before-snapshot broken", len(phase1), cut)
	}
	if len(phase2) == 0 || phase2[0].Seq != cut {
		t.Fatalf("resumed export starts at seq %d of %d records, want %d", phase2[0].Seq, len(phase2), cut)
	}

	// Merge: snapshot-prefix from phase1, the rest from phase2; overlapping
	// records (seq >= cut seen by both) must agree exactly.
	got := append(append([]WalkDone(nil), phase1[:cut]...), phase2...)
	for _, r := range phase1[cut:] {
		if r != got[r.Seq] {
			t.Fatalf("overlap record seq %d differs between interrupted and resumed run:\n %+v\n %+v", r.Seq, r, got[r.Seq])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("merged export has %d records, uninterrupted run %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d differs:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestWalkExportArray checks the fleet-wide export: a 1-board array
// reproduces the golden run's export record for record, and a 2-board
// array exports a gapless fleet-wide finish sequence whose walk outcomes
// (keyed by start vertex multiset) match the aggregate result.
func TestWalkExportArray(t *testing.T) {
	g := testGraph(t)

	single := goldenConfig()
	var want []WalkDone
	single.OnWalks = collectWalks(&want)
	runEngine(t, g, single)

	rc1 := arrayConfig(1)
	var got1 []WalkDone
	rc1.OnWalks = collectWalks(&got1)
	res1 := runEngine(t, g, rc1)
	checkExport(t, got1, res1, rc1.Spec)
	if len(got1) != len(want) {
		t.Fatalf("1-board array exported %d records, single engine %d", len(got1), len(want))
	}
	for i := range want {
		if got1[i] != want[i] {
			t.Fatalf("1-board array record %d differs:\n got %+v\nwant %+v", i, got1[i], want[i])
		}
	}

	rc2 := arrayConfig(2)
	var got2 []WalkDone
	rc2.OnWalks = collectWalks(&got2)
	res2 := runEngine(t, g, rc2)
	checkExport(t, got2, res2, rc2.Spec)
}

// TestWalkExportArrayResumeContinuity is the array flavour of the resume
// continuity proof, with the interrupt landing while walks are in flight on
// the fabric.
func TestWalkExportArrayResumeContinuity(t *testing.T) {
	g := testGraph(t)

	ref := arrayConfig(2)
	var want []WalkDone
	ref.OnWalks = collectWalks(&want)
	refRes := runEngine(t, g, ref)
	checkExport(t, want, refRes, ref.Spec)

	rc := arrayConfig(2)
	var phase1 []WalkDone
	rc.OnWalks = collectWalks(&phase1)
	snap := interruptWhen(t, g, rc, 2, onFabric)

	cut := uint64(snap.WalksFinished())
	var phase2 []WalkDone
	res, err := resumeContext(context.Background(), g, snap, Observers{
		OnWalks: collectWalks(&phase2),
	})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got := digestResult(res); got != digestResult(refRes) {
		t.Fatalf("resumed array digest diverged:\n got %s\nwant %s", got, digestResult(refRes))
	}
	if len(phase1) < int(cut) {
		t.Fatalf("interrupted array exported %d records, snapshot finished count is %d", len(phase1), cut)
	}
	if cut > 0 && (len(phase2) == 0 || phase2[0].Seq != cut) {
		t.Fatalf("resumed array export starts at seq %d, want %d", phase2[0].Seq, cut)
	}
	got := append(append([]WalkDone(nil), phase1[:cut]...), phase2...)
	if len(got) != len(want) {
		t.Fatalf("merged array export has %d records, uninterrupted run %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("array record %d differs:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestWalkExportStartsMatchWorkload checks Src fidelity: every exported
// record's start vertex multiset equals the seeded workload's.
func TestWalkExportStartsMatchWorkload(t *testing.T) {
	g := testGraph(t)
	rc := testConfig()
	starts := walk.UniformStarts(g, rc.NumWalks, rc.StartSeed)
	var recs []WalkDone
	rc.OnWalks = collectWalks(&recs)
	runEngine(t, g, rc)
	wantCount := map[graph.VertexID]int{}
	for _, v := range starts {
		wantCount[v]++
	}
	for _, r := range recs {
		wantCount[r.Src]--
	}
	for v, n := range wantCount {
		if n != 0 {
			t.Fatalf("start vertex %d: export count off by %+d", v, -n)
		}
	}
}
