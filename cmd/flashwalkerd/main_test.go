package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"flashwalker/client"
	"flashwalker/internal/blob"
	"flashwalker/internal/core"
	"flashwalker/internal/graph"
	"flashwalker/internal/harness"
)

// daemon is one flashwalkerd process under test, driven through the typed
// API client.
type daemon struct {
	t   *testing.T
	cmd *exec.Cmd
	c   *client.Client
}

// startDaemon launches the built binary against stateDir (plus any extra
// flags) and waits for /healthz to answer.
func startDaemon(t *testing.T, bin, stateDir string, port int, extra ...string) *daemon {
	t.Helper()
	args := []string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-workers", "1",
		"-state-dir", stateDir,
	}
	args = append(args, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start flashwalkerd: %v", err)
	}
	d := &daemon{t: t, cmd: cmd, c: client.New(fmt.Sprintf("http://127.0.0.1:%d", port), nil)}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if err := d.c.Health(context.Background()); err == nil {
			return d
		}
		if time.Now().After(deadline) {
			d.kill()
			t.Fatal("daemon never became healthy")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// kill delivers SIGKILL — the crash under test, not a graceful drain.
func (d *daemon) kill() {
	_ = d.cmd.Process.Signal(syscall.SIGKILL)
	_, _ = d.cmd.Process.Wait()
}

func (d *daemon) submit(spec client.JobSpec) client.JobStatus {
	d.t.Helper()
	st, err := d.c.Submit(context.Background(), spec)
	if err != nil {
		d.t.Fatalf("submit: %v", err)
	}
	return st
}

func (d *daemon) get(id string) client.JobStatus {
	d.t.Helper()
	st, err := d.c.Get(context.Background(), id)
	if err != nil {
		d.t.Fatalf("get %s: %v", id, err)
	}
	return st
}

func (d *daemon) waitDone(id string, timeout time.Duration) client.JobStatus {
	d.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	st, err := d.c.Wait(ctx, id)
	if err != nil {
		d.t.Fatalf("wait %s (last state %q): %v", id, st.State, err)
	}
	if st.State != client.StateDone {
		d.t.Fatalf("job %s terminal state %q: %s", id, st.State, st.Error)
	}
	return st
}

func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port
}

// snapshotKeys lists the snapshot keys of job id left in store; a finished
// job leaves none.
func snapshotKeys(t *testing.T, store blob.Store, id string) []string {
	t.Helper()
	keys, err := store.List("snapshots/" + id + ".")
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "flashwalkerd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestCrashRecovery is the end-to-end durability proof: a daemon with a
// state directory is SIGKILLed while a job is mid-run with a snapshot on
// disk; a fresh daemon on the same state directory must finish the job
// with a result identical to an uninterrupted run.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := buildDaemon(t)

	spec := client.JobSpec{
		Graph: "TT-S", NumWalks: 20_000, Seed: 7, CheckpointEvery: 64,
	}

	// Reference: the same spec run to completion with no interruption.
	refDir := t.TempDir()
	dr := startDaemon(t, bin, refDir, freePort(t))
	refJob := dr.submit(spec)
	ref := dr.waitDone(refJob.ID, 2*time.Minute)
	dr.kill()
	if ref.Result == nil || ref.Result.Partial {
		t.Fatalf("reference result unusable: %+v", ref.Result)
	}

	// Victim: submit, wait for a snapshot to land, SIGKILL mid-run.
	stateDir := t.TempDir()
	d1 := startDaemon(t, bin, stateDir, freePort(t))
	job := d1.submit(spec)
	snapPath := filepath.Join(stateDir, "snapshots", job.ID+".snap")
	deadline := time.Now().Add(time.Minute)
	for {
		if fi, err := os.Stat(snapPath); err == nil && fi.Size() > 0 {
			break
		}
		if time.Now().After(deadline) {
			d1.kill()
			t.Fatal("running job never wrote a snapshot")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if jv := d1.get(job.ID); jv.State == client.StateDone {
		t.Fatal("job finished before the crash; nothing to recover")
	}
	d1.kill()

	// Survivor: same state dir, job must be recovered and finish with the
	// reference result bit for bit.
	d2 := startDaemon(t, bin, stateDir, freePort(t))
	defer d2.kill()
	got := d2.waitDone(job.ID, 2*time.Minute)
	if got.Result == nil {
		t.Fatal("recovered job has no result")
	}
	if *got.Result != *ref.Result {
		t.Fatalf("recovered result diverged:\n got %+v\nwant %+v", *got.Result, *ref.Result)
	}
	if _, err := os.Stat(snapPath); !os.IsNotExist(err) {
		t.Errorf("snapshot survived job completion: %v", err)
	}
}

// TestCrashRecoveryHTTPStore is the object-store variant of
// TestCrashRecovery: the daemon keeps ALL durable state in an S3-style
// object server (hosted by the test process, so it survives the daemon's
// SIGKILL), crashes with a full snapshot in the store, and a fresh daemon
// pointed at the same URL must finish the job with a result identical to
// an uninterrupted run and leave no snapshot key behind.
func TestCrashRecoveryHTTPStore(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := buildDaemon(t)

	osrv := httptest.NewServer(blob.Handler(blob.NewMem()))
	defer osrv.Close()
	store, err := blob.NewHTTP(osrv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	storeFlags := []string{"-store", osrv.URL}

	spec := client.JobSpec{
		Graph: "TT-S", NumWalks: 20_000, Seed: 7, CheckpointEvery: 64,
	}

	// Reference: the same spec run to completion with no interruption
	// (plain in-memory daemon; determinism does not depend on the store).
	dr := startDaemon(t, bin, t.TempDir(), freePort(t))
	refJob := dr.submit(spec)
	ref := dr.waitDone(refJob.ID, 2*time.Minute)
	dr.kill()
	if ref.Result == nil || ref.Result.Partial {
		t.Fatalf("reference result unusable: %+v", ref.Result)
	}

	// Victim: submit, wait until a full snapshot is in the object store,
	// SIGKILL mid-run.
	d1 := startDaemon(t, bin, t.TempDir(), freePort(t), storeFlags...)
	job := d1.submit(spec)
	fullKey := "snapshots/" + job.ID + ".snap"
	deadline := time.Now().Add(time.Minute)
	for {
		_, err := store.Get(fullKey)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			d1.kill()
			t.Fatalf("no snapshot in store: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if jv := d1.get(job.ID); jv.State == client.StateDone {
		t.Fatal("job finished before the crash; nothing to recover")
	}
	d1.kill()

	// Survivor: same store URL, job recovered over HTTP and finished with
	// the reference result bit for bit.
	d2 := startDaemon(t, bin, t.TempDir(), freePort(t), storeFlags...)
	defer d2.kill()
	got := d2.waitDone(job.ID, 2*time.Minute)
	if got.Result == nil {
		t.Fatal("recovered job has no result")
	}
	if *got.Result != *ref.Result {
		t.Fatalf("recovered result diverged:\n got %+v\nwant %+v", *got.Result, *ref.Result)
	}
	if keys := snapshotKeys(t, store, job.ID); len(keys) != 0 {
		t.Errorf("snapshot keys survived completion: %v", keys)
	}
}

// TestCrashRecoveryMutations is the dynamic-graph variant of
// TestCrashRecovery: the job carries a mutation stream whose timestamps
// straddle the run, the daemon is SIGKILLed after the first snapshot lands
// (the snapshot carries the stream and its applied-prefix cursor), and the
// recovered job must replay the rest of the stream to a result identical to
// an uninterrupted run — mutations_applied included.
func TestCrashRecoveryMutations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := buildDaemon(t)

	// Probe the unmutated run in-process for its end time and a safely
	// sparse edge: the daemon derives the identical simulation from the
	// same (dataset, walks, seed), so fractions of the probe's end time
	// land inside the mutated run too.
	ds, err := harness.DatasetByName("TT-S")
	if err != nil {
		t.Fatal(err)
	}
	g, err := ds.Graph()
	if err != nil {
		t.Fatal(err)
	}
	rc := harness.FlashWalkerConfig(ds, core.AllOptions(), 20_000, 7)
	e, err := core.NewEngine(g, rc)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := e.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	endNS := int64(probe.Time)
	pc := rc.PartCfg
	var src, dst graph.VertexID
	found := false
	for v := graph.VertexID(0); uint64(v) < g.NumVertices() && !found; v++ {
		if d := g.OutDegree(v); d >= 1 && uint64(d)+1 < pc.EdgesPerBlock(g.Weighted()) {
			src, dst, found = v, g.OutEdges(v)[0], true
		}
	}
	if !found {
		t.Fatal("TT-S has no sparse vertex with out-edges")
	}
	ms := graph.MutationStream{
		{At: 0, Op: graph.OpDeleteEdge, Src: src, Dst: dst},
		{At: 0, Op: graph.OpInsertEdge, Src: src, Dst: dst},
		{At: endNS / 2, Op: graph.OpDeleteEdge, Src: src, Dst: dst},
		{At: endNS * 3 / 4, Op: graph.OpInsertEdge, Src: src, Dst: dst},
	}
	spec := client.JobSpec{
		Graph: "TT-S", NumWalks: 20_000, Seed: 7, CheckpointEvery: 64,
		Mutations: ms,
	}

	refDir := t.TempDir()
	dr := startDaemon(t, bin, refDir, freePort(t))
	refJob := dr.submit(spec)
	ref := dr.waitDone(refJob.ID, 2*time.Minute)
	dr.kill()
	if ref.Result == nil || ref.Result.Partial {
		t.Fatalf("reference result unusable: %+v", ref.Result)
	}
	if ref.Result.MutationsApplied != uint64(len(ms)) {
		t.Fatalf("reference applied %d of %d mutations", ref.Result.MutationsApplied, len(ms))
	}

	stateDir := t.TempDir()
	d1 := startDaemon(t, bin, stateDir, freePort(t))
	job := d1.submit(spec)
	snapPath := filepath.Join(stateDir, "snapshots", job.ID+".snap")
	deadline := time.Now().Add(time.Minute)
	for {
		if fi, err := os.Stat(snapPath); err == nil && fi.Size() > 0 {
			break
		}
		if time.Now().After(deadline) {
			d1.kill()
			t.Fatal("running job never wrote a snapshot")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if jv := d1.get(job.ID); jv.State == client.StateDone {
		t.Fatal("job finished before the crash; nothing to recover")
	}
	d1.kill()

	d2 := startDaemon(t, bin, stateDir, freePort(t))
	defer d2.kill()
	got := d2.waitDone(job.ID, 2*time.Minute)
	if got.Result == nil {
		t.Fatal("recovered job has no result")
	}
	if *got.Result != *ref.Result {
		t.Fatalf("recovered mutated result diverged:\n got %+v\nwant %+v", *got.Result, *ref.Result)
	}
}

// TestCrashRecoveryMultiBoard is the array variant of TestCrashRecovery: a
// two-board job on the multi-shard dataset checkpoints through the same
// full snapshot image as a single-board job, is SIGKILLed mid-run once
// the image lands, and must recover to the same result an uninterrupted
// run produces, including any walks that were in flight on the
// inter-board fabric when the image was taken, and leave no snapshot key
// behind.
func TestCrashRecoveryMultiBoard(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := buildDaemon(t)

	// MB-S is the only registry dataset with enough partitions for an
	// array (TT-S packs into a single shard); two boards split its nine
	// partitions and exchange foreigner walks over the fabric.
	spec := client.JobSpec{
		Graph: "MB-S", NumWalks: 60_000, Seed: 7,
		Boards: 2, CheckpointEvery: 64,
	}

	refDir := t.TempDir()
	dr := startDaemon(t, bin, refDir, freePort(t))
	refJob := dr.submit(spec)
	ref := dr.waitDone(refJob.ID, 4*time.Minute)
	dr.kill()
	if ref.Result == nil || ref.Result.Partial {
		t.Fatalf("reference result unusable: %+v", ref.Result)
	}

	stateDir := t.TempDir()
	d1 := startDaemon(t, bin, stateDir, freePort(t))
	job := d1.submit(spec)
	snapPath := filepath.Join(stateDir, "snapshots", job.ID+".snap")
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if fi, err := os.Stat(snapPath); err == nil && fi.Size() > 0 {
			break
		}
		if time.Now().After(deadline) {
			d1.kill()
			t.Fatal("array job never wrote a snapshot")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if jv := d1.get(job.ID); jv.State == client.StateDone {
		t.Fatal("job finished before the crash; nothing to recover")
	}
	d1.kill()

	d2 := startDaemon(t, bin, stateDir, freePort(t))
	defer d2.kill()
	got := d2.waitDone(job.ID, 4*time.Minute)
	if got.Result == nil {
		t.Fatal("recovered job has no result")
	}
	if *got.Result != *ref.Result {
		t.Fatalf("recovered array result diverged:\n got %+v\nwant %+v", *got.Result, *ref.Result)
	}
	fsStore, err := blob.NewFS(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	if keys := snapshotKeys(t, fsStore, job.ID); len(keys) != 0 {
		t.Errorf("snapshot keys survived completion: %v", keys)
	}
}

// TestCrashRecoveryGraphWalker is the host-baseline variant of
// TestCrashRecovery: a graphwalker job keeps no snapshot, so a daemon
// SIGKILLed mid-run leaves only its journal record saying running, and a
// fresh daemon on the same state directory must re-run the job from event
// zero to a result identical to an uninterrupted run.
func TestCrashRecoveryGraphWalker(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := buildDaemon(t)

	// GraphWalker is fast: the walk count keeps the run going for a few
	// seconds, long enough for the kill to land mid-run.
	spec := client.JobSpec{
		Kind: client.KindGraphWalker, Graph: "TT-S", NumWalks: 2_000_000, Seed: 7,
		CheckpointEvery: 64,
	}

	refDir := t.TempDir()
	dr := startDaemon(t, bin, refDir, freePort(t))
	refJob := dr.submit(spec)
	ref := dr.waitDone(refJob.ID, 2*time.Minute)
	dr.kill()
	if ref.Result == nil || ref.Result.Partial {
		t.Fatalf("reference result unusable: %+v", ref.Result)
	}

	// Victim: submit, wait until the running job reports hops, SIGKILL.
	stateDir := t.TempDir()
	d1 := startDaemon(t, bin, stateDir, freePort(t))
	job := d1.submit(spec)
	deadline := time.Now().Add(time.Minute)
	for {
		jv := d1.get(job.ID)
		if jv.State == client.StateRunning && jv.Progress != nil && jv.Progress.Hops > 0 {
			break
		}
		if jv.State != client.StateQueued && jv.State != client.StateRunning {
			d1.kill()
			t.Fatalf("job reached %q before the crash; nothing to recover", jv.State)
		}
		if time.Now().After(deadline) {
			d1.kill()
			t.Fatal("running job never reported progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	d1.kill()
	// The journal is what recovery reads: a terminal record means the job
	// finished before the kill and there is nothing to recover.
	rec, err := os.ReadFile(filepath.Join(stateDir, "jobs", job.ID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var journaled struct{ State string }
	if err := json.Unmarshal(rec, &journaled); err != nil {
		t.Fatal(err)
	}
	if journaled.State != client.StateQueued && journaled.State != client.StateRunning {
		t.Fatalf("journal says %q after the kill; the job was not mid-run", journaled.State)
	}

	d2 := startDaemon(t, bin, stateDir, freePort(t))
	defer d2.kill()
	got := d2.waitDone(job.ID, 2*time.Minute)
	if got.Result == nil {
		t.Fatal("recovered job has no result")
	}
	if *got.Result != *ref.Result {
		t.Fatalf("recovered result diverged:\n got %+v\nwant %+v", *got.Result, *ref.Result)
	}
	if _, err := os.Stat(filepath.Join(stateDir, "snapshots", job.ID+".snap")); !os.IsNotExist(err) {
		t.Errorf("snapshot key survived job completion: %v", err)
	}
}

// TestDaemonStreamAndTenantFlags proves the admission/stream flags reach
// the service: a daemon booted with per-tenant quotas rejects the over-quota
// submission with the tenant_quota envelope, and the walk stream delivers
// every completed walk of a job gaplessly over real HTTP.
func TestDaemonStreamAndTenantFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := buildDaemon(t)
	d := startDaemon(t, bin, t.TempDir(), freePort(t),
		"-tenant-max-queued", "1", "-stream-ring", "128")
	defer d.kill()
	ctx := context.Background()

	// Fill tenant "a"'s queue allowance behind a long-running job, then
	// assert the next submission bounces with the machine-readable code.
	long := client.JobSpec{
		Graph: "TT-S", NumWalks: 200_000, Seed: 1, CheckpointEvery: 64, Tenant: "a",
	}
	hog := d.submit(long)
	// Wait for the worker to claim the hog so it no longer counts against
	// the queued quota; the next submission then sits queued alone.
	deadline := time.Now().Add(30 * time.Second)
	for d.get(hog.ID).State == client.StateQueued {
		if time.Now().After(deadline) {
			t.Fatal("hog job never started running")
		}
		time.Sleep(5 * time.Millisecond)
	}
	queued := d.submit(long) // worker=1, so this one sits queued
	_, err := d.c.Submit(ctx, long)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 429 || apiErr.Code != "tenant_quota" {
		t.Fatalf("over-quota submit: want 429 tenant_quota, got %v", err)
	}
	metrics, err := d.c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, `flashwalker_admission_rejected_total{reason="tenant_quota"} 1`) {
		t.Error("metrics missing the tenant_quota rejection count")
	}

	// Another tenant is not affected by tenant "a"'s quota; stream its
	// walks live while the hogs still occupy the worker and the queue.
	small := d.submit(client.JobSpec{
		Graph: "TT-S", NumWalks: 400, Seed: 2, Tenant: "b",
	})
	if _, err := d.c.Cancel(ctx, hog.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := d.c.Cancel(ctx, queued.ID); err != nil {
		t.Fatal(err)
	}
	st, err := d.c.Stream(ctx, small.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var n uint64
	for {
		rec, ok := st.Next()
		if !ok {
			break
		}
		if rec.Seq != n {
			t.Fatalf("stream gap: record seq %d at position %d", rec.Seq, n)
		}
		n++
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	end := st.End()
	if end == nil || end.State != client.StateDone || end.NextSeq != n {
		t.Fatalf("stream trailer %+v after %d records", end, n)
	}
	fin := d.waitDone(small.ID, time.Minute)
	if fin.Result == nil || fin.Result.Completed+fin.Result.DeadEnded != int(n) {
		t.Fatalf("streamed %d walks but result says %+v", n, fin.Result)
	}
}
