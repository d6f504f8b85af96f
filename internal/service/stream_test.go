package service

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"flashwalker/internal/blob"
)

func newTestManagerCfg(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := NewManager(NewRegistry(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// drainStream reads a job's stream from offset from to the trailer,
// failing on any gap or duplicate.
func drainStream(t *testing.T, j *Job, from uint64) ([]WalkRecord, *StreamEnd) {
	t.Helper()
	rd, err := j.stream.attach(from)
	if err != nil {
		t.Fatalf("attach(%d): %v", from, err)
	}
	defer rd.detach()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var recs []WalkRecord
	next := from
	for {
		batch, end, err := rd.next(ctx)
		if err != nil {
			t.Fatalf("stream read: %v", err)
		}
		if end != nil {
			return recs, end
		}
		for _, r := range batch {
			if r.Seq != next {
				t.Fatalf("stream gap: got seq %d, want %d", r.Seq, next)
			}
			next++
			recs = append(recs, r)
		}
	}
}

// TestStreamDeliversEveryWalk: a flashwalker job's stream is gapless from
// 0, matches the result's finished count, and the trailer carries the
// job's terminal state.
func TestStreamDeliversEveryWalk(t *testing.T) {
	m := newTestManagerCfg(t, Config{Workers: 1})
	j, err := m.Submit(JobSpec{Graph: "TT-S", NumWalks: 700, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	recs, end := drainStream(t, j, 0)
	<-j.Done()
	st := j.Status()
	if st.State != StateDone {
		t.Fatalf("job state %s: %s", st.State, st.Error)
	}
	if want := st.Result.Completed + st.Result.DeadEnded; len(recs) != want {
		t.Fatalf("streamed %d walks, result finished %d", len(recs), want)
	}
	if !end.Done || end.State != StateDone || end.NextSeq != uint64(len(recs)) {
		t.Fatalf("bad trailer: %+v", end)
	}
}

// TestStreamStalledConsumerNeverBlocksEngine is the back-pressure proof:
// with a tiny ring and a reader attached at 0 that never reads (pinning
// the eviction floor), the job must still run to completion — the engine
// side of the stream only appends, so a stalled consumer cannot hold the
// simulated timeline hostage. The ring stays bounded; the overflow holds
// the rest; and a later drain still sees every record. A job nobody reads
// until it is done keeps its records the same way, so a reader attaching
// after Done starts at seq 0.
func TestStreamStalledConsumerNeverBlocksEngine(t *testing.T) {
	const ring = 64
	for _, tc := range []struct {
		name         string
		attachBefore bool
	}{
		{"stalled reader", true},
		{"no reader until done", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newTestManagerCfg(t, Config{Workers: 1, StreamRingWalks: ring})
			j, err := m.Submit(JobSpec{Graph: "TT-S", NumWalks: 2000, Seed: 6})
			if err != nil {
				t.Fatal(err)
			}
			var stalled *streamReader
			if tc.attachBefore {
				// The stalled reader: attaches at 0, never calls next.
				if stalled, err = j.stream.attach(0); err != nil {
					t.Fatal(err)
				}
			}

			select {
			case <-j.Done():
			case <-time.After(2 * time.Minute):
				t.Fatal("job did not finish")
			}
			st := j.Status()
			if st.State != StateDone {
				t.Fatalf("job state %s: %s", st.State, st.Error)
			}

			j.stream.mu.Lock()
			ringLen, pendLen := len(j.stream.ring), len(j.stream.pending)
			j.stream.mu.Unlock()
			if ringLen > ring {
				t.Fatalf("ring grew to %d records past its %d cap", ringLen, ring)
			}
			if total := st.Result.Completed + st.Result.DeadEnded; ringLen+pendLen != total {
				t.Fatalf("ring %d + overflow %d != %d finished walks", ringLen, pendLen, total)
			}
			if !tc.attachBefore {
				if stalled, err = j.stream.attach(0); err != nil {
					t.Fatal(err)
				}
			}

			// The reader wakes up: everything is still there, in order.
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			next := uint64(0)
			for {
				batch, end, err := stalled.next(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if end != nil {
					break
				}
				for _, r := range batch {
					if r.Seq != next {
						t.Fatalf("gap after stall: got seq %d, want %d", r.Seq, next)
					}
					next++
				}
			}
			stalled.detach()
			if next != uint64(st.Result.Completed+st.Result.DeadEnded) {
				t.Fatalf("reader drained %d records, want %d", next, st.Result.Completed+st.Result.DeadEnded)
			}
		})
	}
}

// TestStreamDoesNotPerturbResult: the same spec run with an actively
// drained stream and with no stream consumer at all produces the
// identical result — the deterministic-timeline invariant at the service
// layer.
func TestStreamDoesNotPerturbResult(t *testing.T) {
	m := newTestManagerCfg(t, Config{Workers: 1, StreamRingWalks: 32})
	spec := JobSpec{Graph: "TT-S", NumWalks: 1500, Seed: 7}

	j1, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := drainStream(t, j1, 0)
	<-j1.Done()

	j2, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-j2.Done()

	r1, r2 := j1.Status().Result, j2.Status().Result
	if r1 == nil || r2 == nil || *r1 != *r2 {
		t.Fatalf("streaming changed the result:\nwith    %+v\nwithout %+v", r1, r2)
	}
	if len(recs) != r1.Completed+r1.DeadEnded {
		t.Fatalf("streamed %d records, result finished %d", len(recs), r1.Completed+r1.DeadEnded)
	}
}

// TestStreamResumeOffsets: a reader detaching mid-stream and re-attaching
// at its next offset sees no gaps and no duplicates; an offset beyond the
// admitted count waits and then delivers from exactly there.
func TestStreamResumeOffsets(t *testing.T) {
	m := newTestManagerCfg(t, Config{Workers: 1})
	j, err := m.Submit(JobSpec{Graph: "TT-S", NumWalks: 1200, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// First connection: read one batch, then disconnect.
	rd, err := j.stream.attach(0)
	if err != nil {
		t.Fatal(err)
	}
	var got []WalkRecord
	for len(got) == 0 {
		batch, end, err := rd.next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if end != nil {
			t.Fatal("stream ended before delivering any records")
		}
		got = append(got, batch...)
	}
	resumeAt := rd.Pos()
	rd.detach()

	// Reconnect at the resume offset: continuation, no gaps, no dups.
	rest, end := drainStream(t, j, resumeAt)
	if len(rest) > 0 && rest[0].Seq != resumeAt {
		t.Fatalf("reconnect at %d delivered seq %d first", resumeAt, rest[0].Seq)
	}
	<-j.Done()
	total := j.Status().Result.Completed + j.Status().Result.DeadEnded
	if int(resumeAt)+len(rest) != total {
		t.Fatalf("reconnect drained %d+%d records, want %d", resumeAt, len(rest), total)
	}
	if !end.Done {
		t.Fatalf("bad trailer: %+v", end)
	}

	// A future offset parks until the stream closes, then trailers.
	future, ferr := j.stream.attach(uint64(total) + 10)
	if ferr != nil {
		t.Fatal(ferr)
	}
	defer future.detach()
	batch, fend, err := future.next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if batch != nil || fend == nil || !fend.Done {
		t.Fatalf("future offset delivered %v / %+v", batch, fend)
	}
}

// TestStreamCancelWhileStreaming: canceling a job mid-stream closes the
// stream with a "canceled" trailer after the partial records.
func TestStreamCancelWhileStreaming(t *testing.T) {
	m := newTestManagerCfg(t, Config{Workers: 1})
	j, err := m.Submit(JobSpec{Graph: "TT-S", NumWalks: 200_000, Seed: 9, CheckpointEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := j.stream.attach(0)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.detach()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Read until some records arrive, cancel, then drain to the trailer.
	next := uint64(0)
	canceled := false
	for {
		batch, end, err := rd.next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if end != nil {
			if end.State != StateCanceled {
				t.Fatalf("trailer state %q, want canceled", end.State)
			}
			if end.NextSeq != next {
				t.Fatalf("trailer next_seq %d, reader saw %d", end.NextSeq, next)
			}
			break
		}
		for _, r := range batch {
			if r.Seq != next {
				t.Fatalf("gap: got seq %d, want %d", r.Seq, next)
			}
			next++
		}
		if !canceled && next > 0 {
			if err := m.Cancel(j.ID); err != nil {
				t.Fatal(err)
			}
			canceled = true
		}
	}
	<-j.Done()
	if st := j.Status(); st.State != StateCanceled {
		t.Fatalf("job state %s after cancel", st.State)
	}
}

// TestStreamEvictedWithoutSpool: with no state dir, an offset already
// evicted from the ring is refused with ErrStreamEvicted instead of
// silently skipping records.
func TestStreamEvictedWithoutSpool(t *testing.T) {
	const ring = 16
	m := newTestManagerCfg(t, Config{Workers: 1, StreamRingWalks: ring})
	j, err := m.Submit(JobSpec{Graph: "TT-S", NumWalks: 1000, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Drain fully with no other readers: the floor advances, old records
	// are evicted.
	recs, _ := drainStream(t, j, 0)
	<-j.Done()
	if len(recs) <= ring {
		t.Fatalf("job finished only %d walks; test needs more than the ring (%d)", len(recs), ring)
	}
	if _, err := j.stream.attach(0); err == nil {
		t.Fatal("attach(0) succeeded after eviction with no spool")
	} else if got, _ := httpError(err); got != 410 {
		t.Fatalf("evicted offset mapped to HTTP %d, want 410", got)
	}
}

// TestStreamDeepWalkCorpusAndCacheHit: a deepwalk job streams its paths;
// an identical resubmission served from the corpus cache streams the
// exact same records.
func TestStreamDeepWalkCorpusAndCacheHit(t *testing.T) {
	m := newTestManagerCfg(t, Config{Workers: 1})
	spec := JobSpec{Kind: KindDeepWalk, Graph: "TT-S", Seed: 11, WalksPerVertex: 1, WalkLength: 8}

	j1, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	recs1, end1 := drainStream(t, j1, 0)
	<-j1.Done()
	if end1.State != StateDone {
		t.Fatalf("deepwalk trailer: %+v", end1)
	}
	if len(recs1) == 0 || len(recs1[0].Path) == 0 {
		t.Fatal("deepwalk stream has no paths")
	}
	if runs := m.CorpusEngineRuns(); runs != 1 {
		t.Fatalf("engine runs after first job: %d", runs)
	}

	j2, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	recs2, _ := drainStream(t, j2, 0)
	<-j2.Done()
	if runs := m.CorpusEngineRuns(); runs != 1 {
		t.Fatalf("cache-served job re-ran the engine (%d runs)", runs)
	}
	if len(recs1) != len(recs2) {
		t.Fatalf("cache-served stream has %d records, original %d", len(recs2), len(recs1))
	}
	for i := range recs1 {
		if recs1[i].Seq != recs2[i].Seq || recs1[i].Src != recs2[i].Src ||
			recs1[i].End != recs2[i].End || recs1[i].Hops != recs2[i].Hops ||
			len(recs1[i].Path) != len(recs2[i].Path) {
			t.Fatalf("record %d differs between engine and cache:\n %+v\n %+v", i, recs1[i], recs2[i])
		}
	}
}

// TestStreamSpoolSurvivesRestart: a durable job's stream replays entirely
// from the spool after the manager restarts, and the recovered stream's
// records match the original run's.
func TestStreamSpoolSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	m1, err := NewManager(NewRegistry(), Config{Workers: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	j1, err := m1.Submit(JobSpec{Graph: "TT-S", NumWalks: 900, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := drainStream(t, j1, 0)
	<-j1.Done()
	id := j1.ID
	m1.Close()

	if _, err := filepath.Glob(filepath.Join(dir, "streams", "*.ndjson")); err != nil {
		t.Fatal(err)
	}

	m2 := newTestManagerCfg(t, Config{Workers: 1, StateDir: dir})
	j2, err := m2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if j2.stream == nil {
		t.Fatal("recovered job lost its stream")
	}
	got, end := drainStream(t, j2, 0)
	if end.State != StateDone {
		t.Fatalf("recovered trailer: %+v", end)
	}
	if len(got) != len(want) {
		t.Fatalf("recovered stream has %d records, original %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("recovered record %d differs:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestGraphWalkerHasNoStream: the host baseline doesn't export walks; the
// API reports that as stream_unsupported rather than hanging.
func TestGraphWalkerHasNoStream(t *testing.T) {
	m := newTestManagerCfg(t, Config{Workers: 1})
	j, err := m.Submit(JobSpec{Kind: KindGraphWalker, Graph: "TT-S", NumWalks: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if j.stream != nil {
		t.Fatal("graphwalker job grew a stream")
	}
}

// TestFairQueueRotation exercises the queue directly: round-robin across
// tenants, canRun skipping, and exact bookkeeping through interleaved
// push/pop.
func TestFairQueueRotation(t *testing.T) {
	fq := newFairQueue(16)
	mk := func(tenant, id string) *Job {
		return &Job{ID: id, Spec: JobSpec{Tenant: tenant}}
	}
	// a floods, then b and c each queue one.
	for i := 0; i < 4; i++ {
		if !fq.push("a", mk("a", fmt.Sprintf("a%d", i))) {
			t.Fatal("push failed below depth")
		}
	}
	fq.push("b", mk("b", "b0"))
	fq.push("c", mk("c", "c0"))

	var order []string
	for j := fq.pop(nil); j != nil; j = fq.pop(nil) {
		order = append(order, j.ID)
	}
	want := []string{"a0", "b0", "c0", "a1", "a2", "a3"}
	if len(order) != len(want) {
		t.Fatalf("popped %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fair-share order %v, want %v", order, want)
		}
	}
	if fq.len() != 0 {
		t.Fatalf("queue reports %d jobs after draining", fq.len())
	}

	// canRun skipping: with tenant a capped out, b's job pops first even
	// though a is ahead in rotation.
	fq.push("a", mk("a", "a4"))
	fq.push("b", mk("b", "b1"))
	j := fq.pop(func(tenant string) bool { return tenant != "a" })
	if j == nil || j.ID != "b1" {
		t.Fatalf("capped-tenant pop returned %+v, want b1", j)
	}
	if j = fq.pop(func(string) bool { return false }); j != nil {
		t.Fatalf("pop with all tenants capped returned %s", j.ID)
	}
	if j = fq.pop(nil); j == nil || j.ID != "a4" {
		t.Fatalf("uncapped pop returned %+v, want a4", j)
	}
}

// TestAdmissionQuotaRateAndMetrics covers the three 429 paths end to end
// on the manager: distinct sentinels for queue-full, tenant quota, and
// rate limit, each with its labeled rejection counter.
func TestAdmissionQuotaRateAndMetrics(t *testing.T) {
	m := newTestManagerCfg(t, Config{
		Workers: 1, QueueDepth: 8,
		TenantMaxQueued:  1,
		TenantRatePerSec: 0.001, TenantRateBurst: 3,
	})
	long := JobSpec{Graph: "TT-S", NumWalks: 200_000, Seed: 1, CheckpointEvery: 64, Tenant: "acme"}

	// First submission runs, second queues (quota 1), third trips the
	// queued-job quota, fourth (other tenant) is admitted, fifth drains
	// acme's 3-token burst.
	j1, err := m.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, j1.ID)
	if _, err := m.Submit(long); err != nil {
		t.Fatalf("second submit (should queue): %v", err)
	}
	_, err = m.Submit(long)
	if !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("third submit error %v, want ErrTenantQuota", err)
	}
	other := long
	other.Tenant = "rival"
	if _, err := m.Submit(other); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
	_, err = m.Submit(other) // rival's queue spot taken... quota again
	if !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("rival quota error %v", err)
	}
	// acme has used its 3 burst tokens (refill is ~1 per 17 min): the next
	// submission is rate-limited before the quota check can reject it.
	_, err = m.Submit(long)
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("burst-exhausted submit error %v, want ErrRateLimited", err)
	}

	metrics := m.Metrics()
	for _, want := range []string{
		`flashwalker_admission_rejected_total{reason="tenant_quota"} 2`,
		`flashwalker_admission_rejected_total{reason="rate_limited"} 1`,
		`flashwalker_admission_rejected_total{reason="queue_full"} 0`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	for _, id := range []string{"job-1", "job-2", "job-3", "job-4"} {
		_ = m.Cancel(id)
	}
}

// TestTenantFairShareNoStarvation: with one worker and tenant "flood"
// holding a deep backlog, a late job from tenant "mouse" is dispatched
// next instead of waiting behind the whole backlog.
func TestTenantFairShareNoStarvation(t *testing.T) {
	m := newTestManagerCfg(t, Config{Workers: 1, QueueDepth: 16})
	short := JobSpec{Graph: "TT-S", NumWalks: 300, Tenant: "flood"}

	// One job occupies the worker while the backlog builds, so ordering
	// below is decided purely by the fair-share dequeue.
	hog, err := m.Submit(JobSpec{Graph: "TT-S", NumWalks: 100_000, CheckpointEvery: 64, Tenant: "flood"})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, hog.ID)
	var floodIDs []string
	for i := 0; i < 5; i++ {
		s := short
		s.Seed = uint64(i)
		j, err := m.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		floodIDs = append(floodIDs, j.ID)
	}
	mouse, err := m.Submit(JobSpec{Graph: "TT-S", NumWalks: 300, Seed: 99, Tenant: "mouse"})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(hog.ID); err != nil {
		t.Fatal(err)
	}

	<-mouse.Done()
	mouseDone := *mouse.Status().FinishedAt
	// Fair share: mouse's lone job must not finish after flood's whole
	// backlog. It is dispatched second (flood, mouse, flood, flood, ...),
	// so at least one flood job must still be unfinished when mouse ends.
	later := 0
	for _, id := range floodIDs {
		j, _ := m.Get(id)
		<-j.Done()
		if j.Status().FinishedAt.After(mouseDone) {
			later++
		}
	}
	if later == 0 {
		t.Fatal("fair-share dequeue starved the small tenant: every flood job finished first")
	}
}

func waitRunning(t *testing.T, m *Manager, id string) {
	t.Helper()
	j, err := m.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		j.mu.Lock()
		state := j.state
		j.mu.Unlock()
		if state == StateRunning {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, state)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFinishedStreamsReleaseBuffers: a finished stream whose records were
// all read holds neither its spool write buffer nor its pending slice,
// whatever their high-water capacity was, on every job retention keeps.
func TestFinishedStreamsReleaseBuffers(t *testing.T) {
	m := newTestManagerCfg(t, Config{Workers: 2, Store: blob.NewMem(), RetainJobs: 8})
	for i := 0; i < 12; i++ {
		j, err := m.Submit(JobSpec{Graph: "TT-S", NumWalks: 20_000, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if recs, end := drainStream(t, j, 0); end.State != StateDone || len(recs) != 20_000 {
			t.Fatalf("job %s streamed %d records and ended %+v", j.ID, len(recs), end)
		}
		waitTerminal(t, j)
	}
	m.Close()
	list := m.List()
	if len(list) != 8 {
		t.Fatalf("retention kept %d jobs, want 8", len(list))
	}
	for _, st := range list {
		j, err := m.Get(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		s := j.stream
		s.mu.Lock()
		spoolBuf, pending := cap(s.spool.buf), cap(s.pending)
		s.mu.Unlock()
		if spoolBuf != 0 || pending != 0 {
			t.Errorf("finished job %s holds %d bytes of spool buffer and %d pending slots", j.ID, spoolBuf, pending)
		}
	}
}
