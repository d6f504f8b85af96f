package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flashwalker/internal/blob"
	"flashwalker/internal/core"
	"flashwalker/internal/snapshot"
)

// TestManagerCloseDrainsQueue is the regression test for the lifecycle bug
// where Close left queued jobs in StateQueued forever with their Done
// channels never closing: after Close, every job the manager ever accepted
// must be terminal.
func TestManagerCloseDrainsQueue(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 4})
	long := JobSpec{Graph: "TT-S", NumWalks: 100_000, Seed: 1, CheckpointEvery: 64}
	jobs := []*Job{}
	// One job occupies the single worker; the rest sit in the queue.
	for i := 0; i < 4; i++ {
		j, err := m.Submit(long)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	m.Close()
	for _, st := range m.List() {
		switch st.State {
		case StateDone, StateCanceled, StateFailed:
		default:
			t.Errorf("job %s left in non-terminal state %q after Close", st.ID, st.State)
		}
	}
	for _, j := range jobs {
		select {
		case <-j.Done():
		default:
			t.Errorf("job %s Done channel still open after Close", j.ID)
		}
	}
}

// TestManagerCancelQueuedImmediate is the regression test for Cancel on a
// still-queued job: it must move straight to canceled — Done closed, no
// engine run — without waiting for a worker to pull it off the queue.
func TestManagerCancelQueuedImmediate(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 2})
	defer m.Close()
	long := JobSpec{Graph: "TT-S", NumWalks: 100_000, Seed: 1, CheckpointEvery: 64}
	j1, err := m.Submit(long) // occupies the worker
	if err != nil {
		t.Fatal(err)
	}
	j2, err := m.Submit(long) // stays queued behind it
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(j2.ID); err != nil {
		t.Fatal(err)
	}
	// The worker is still busy with j1, so only an immediate transition
	// can close j2's Done channel here.
	select {
	case <-j2.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("queued job not terminal after Cancel; it waited for a worker")
	}
	st := j2.Status()
	if st.State != StateCanceled {
		t.Fatalf("queued-then-canceled job state %q", st.State)
	}
	if st.StartedAt != nil {
		t.Error("canceled-while-queued job has a start time; it ran")
	}
	if err := m.Cancel(j1.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j1)
}

// TestManagerRecoveryResumesFromSnapshot is the durable-jobs scenario: a
// job interrupted mid-run (journal says running, snapshot on disk) is
// re-enqueued on restart, resumes from the snapshot, and finishes with a
// result identical to an uninterrupted run of the same spec.
func TestManagerRecoveryResumesFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{Graph: "TT-S", NumWalks: 20_000, Seed: 5, CheckpointEvery: 64}

	// Reference result: the same spec run to completion, no persistence.
	mr := newTestManager(t, Config{Workers: 1})
	jr, err := mr.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, jr)
	ref := jr.Status().Result
	if ref == nil || jr.Status().State != StateDone {
		t.Fatalf("reference run: %+v", jr.Status())
	}
	mr.Close()

	// First life: run with persistence until a snapshot lands on disk, then
	// grab a copy and cancel.
	m1 := newTestManager(t, Config{Workers: 1, StateDir: dir})
	j1, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, "snapshots", j1.ID+".snap")
	var saved []byte
	deadline := time.Now().Add(time.Minute)
	for {
		if b, err := os.ReadFile(snapPath); err == nil && len(b) > 0 {
			saved = b
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("running job never wrote a snapshot")
		}
		time.Sleep(time.Millisecond)
	}
	if err := m1.Cancel(j1.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j1)
	m1.Close()

	// Forge the crash the cancel cleaned up after: journal back to running,
	// snapshot back on disk.
	forgeRunning(t, dir, j1.ID)
	if err := os.WriteFile(snapPath, saved, 0o644); err != nil {
		t.Fatal(err)
	}

	// Second life: the job is recovered, resumed, and must converge on the
	// uninterrupted result exactly.
	m2 := newTestManager(t, Config{Workers: 1, StateDir: dir})
	defer m2.Close()
	j2, err := m2.Get(j1.ID)
	if err != nil {
		t.Fatalf("recovered manager lost job %s: %v", j1.ID, err)
	}
	waitTerminal(t, j2)
	st := j2.Status()
	if st.State != StateDone {
		t.Fatalf("recovered job state %q, error %q", st.State, st.Error)
	}
	if st.Result == nil || *st.Result != *ref {
		t.Fatalf("resumed result diverged:\n got %+v\nwant %+v", st.Result, ref)
	}
	if _, err := os.Stat(snapPath); !os.IsNotExist(err) {
		t.Errorf("snapshot survived job completion: %v", err)
	}
}

// TestManagerRecoveryHistoryAndSeq: terminal jobs come back as history
// (Done already closed, result intact), queued jobs re-run, and the ID
// sequence continues past the recovered jobs instead of colliding.
func TestManagerRecoveryHistoryAndSeq(t *testing.T) {
	dir := t.TempDir()
	m1 := newTestManager(t, Config{Workers: 1, StateDir: dir})
	spec := JobSpec{Graph: "TT-S", NumWalks: 500, Seed: 1}
	j1, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j1)
	doneResult := j1.Status().Result
	m1.Close()

	// Forge a queued job the first life never got to.
	rec := jobRecord{ID: "job-7", Spec: spec, State: StateQueued, Submitted: time.Now()}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "jobs", "job-7.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := newTestManager(t, Config{Workers: 1, StateDir: dir})
	defer m2.Close()

	// History: terminal, Done closed, result preserved verbatim.
	h, err := m2.Get(j1.ID)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-h.Done():
	default:
		t.Error("recovered terminal job's Done channel not closed")
	}
	if st := h.Status(); st.State != StateDone || st.Result == nil || *st.Result != *doneResult {
		t.Fatalf("recovered history mangled: %+v", st)
	}

	// The forged queued job runs to completion.
	q, err := m2.Get("job-7")
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, q)
	if st := q.Status(); st.State != StateDone {
		t.Fatalf("recovered queued job state %q, error %q", st.State, st.Error)
	}

	// Fresh submissions continue after the highest recovered ID.
	jn, err := m2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if jn.ID != "job-8" {
		t.Errorf("post-recovery ID %s, want job-8", jn.ID)
	}
	waitTerminal(t, jn)
}

// heldJournalStore holds the first journal write back until a terminal
// record of the same job has been stored (or a second passes): the
// interleaving in which a slow submit-time write lands last.
type heldJournalStore struct {
	blob.Store
	held     atomic.Bool
	terminal chan struct{}
	once     sync.Once
}

func (s *heldJournalStore) Put(key string, data []byte) error {
	if !strings.HasPrefix(key, "jobs/") {
		return s.Store.Put(key, data)
	}
	if s.held.CompareAndSwap(false, true) {
		select {
		case <-s.terminal:
		case <-time.After(time.Second):
		}
		return s.Store.Put(key, data)
	}
	err := s.Store.Put(key, data)
	var rec jobRecord
	if json.Unmarshal(data, &rec) == nil && rec.State == StateDone {
		s.once.Do(func() { close(s.terminal) })
	}
	return err
}

// TestJournalKeepsWriteOrder: a job's journal writes land in the order
// its state changed, so a submit-time write that is slow to reach the
// store can never overwrite the running or terminal record a worker
// wrote after it; otherwise a finished job would come back as queued
// and run again on restart.
func TestJournalKeepsWriteOrder(t *testing.T) {
	store := &heldJournalStore{Store: blob.NewMem(), terminal: make(chan struct{})}
	m := newTestManager(t, Config{Workers: 1, Store: store})
	defer m.Close()
	j, err := m.Submit(JobSpec{Graph: "TT-S", NumWalks: 200, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	data, err := store.Get(jobKey(j.ID))
	if err != nil {
		t.Fatal(err)
	}
	var rec jobRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.State != StateDone {
		t.Fatalf("journal of a finished job says %q", rec.State)
	}
}

// legacyContainer is a snapshot container as an older daemon wrote it: a
// sealed gob payload under kind, with the version field set to version.
func legacyContainer(t *testing.T, kind string, version uint32) []byte {
	t.Helper()
	data, err := snapshot.Encode(kind, struct{ NumBoards int }{2})
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(data[8:12], version)
	sum := sha256.Sum256(data[:len(data)-sha256.Size])
	copy(data[len(data)-sha256.Size:], sum[:])
	return data
}

// TestManagerRecoveryRejectsPreBumpSnapshots: images written before a
// container version bump — a version-1 single-board engine image and a
// version-1 image of the old multi-board array kind (before one snapshot
// kind), a version-2 engine image (before packed walk records) and a
// version-3 engine image (before events carried their walks), each left at
// snapshots/<id>.snap by a crashed daemon — are refused with ErrVersion on
// recovery, and each job re-runs from scratch to the result a clean run
// produces.
func TestManagerRecoveryRejectsPreBumpSnapshots(t *testing.T) {
	cases := []struct {
		version uint32
		kind    string
		spec    JobSpec
	}{
		{1, "flashwalker-core-engine", JobSpec{Graph: "TT-S", NumWalks: 2000, Seed: 3, CheckpointEvery: 64}},
		{1, "flashwalker-core-array", JobSpec{Graph: "MB-S", NumWalks: 2000, Seed: 3, CheckpointEvery: 64, Boards: 2}},
		{2, "flashwalker-core-engine", JobSpec{Graph: "TT-S", NumWalks: 2000, Seed: 4, CheckpointEvery: 64}},
		{3, "flashwalker-core-engine", JobSpec{Graph: "TT-S", NumWalks: 2000, Seed: 5, CheckpointEvery: 64}},
	}

	mr := newTestManager(t, Config{Workers: 1})
	var refs []*JobResult
	for _, c := range cases {
		j, err := mr.Submit(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
		if st := j.Status(); st.State != StateDone || st.Result == nil {
			t.Fatalf("reference run: %+v", st)
		}
		refs = append(refs, j.Status().Result)
	}
	mr.Close()

	// Forge the crash: journals say running, old images on the store.
	store := blob.NewMem()
	for i, c := range cases {
		id := fmt.Sprintf("job-%d", i+1)
		old := legacyContainer(t, c.kind, c.version)
		if err := snapshot.Decode(old, snapKindCore, new(core.Snapshot)); !errors.Is(err, snapshot.ErrVersion) {
			t.Fatalf("v%d %s image decodes with %v, want ErrVersion", c.version, c.kind, err)
		}
		rec, err := json.Marshal(jobRecord{ID: id, Spec: c.spec, State: StateRunning, Submitted: time.Now()})
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Put(jobKey(id), rec); err != nil {
			t.Fatal(err)
		}
		if err := store.Put(snapshotKey(id), old); err != nil {
			t.Fatal(err)
		}
	}

	m := newTestManager(t, Config{Workers: 1, Store: store})
	defer m.Close()
	for i, c := range cases {
		j, err := m.Get(fmt.Sprintf("job-%d", i+1))
		if err != nil {
			t.Fatalf("recovered manager lost the v%d %s job: %v", c.version, c.kind, err)
		}
		waitTerminal(t, j)
		st := j.Status()
		if st.State != StateDone {
			t.Fatalf("v%d %s job: state %q, error %q", c.version, c.kind, st.State, st.Error)
		}
		if st.Result == nil || *st.Result != *refs[i] {
			t.Fatalf("v%d %s job re-run diverged:\n got %+v\nwant %+v", c.version, c.kind, st.Result, refs[i])
		}
		if _, err := store.Get(snapshotKey(j.ID)); !errors.Is(err, blob.ErrNotFound) {
			t.Errorf("v%d %s job: snapshot survived completion (err %v)", c.version, c.kind, err)
		}
	}
}

// TestManagerRecoveryGraphWalker: a durable graphwalker job interrupted
// mid-run (journal forged back to running) is re-enqueued on restart and
// re-runs from event zero, as any journaled job without a snapshot does,
// to the uninterrupted result. The stray case leaves bytes under the
// job's snapshot key, as a store written by an older daemon may hold:
// recovery must not be swayed by them, and completion must remove them.
func TestManagerRecoveryGraphWalker(t *testing.T) {
	spec := JobSpec{Kind: KindGraphWalker, Graph: "TT-S", NumWalks: 400_000, Seed: 6, CheckpointEvery: 64}

	mr := newTestManager(t, Config{Workers: 1})
	jr, err := mr.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, jr)
	ref := jr.Status().Result
	if ref == nil || jr.Status().State != StateDone {
		t.Fatalf("reference run: %+v", jr.Status())
	}
	mr.Close()

	for _, stray := range []bool{false, true} {
		t.Run(fmt.Sprintf("stray=%v", stray), func(t *testing.T) {
			dir := t.TempDir()
			m1 := newTestManager(t, Config{Workers: 1, StateDir: dir})
			j1, err := m1.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(time.Minute)
			for {
				st := j1.Status()
				if st.State == StateRunning && st.Progress != nil && st.Progress.Hops > 0 {
					break
				}
				if st.State != StateQueued && st.State != StateRunning {
					t.Fatalf("job reached %q before the interruption; nothing to recover", st.State)
				}
				if time.Now().After(deadline) {
					t.Fatal("job never reported progress")
				}
				time.Sleep(time.Millisecond)
			}
			if err := m1.Cancel(j1.ID); err != nil {
				t.Fatal(err)
			}
			waitTerminal(t, j1)
			if st := j1.Status(); st.State != StateCanceled {
				t.Fatalf("job reached %q before the interruption; nothing to recover", st.State)
			}
			m1.Close()

			forgeRunning(t, dir, j1.ID)
			snapPath := filepath.Join(dir, "snapshots", j1.ID+".snap")
			if stray {
				if err := os.MkdirAll(filepath.Dir(snapPath), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(snapPath, []byte("stray bytes of an older baseline record"), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			m2 := newTestManager(t, Config{Workers: 1, StateDir: dir})
			defer m2.Close()
			j2, err := m2.Get(j1.ID)
			if err != nil {
				t.Fatalf("recovered manager lost job %s: %v", j1.ID, err)
			}
			waitTerminal(t, j2)
			st := j2.Status()
			if st.State != StateDone {
				t.Fatalf("recovered job state %q, error %q", st.State, st.Error)
			}
			if st.Result == nil || *st.Result != *ref {
				t.Fatalf("recovered result diverged:\n got %+v\nwant %+v", st.Result, ref)
			}
			if _, err := os.Stat(snapPath); !os.IsNotExist(err) {
				t.Errorf("snapshot key survived job completion: %v", err)
			}
		})
	}
}

// forgeRunning rewrites job id's journal record in dir back to running,
// with no result or error: the record a daemon killed mid-run leaves.
func forgeRunning(t *testing.T, dir, id string) {
	t.Helper()
	jobPath := filepath.Join(dir, "jobs", id+".json")
	data, err := os.ReadFile(jobPath)
	if err != nil {
		t.Fatal(err)
	}
	var rec map[string]any
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	rec["state"] = StateRunning
	delete(rec, "result")
	delete(rec, "error")
	data, err = json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jobPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
