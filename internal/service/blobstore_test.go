package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"flashwalker/internal/blob"
	"flashwalker/internal/core"
	"flashwalker/internal/snapshot"
)

// TestBodyTooLarge: both POST endpoints reject oversized bodies with the
// stable body_too_large envelope code instead of reading them unbounded,
// and a normal-size request on the same server still succeeds.
func TestBodyTooLarge(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 1024})

	huge := map[string]string{"graph": strings.Repeat("x", 64<<10)}
	for _, path := range []string{"/v1/jobs", "/v1/graphs"} {
		resp, body := postJSON(t, srv.URL+path, huge)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s oversized: status %d, body %s", path, resp.StatusCode, body)
		}
		var env errorEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("POST %s oversized: non-envelope body %s: %v", path, body, err)
		}
		if env.Error.Code != "body_too_large" {
			t.Errorf("POST %s oversized: code %q, want body_too_large", path, env.Error.Code)
		}
	}

	// The cap must not reject legitimate requests.
	st := submitJob(t, srv, JobSpec{Graph: "TT-S", NumWalks: 100, Seed: 1})
	if st.ID == "" {
		t.Fatal("normal-size submission rejected under body cap")
	}
}

// TestRetentionPrunesTerminal: with RetainJobs set, every finish prunes
// terminal jobs past the cap — journal, spool, and snapshots gone from the
// store, a delta container an older daemon left included — while a
// still-running job is never touched, and a restart on the pruned store
// recovers exactly the retained set.
func TestRetentionPrunesTerminal(t *testing.T) {
	store := blob.NewMem()
	m1 := newTestManager(t, Config{Workers: 2, Store: store, RetainJobs: 1})

	// A long job pins one worker for the whole test: non-terminal, so
	// retention must never touch it no matter how many jobs finish.
	long, err := m1.Submit(JobSpec{Graph: "TT-S", NumWalks: 500_000, Seed: 1, CheckpointEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Three short jobs run sequentially on the other worker; after the
	// third finishes, RetainJobs=1 must have pruned the first two.
	var shorts []*Job
	for i := 0; i < 3; i++ {
		j, err := m1.Submit(JobSpec{Graph: "TT-S", NumWalks: 200, Seed: uint64(i + 2)})
		if err != nil {
			t.Fatal(err)
		}
		shorts = append(shorts, j)
		waitTerminal(t, j)
		if i == 0 {
			// What an older daemon's delta chain leaves behind.
			if err := store.Put("snapshots/"+j.ID+".d1.snap", []byte("delta")); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, j := range shorts[:2] {
		if _, err := store.Get(jobKey(j.ID)); !errors.Is(err, blob.ErrNotFound) {
			t.Errorf("pruned job %s journal still in store (err %v)", j.ID, err)
		}
		if _, err := store.Get(streamKey(j.ID)); !errors.Is(err, blob.ErrNotFound) {
			t.Errorf("pruned job %s spool still in store (err %v)", j.ID, err)
		}
		if keys, err := store.List(snapshotPrefix(j.ID)); err != nil || len(keys) != 0 {
			t.Errorf("pruned job %s snapshot keys still in store: %v (err %v)", j.ID, keys, err)
		}
		if _, err := m1.Get(j.ID); err == nil {
			t.Errorf("pruned job %s still listed by the manager", j.ID)
		}
	}
	if _, err := store.Get(jobKey(shorts[2].ID)); err != nil {
		t.Errorf("retained job %s journal missing: %v", shorts[2].ID, err)
	}
	if _, err := store.Get(jobKey(long.ID)); err != nil {
		t.Errorf("running job %s journal pruned: %v", long.ID, err)
	}
	if got := m1.metrics.jobsPruned.Load(); got != 2 {
		t.Errorf("jobsPruned = %d, want 2", got)
	}

	if err := m1.Cancel(long.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, long)
	m1.Close()

	// Restart on the pruned store: only what retention kept comes back.
	// Retention keeps the newest terminal jobs in submission order, so the
	// final prune (after the long job was canceled) kept the last short
	// and dropped the earlier-submitted long job.
	m2 := newTestManager(t, Config{Workers: 1, Store: store, RetainJobs: 1})
	defer m2.Close()
	list := m2.List()
	if len(list) != 1 || list[0].ID != shorts[2].ID {
		t.Fatalf("recovered %d jobs %+v, want exactly %s", len(list), list, shorts[2].ID)
	}
}

// faultStore fails every write while leaving reads intact — the double
// behind the durability-degradation contract: writes may fail, jobs must
// not.
type faultStore struct {
	blob.Store
}

var errInjectedWrite = errors.New("injected write failure")

func (f *faultStore) Put(key string, data []byte) error    { return errInjectedWrite }
func (f *faultStore) Append(key string, data []byte) error { return errInjectedWrite }

// TestPersistErrorsCountedJobCompletes: with a store whose writes all
// fail, a job still runs to Done, and every durability path it exercised
// (journal, snapshot, spool) shows up in
// flashwalker_persist_errors_total{kind}.
func TestPersistErrorsCountedJobCompletes(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, Store: &faultStore{blob.NewMem()}})
	defer m.Close()

	j, err := m.Submit(JobSpec{Graph: "TT-S", NumWalks: 5_000, Seed: 3, CheckpointEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	if st := j.Status(); st.State != StateDone {
		t.Fatalf("job under failing store: state %q, error %q", st.State, st.Error)
	}

	for kind, v := range map[string]int64{
		persistKindJournal:  m.metrics.persistErrJournal.Load(),
		persistKindSnapshot: m.metrics.persistErrSnapshot.Load(),
		persistKindSpool:    m.metrics.persistErrSpool.Load(),
	} {
		if v == 0 {
			t.Errorf("persist_errors_total{kind=%q} = 0, want > 0", kind)
		}
	}
	if !strings.Contains(m.Metrics(), `flashwalker_persist_errors_total{kind="journal"}`) {
		t.Error("metrics output missing the persist_errors_total journal series")
	}
}

// TestManagerRecoveryHTTPStore is the durable-jobs recovery scenario run
// end-to-end through the HTTP object-store client against the in-package
// object server: a job interrupted mid-run (journal says running, a full
// snapshot in the store) resumes on restart and converges on the
// uninterrupted result exactly. Beside the image lies what a daemon that
// wrote delta chains left there: a delta container chained to the image and
// stray bytes under the next delta key. Recovery ignores both, and
// completion removes them.
func TestManagerRecoveryHTTPStore(t *testing.T) {
	osrv := httptest.NewServer(blob.Handler(blob.NewMem()))
	defer osrv.Close()
	store, err := blob.NewHTTP(osrv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
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

	// First life: run against the object store until two cuts have landed
	// under the snapshot key, one after the other, then cancel.
	m1 := newTestManager(t, Config{Workers: 1, Store: store})
	j1, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	var first, second []byte
	deadline := time.Now().Add(time.Minute)
	for second == nil {
		data, err := store.Get(snapshotKey(j1.ID))
		switch {
		case err != nil:
		case first == nil:
			first = data
		case !bytes.Equal(data, first):
			second = data
		}
		if time.Now().After(deadline) {
			t.Fatalf("no two snapshot cuts in store (first seen: %v, err %v)", first != nil, err)
		}
		time.Sleep(time.Millisecond)
	}
	if err := m1.Cancel(j1.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j1)
	m1.Close()

	// Forge the crash the cancel cleaned up after: journal back to running,
	// the first cut under the snapshot key, and the chain a daemon writing
	// deltas would have put beside it: the second cut as a delta container
	// naming the first by its seal, then a torn second delta.
	data, err := store.Get(jobKey(j1.ID))
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
	var base, cur core.Snapshot
	if err := snapshot.Decode(first, snapKindCore, &base); err != nil {
		t.Fatal(err)
	}
	if err := snapshot.Decode(second, snapKindCore, &cur); err != nil {
		t.Fatal(err)
	}
	seal, err := snapshot.Seal(first)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := snapshot.Encode("flashwalker-core-delta", core.DiffSnapshot(&base, &cur, seal, 1))
	if err != nil {
		t.Fatal(err)
	}
	for key, b := range map[string][]byte{
		jobKey(j1.ID):                     data,
		snapshotKey(j1.ID):                first,
		"snapshots/" + j1.ID + ".d1.snap": delta,
		"snapshots/" + j1.ID + ".d2.snap": []byte("torn delta"),
	} {
		if err := store.Put(key, b); err != nil {
			t.Fatal(err)
		}
	}

	// Second life: recovered over HTTP, resumed from the full image, and
	// bit-identical to the clean run.
	m2 := newTestManager(t, Config{Workers: 1, Store: store})
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
	// Completion removes every snapshot key, the old delta keys included.
	keys, err := store.List(snapshotPrefix(j1.ID))
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Errorf("snapshot keys survived completion: %v", keys)
	}
}
