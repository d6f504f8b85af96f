package service

import (
	"context"
	"encoding/json"
	"errors"
	"log"
	"sort"
	"strconv"
	"strings"
	"time"

	"flashwalker/internal/core"
	"flashwalker/internal/snapshot"
)

// Durable job state. When the manager has a blob store (Config.Store, or
// Config.StateDir wrapped in the byte-compatible FS store) it keeps three
// families of keys in it:
//
//	jobs/<id>.json       one JSON journal record per job, atomically
//	                     rewritten at submit, start, and finish
//	snapshots/<id>.snap  the job's latest engine snapshot, a full image
//	                     (FlashWalker jobs; codec container), rewritten
//	                     at each checkpoint cut and removed at finish
//	streams/<id>.ndjson  the completed-walk stream spool
//
// A store written by an older daemon may also hold delta containers,
// snapshots/<id>.dN.snap, beside a job's full image. Recovery never reads
// them, and the job's finish or pruning removes them with the image.
//
// On startup the manager replays the journal: terminal jobs come back as
// history, queued and running jobs are re-enqueued. A re-enqueued running
// job resumes from its snapshot image; without one it re-runs from the
// start, which — the engines being deterministic — produces the identical
// result, just later. Journal and snapshot writes
// are best-effort: a full disk (or unreachable store) degrades durability,
// never a running job — but every failed write now counts in
// flashwalker_persist_errors_total and logs once per job.

// snapKindCore is the kind tag of a FlashWalker job's snapshot container.
const snapKindCore = "flashwalker-core-engine"

// Persist-error kinds, the label values of
// flashwalker_persist_errors_total.
const (
	persistKindJournal   = "journal"
	persistKindSnapshot  = "snapshot"
	persistKindSpool     = "spool"
	persistKindRetention = "retention"
)

// jobRecord is the journal shape of one job.
type jobRecord struct {
	ID        string     `json:"id"`
	Spec      JobSpec    `json:"spec"`
	State     string     `json:"state"`
	Error     string     `json:"error,omitempty"`
	Submitted time.Time  `json:"submitted_at"`
	Started   time.Time  `json:"started_at,omitempty"`
	Finished  time.Time  `json:"finished_at,omitempty"`
	Result    *JobResult `json:"result,omitempty"`
}

func jobKey(id string) string      { return "jobs/" + id + ".json" }
func snapshotKey(id string) string { return "snapshots/" + id + ".snap" }
func streamKey(id string) string   { return "streams/" + id + ".ndjson" }

// snapshotPrefix matches every snapshot key of exactly one job: its full
// image and any delta container an older daemon left beside it. The
// trailing dot keeps "job-1." from matching "job-10.snap".
func snapshotPrefix(id string) string { return "snapshots/" + id + "." }

// persistError records one failed durability write: counted by kind in
// flashwalker_persist_errors_total and logged once per job on the first
// failure, so best-effort degradation is observable instead of invisible.
// j may be nil for writes not tied to one job (retention).
func (m *Manager) persistError(j *Job, kind string, err error) {
	switch kind {
	case persistKindJournal:
		m.metrics.persistErrJournal.Add(1)
	case persistKindSnapshot:
		m.metrics.persistErrSnapshot.Add(1)
	case persistKindSpool:
		m.metrics.persistErrSpool.Add(1)
	default:
		m.metrics.persistErrRetention.Add(1)
	}
	if j == nil {
		log.Printf("service: %s persistence error: %v", kind, err)
		return
	}
	if j.persistLogged.CompareAndSwap(false, true) {
		log.Printf("service: job %s: durability degraded (%s write failed; further failures counted, not logged): %v",
			j.ID, kind, err)
	}
}

// journal rewrites j's journal record. Best-effort; no-op without a store.
func (m *Manager) journal(j *Job) {
	if m.store == nil {
		return
	}
	j.journalMu.Lock()
	defer j.journalMu.Unlock()
	j.mu.Lock()
	rec := jobRecord{
		ID: j.ID, Spec: j.Spec, State: j.state,
		Submitted: j.Submitted, Started: j.started, Finished: j.finished,
		Result: j.result,
	}
	if j.err != nil {
		rec.Error = j.err.Error()
	}
	j.mu.Unlock()
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		m.persistError(j, persistKindJournal, err)
		return
	}
	if err := m.store.Put(jobKey(j.ID), data); err != nil {
		m.persistError(j, persistKindJournal, err)
	}
}

// dropSnapshot removes a terminal job's snapshot keys; the journal record
// is the durable trace that remains.
func (m *Manager) dropSnapshot(j *Job) {
	if m.store != nil {
		m.deleteSnapshots(j.ID, func(err error) { m.persistError(j, persistKindSnapshot, err) })
	}
}

// deleteSnapshots deletes every key under snapshotPrefix(id), reporting
// each failure to fail.
func (m *Manager) deleteSnapshots(id string, fail func(error)) {
	keys, err := m.store.List(snapshotPrefix(id))
	if err != nil {
		fail(err)
		return
	}
	for _, k := range keys {
		if err := m.store.Delete(k); err != nil {
			fail(err)
		}
	}
}

// coreSnapWriter writes a FlashWalker job's checkpoint cuts, each one full
// image under the job's snapshot key.
type coreSnapWriter struct {
	m         *Manager
	j         *Job
	lastWrite time.Time
}

func (w *coreSnapWriter) write(s *core.Snapshot) {
	// Serializing the engine image is throttled to at most one write per
	// snapshotMinInterval of wall time so short checkpoint intervals don't
	// turn the job into an fsync loop.
	if time.Since(w.lastWrite) < snapshotMinInterval {
		return
	}
	w.lastWrite = time.Now()
	// A failed write is counted, not fatal: atomic Put leaves the previous
	// image in place.
	data, err := snapshot.Encode(snapKindCore, s)
	if err == nil {
		err = w.m.store.Put(snapshotKey(w.j.ID), data)
	}
	if err != nil {
		w.m.persistError(w.j, persistKindSnapshot, err)
	}
}

// loadCoreSnap reads a job's snapshot image; Decode verifies its checksum.
// A missing, corrupt or older-version container reports false, and the job
// runs from the start.
func (m *Manager) loadCoreSnap(id string) (*core.Snapshot, bool) {
	data, err := m.store.Get(snapshotKey(id))
	if err != nil {
		return nil, false
	}
	var s core.Snapshot
	if err := snapshot.Decode(data, snapKindCore, &s); err != nil {
		return nil, false
	}
	return &s, true
}

// jobSeq extracts the numeric suffix of a "job-N" ID.
func jobSeq(id string) (uint64, bool) {
	s, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(s, 10, 64)
	return n, err == nil
}

// recoverJobs replays the journal into the manager's tables and returns
// the non-terminal jobs to re-enqueue, oldest first. Unreadable or
// malformed records are skipped — recovery restores what it can rather
// than refusing to start.
func (m *Manager) recoverJobs() ([]*Job, error) {
	keys, err := m.store.List("jobs/")
	if err != nil {
		return nil, err
	}
	var recs []jobRecord
	for _, key := range keys {
		if !strings.HasSuffix(key, ".json") {
			continue
		}
		data, err := m.store.Get(key)
		if err != nil {
			continue
		}
		var rec jobRecord
		if json.Unmarshal(data, &rec) != nil || rec.ID == "" {
			continue
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool {
		a, _ := jobSeq(recs[i].ID)
		b, _ := jobSeq(recs[j].ID)
		if a != b {
			return a < b
		}
		return recs[i].ID < recs[j].ID
	})

	var pending []*Job
	for _, rec := range recs {
		if _, dup := m.jobs[rec.ID]; dup {
			continue
		}
		if n, ok := jobSeq(rec.ID); ok && n > m.seq {
			m.seq = n
		}
		ctx, cancel := context.WithCancel(m.baseCtx)
		j := &Job{
			ID: rec.ID, Spec: rec.Spec, Submitted: rec.Submitted,
			ctx: ctx, cancel: cancel, done: make(chan struct{}),
		}
		switch rec.State {
		case StateDone, StateCanceled, StateFailed:
			j.state = rec.State
			j.result = rec.Result
			j.started, j.finished = rec.Started, rec.Finished
			if rec.Error != "" {
				j.err = errors.New(rec.Error)
			}
			close(j.done)
		default:
			// Queued and running jobs go back on the queue; a previously
			// running job resumes from its last snapshot when it has one.
			j.state = StateQueued
			pending = append(pending, j)
		}
		m.jobs[j.ID] = j
		m.order = append(m.order, j.ID)
	}
	return pending, nil
}

// pruneTerminal enforces the retention policy: keep the newest RetainJobs
// terminal jobs (0 = unlimited) and drop terminal jobs whose finish time
// is older than RetainAge (0 = no age bound). Pruning removes the job's
// journal, spool, and any leftover snapshot containers from the store AND
// the job from the manager's tables, oldest-first in submission order.
// Non-terminal jobs are never touched. Runs at startup (after recovery)
// and after every finish.
func (m *Manager) pruneTerminal() {
	if m.store == nil || (m.retainJobs <= 0 && m.retainAge <= 0) {
		return
	}
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		if j := m.jobs[id]; j != nil {
			jobs = append(jobs, j)
		}
	}
	m.mu.Unlock()

	type termJob struct {
		j        *Job
		finished time.Time
	}
	var term []termJob
	for _, j := range jobs {
		j.mu.Lock()
		terminal := j.state == StateDone || j.state == StateCanceled || j.state == StateFailed
		fin := j.finished
		j.mu.Unlock()
		if terminal {
			term = append(term, termJob{j, fin})
		}
	}

	prune := map[string]bool{}
	if m.retainJobs > 0 {
		for i := 0; i < len(term)-m.retainJobs; i++ {
			prune[term[i].j.ID] = true
		}
	}
	if m.retainAge > 0 {
		cutoff := time.Now().Add(-m.retainAge)
		for _, tj := range term {
			if !tj.finished.IsZero() && tj.finished.Before(cutoff) {
				prune[tj.j.ID] = true
			}
		}
	}
	if len(prune) == 0 {
		return
	}

	m.mu.Lock()
	kept := m.order[:0]
	for _, id := range m.order {
		if prune[id] {
			delete(m.jobs, id)
		} else {
			kept = append(kept, id)
		}
	}
	m.order = kept
	m.mu.Unlock()

	fail := func(err error) { m.persistError(nil, persistKindRetention, err) }
	for id := range prune {
		for _, key := range []string{jobKey(id), streamKey(id)} {
			if err := m.store.Delete(key); err != nil {
				fail(err)
			}
		}
		m.deleteSnapshots(id, fail)
		m.metrics.jobsPruned.Add(1)
	}
}
