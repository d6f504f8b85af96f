package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
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
//	jobs/<id>.json         one JSON journal record per job, atomically
//	                       rewritten at submit, start, and finish
//	snapshots/<id>.snap    the job's latest FULL engine snapshot
//	                       (FlashWalker jobs; codec container), removed
//	                       at finish
//	snapshots/<id>.dN.snap delta containers chained to the full snapshot
//	                       (FlashWalker jobs), each naming its base by the
//	                       preceding container's SHA-256 seal; removed at
//	                       the next full cut and at finish
//	streams/<id>.ndjson    the completed-walk stream spool
//
// On startup the manager replays the journal: terminal jobs come back as
// history, queued and running jobs are re-enqueued. A re-enqueued running
// job resumes from its last consistent snapshot image — the full container
// plus the longest verifiable delta chain on top of it; otherwise it
// re-runs from the start, which — the engines being deterministic —
// produces the identical result, just later. Journal and snapshot writes
// are best-effort: a full disk (or unreachable store) degrades durability,
// never a running job — but every failed write now counts in
// flashwalker_persist_errors_total and logs once per job.

// Snapshot container kind tags.
const (
	snapKindCore  = "flashwalker-core-engine"
	snapKindDelta = "flashwalker-core-delta"
)

// defaultSnapshotDeltas is the delta-chain length between full snapshot
// cuts when Config.SnapshotDeltas is 0.
const defaultSnapshotDeltas = 4

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

// deltaKey names the n-th delta container (1-based) in a job's chain.
func deltaKey(id string, n int) string {
	return fmt.Sprintf("snapshots/%s.d%d.snap", id, n)
}

// deltaPrefix matches exactly one job's delta containers: "job-1.d" cannot
// prefix "job-10.d1.snap" because the character after the shared "job-1"
// differs ("." vs "0").
func deltaPrefix(id string) string { return "snapshots/" + id + ".d" }

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

// dropSnapshot removes a terminal job's snapshot containers — the full
// image and any delta chain; the journal record is the durable trace that
// remains.
func (m *Manager) dropSnapshot(j *Job) {
	if m.store == nil {
		return
	}
	if err := m.store.Delete(snapshotKey(j.ID)); err != nil {
		m.persistError(j, persistKindSnapshot, err)
	}
	keys, err := m.store.List(deltaPrefix(j.ID))
	if err != nil {
		m.persistError(j, persistKindSnapshot, err)
		return
	}
	for _, k := range keys {
		if err := m.store.Delete(k); err != nil {
			m.persistError(j, persistKindSnapshot, err)
		}
	}
}

// putSnap encodes v into a kind-tagged container and stores it under key,
// returning the container's seal. Failures are counted, not fatal: the
// previous blob (if any) stays in place thanks to atomic Put.
func (m *Manager) putSnap(j *Job, key, kind string, v any) ([32]byte, bool) {
	var zero [32]byte
	data, err := snapshot.Encode(kind, v)
	if err != nil {
		m.persistError(j, persistKindSnapshot, err)
		return zero, false
	}
	if err := m.store.Put(key, data); err != nil {
		m.persistError(j, persistKindSnapshot, err)
		return zero, false
	}
	seal, err := snapshot.Seal(data)
	if err != nil {
		m.persistError(j, persistKindSnapshot, err)
		return zero, false
	}
	return seal, true
}

// getSnap fetches and decodes a container, returning its seal alongside.
func (m *Manager) getSnap(key, kind string, v any) ([32]byte, error) {
	var zero [32]byte
	data, err := m.store.Get(key)
	if err != nil {
		return zero, err
	}
	if err := snapshot.Decode(data, kind, v); err != nil {
		return zero, err
	}
	seal, err := snapshot.Seal(data)
	if err != nil {
		return zero, err
	}
	return seal, nil
}

// coreSnapWriter drives a FlashWalker job's checkpoint chain:
// a full snapshot container, then up to maxDeltas delta containers each
// chaining to its predecessor by seal, then a fresh full cut (which
// retires the superseded chain). A failed write never advances the chain
// head — the next cut diffs against the last image actually stored, so the
// chain on the store is always internally consistent, just coarser.
type coreSnapWriter struct {
	m         *Manager
	j         *Job
	maxDeltas int
	lastWrite time.Time
	base      *core.Snapshot
	baseSHA   [32]byte
	deltas    int
}

func (w *coreSnapWriter) write(s *core.Snapshot) {
	// Serializing the engine image is throttled to at most one write per
	// snapshotMinInterval of wall time so short checkpoint intervals don't
	// turn the job into an fsync loop.
	if time.Since(w.lastWrite) < snapshotMinInterval {
		return
	}
	w.lastWrite = time.Now()
	if w.base != nil && w.deltas < w.maxDeltas {
		d := core.DiffSnapshot(w.base, s, w.baseSHA, w.deltas+1)
		if sha, ok := w.m.putSnap(w.j, deltaKey(w.j.ID, w.deltas+1), snapKindDelta, d); ok {
			w.deltas++
			w.base, w.baseSHA = s, sha
		}
		return
	}
	sha, ok := w.m.putSnap(w.j, snapshotKey(w.j.ID), snapKindCore, s)
	if !ok {
		return
	}
	retire := w.deltas
	w.base, w.baseSHA, w.deltas = s, sha, 0
	// The new full image supersedes the old chain; stale deltas chained to
	// the previous full snapshot must not survive it (their BaseSHA would
	// fail verification anyway, but leaving them would leak storage).
	for n := 1; n <= retire; n++ {
		if err := w.m.store.Delete(deltaKey(w.j.ID, n)); err != nil {
			w.m.persistError(w.j, persistKindSnapshot, err)
		}
	}
}

// loadCoreSnap reads a job's checkpoint chain — the full container plus
// any delta containers — and reconstructs the most recent consistent
// image. A delta that is missing, corrupt, mis-chained (BaseSHA does not
// match the container before it), or structurally inapplicable ends the
// walk: the prefix up to it is still a consistent cut, and the engine's
// determinism makes resuming from any consistent cut result-identical.
// Returns the image, the seal of the last container consumed, and the
// chain position, so a resumed job's writer continues the chain in place.
func (m *Manager) loadCoreSnap(id string) (*core.Snapshot, [32]byte, int, bool) {
	var full core.Snapshot
	sha, err := m.getSnap(snapshotKey(id), snapKindCore, &full)
	if err != nil {
		return nil, sha, 0, false
	}
	cur := &full
	n := 0
	for {
		var d core.SnapshotDelta
		dsha, err := m.getSnap(deltaKey(id, n+1), snapKindDelta, &d)
		if err != nil {
			break
		}
		if d.BaseSHA != sha {
			break
		}
		next, err := core.ApplyDelta(cur, &d)
		if err != nil {
			break
		}
		cur, sha = next, dsha
		n++
	}
	return cur, sha, n, true
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

	for id := range prune {
		for _, key := range []string{jobKey(id), streamKey(id), snapshotKey(id)} {
			if err := m.store.Delete(key); err != nil {
				m.persistError(nil, persistKindRetention, err)
			}
		}
		keys, err := m.store.List(deltaPrefix(id))
		if err != nil {
			m.persistError(nil, persistKindRetention, err)
			continue
		}
		for _, key := range keys {
			if err := m.store.Delete(key); err != nil {
				m.persistError(nil, persistKindRetention, err)
			}
		}
		m.metrics.jobsPruned.Add(1)
	}
}
