package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"flashwalker/internal/baseline"
	"flashwalker/internal/blob"
	"flashwalker/internal/core"
	"flashwalker/internal/errs"
	"flashwalker/internal/fault"
	"flashwalker/internal/graph"
	"flashwalker/internal/harness"
	"flashwalker/internal/sim"
	"flashwalker/internal/walk"
)

// Service-level errors. Engine- and registry-level failures surface the
// shared taxonomy (errs.ErrCanceled, errs.ErrInvalidConfig,
// errs.ErrUnknownDataset); these two are specific to the job manager.
var (
	// ErrQueueFull reports a submission rejected by backpressure: the
	// bounded job queue has no free slot. Retry later.
	ErrQueueFull = errors.New("job queue full")
	// ErrUnknownJob reports a job ID with no matching job.
	ErrUnknownJob = errors.New("unknown job")
)

// Snapshot cadence for durable jobs: a snapshot is attempted every
// snapshotCheckpointRatio checkpoint intervals (spec.checkpoint_every
// events each, or the engine default), and actually written at most once
// per snapshotMinInterval of wall time.
const (
	snapshotCheckpointRatio = 16
	snapshotMinInterval     = 200 * time.Millisecond
)

// DeepWalk spec bounds: generous for real workloads, tight enough that a
// fuzz-decoded spec can never ask for an absurd corpus.
const (
	maxWalksPerVertex = 1 << 20
	maxWalkLength     = 1 << 20
)

// maxMutations caps the mutation-stream length a single submission may
// carry: generous for real dynamic-graph workloads, tight enough that a
// fuzz-decoded spec can never make validation itself expensive.
const maxMutations = 1 << 17

// Job kinds.
const (
	// KindFlashWalker runs the in-storage accelerator (the default).
	KindFlashWalker = "flashwalker"
	// KindGraphWalker runs the host-CPU baseline for comparison.
	KindGraphWalker = "graphwalker"
	// KindDeepWalk generates a DeepWalk training corpus (walks_per_vertex
	// unbiased walks of walk_length hops from every vertex). Identical
	// submissions — same (graph, spec, seed, start set) — are served from
	// the manager's sealed corpus cache without re-running the engine.
	KindDeepWalk = "deepwalk"
)

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateCanceled = "canceled"
	StateFailed   = "failed"
)

// JobSpec is a job submission.
type JobSpec struct {
	// Kind selects the engine: "flashwalker" (default) or "graphwalker".
	Kind string `json:"kind"`
	// Tenant names the submitting tenant for admission control (quotas,
	// rate limits, fair-share scheduling). Empty means "default".
	Tenant string `json:"tenant,omitempty"`
	// Graph names a registry entry (dataset or loaded file).
	Graph string `json:"graph"`
	// NumWalks is the walk count; 0 uses the graph's default.
	NumWalks int `json:"num_walks"`
	// Seed is the root RNG seed (0 is a valid seed).
	Seed uint64 `json:"seed"`
	// MemBytes is the baseline's memory capacity; 0 uses the scaled-8GB
	// analogue. Ignored by FlashWalker jobs.
	MemBytes int64 `json:"mem_bytes"`
	// CheckpointEvery overrides the event interval between cancellation
	// checks and progress snapshots; 0 uses the engine default.
	CheckpointEvery uint64 `json:"checkpoint_every"`
	// FaultConfig, when non-nil, enables deterministic fault injection for
	// FlashWalker jobs (ignored by the host baseline). An invalid config is
	// rejected at submission — 400, not an async worker failure.
	FaultConfig *fault.Config `json:"fault_config,omitempty"`
	// Boards selects the simulated device topology for FlashWalker jobs:
	// 0 or 1 runs the classic single board, N > 1 an N-board SSD array
	// over the inter-board fabric (ignored by the host baseline).
	Boards int `json:"boards,omitempty"`
	// FabricLatencyNS overrides the fabric per-message latency (ns); 0
	// keeps the engine default. Only meaningful with Boards > 1.
	FabricLatencyNS int64 `json:"fabric_latency_ns,omitempty"`
	// FabricMBps overrides the per-board fabric bandwidth (MB/s); 0 keeps
	// the engine default. Only meaningful with Boards > 1.
	FabricMBps int64 `json:"fabric_mbps,omitempty"`
	// WalksPerVertex is the DeepWalk corpus fan-out (kind "deepwalk"
	// only): that many walks start from every vertex. 0 means 1.
	WalksPerVertex int `json:"walks_per_vertex,omitempty"`
	// WalkLength is the per-walk hop budget for "deepwalk" jobs. 0 uses
	// the harness default walk length.
	WalkLength uint32 `json:"walk_length,omitempty"`
	// Mutations is a deterministic, time-sorted edge insert/delete stream.
	// FlashWalker jobs apply it strictly between simulated events (a
	// mutation stamped T ns is visible to the first event at time >= T;
	// at_ns == 0 applies before the run). DeepWalk jobs apply the whole
	// stream up front — corpus generation runs on the host, with no
	// simulated clock. The host baseline does not support mutations; a
	// graphwalker job carrying a stream is rejected at submission.
	Mutations graph.MutationStream `json:"mutations,omitempty"`
}

// validate is the pure half of normalize: shape checks only, no registry
// access, no I/O. The fuzz target drives it directly with arbitrary decoded
// specs, so it must reject every bad shape with errs.ErrInvalidConfig and
// never panic.
func (s *JobSpec) validate() error {
	if s.Kind == "" {
		s.Kind = KindFlashWalker
	}
	if s.Kind != KindFlashWalker && s.Kind != KindGraphWalker && s.Kind != KindDeepWalk {
		return fmt.Errorf("service: unknown job kind %q: %w", s.Kind, errs.ErrInvalidConfig)
	}
	if len(s.Tenant) > maxTenantLen {
		return fmt.Errorf("service: tenant longer than %d bytes: %w", maxTenantLen, errs.ErrInvalidConfig)
	}
	if s.NumWalks < 0 {
		return fmt.Errorf("service: num_walks must be non-negative: %w", errs.ErrInvalidConfig)
	}
	if s.WalksPerVertex < 0 || s.WalksPerVertex > maxWalksPerVertex {
		return fmt.Errorf("service: walks_per_vertex %d outside [0, %d]: %w",
			s.WalksPerVertex, maxWalksPerVertex, errs.ErrInvalidConfig)
	}
	if s.WalkLength > maxWalkLength {
		return fmt.Errorf("service: walk_length %d exceeds %d: %w", s.WalkLength, maxWalkLength, errs.ErrInvalidConfig)
	}
	if s.Kind != KindDeepWalk && (s.WalksPerVertex != 0 || s.WalkLength != 0) {
		return fmt.Errorf("service: walks_per_vertex/walk_length only apply to %q jobs: %w",
			KindDeepWalk, errs.ErrInvalidConfig)
	}
	if s.MemBytes < 0 {
		return fmt.Errorf("service: mem_bytes must be non-negative: %w", errs.ErrInvalidConfig)
	}
	if s.FaultConfig != nil {
		if err := s.FaultConfig.Validate(); err != nil {
			return fmt.Errorf("service: fault_config: %w", err)
		}
	}
	if s.Boards < 0 || s.Boards > core.MaxBoards {
		return fmt.Errorf("service: boards %d outside [0, %d]: %w", s.Boards, core.MaxBoards, errs.ErrInvalidConfig)
	}
	if s.FabricLatencyNS < 0 {
		return fmt.Errorf("service: fabric_latency_ns must be non-negative: %w", errs.ErrInvalidConfig)
	}
	if s.FabricMBps < 0 {
		return fmt.Errorf("service: fabric_mbps must be non-negative: %w", errs.ErrInvalidConfig)
	}
	if len(s.Mutations) > maxMutations {
		return fmt.Errorf("service: mutation stream of %d entries exceeds %d: %w",
			len(s.Mutations), maxMutations, errs.ErrInvalidConfig)
	}
	if len(s.Mutations) > 0 {
		if s.Kind == KindGraphWalker {
			return fmt.Errorf("service: the host baseline does not support mutations: %w", errs.ErrInvalidConfig)
		}
		if err := s.Mutations.ValidateShape(); err != nil {
			return fmt.Errorf("service: mutations: %v: %w", err, errs.ErrInvalidConfig)
		}
	}
	if s.FaultConfig != nil && s.FaultConfig.KillBoardAt > 0 {
		// The whole-device kill needs survivors; reject the mismatch here so
		// it is a 400, never an async worker failure.
		if s.Boards <= 1 {
			return fmt.Errorf("service: fault_config.kill_board_at requires boards > 1: %w", errs.ErrInvalidConfig)
		}
		if s.FaultConfig.KillBoard >= s.Boards {
			return fmt.Errorf("service: fault_config.kill_board %d outside array of %d boards: %w",
				s.FaultConfig.KillBoard, s.Boards, errs.ErrInvalidConfig)
		}
	}
	return nil
}

// normalize fills defaults and validates; registry lookup happens at
// submission so unknown graphs fail the request, not the worker.
func (s *JobSpec) normalize(reg *Registry) error {
	if err := s.validate(); err != nil {
		return err
	}
	if s.Tenant == "" {
		s.Tenant = DefaultTenant
	}
	if s.MemBytes == 0 {
		s.MemBytes = harness.GWMem8GB
	}
	g, ds, err := reg.Get(s.Graph)
	if err != nil {
		return err
	}
	if s.NumWalks == 0 {
		s.NumWalks = ds.DefaultWalks
	}
	if s.Kind == KindDeepWalk {
		if s.WalksPerVertex == 0 {
			s.WalksPerVertex = 1
		}
		if s.WalkLength == 0 {
			s.WalkLength = harness.WalkLength
		}
	}
	if len(s.Mutations) > 0 {
		// Deep validation needs the graph, so it lives here rather than in
		// validate: endpoint ranges, weight rules, delete-must-exist, and —
		// for FlashWalker jobs — the partitioning's dense-vertex degree cap
		// that keeps the frozen block skeleton valid.
		switch s.Kind {
		case KindDeepWalk:
			// Host-side corpus generation has no partition skeleton to
			// protect; only the graph-level invariants apply.
			if err := s.Mutations.Validate(g, 0); err != nil {
				return fmt.Errorf("service: mutations: %v: %w", err, errs.ErrInvalidConfig)
			}
		default:
			pc := harness.FlashWalkerConfig(ds, core.AllOptions(), s.NumWalks, s.Seed).PartCfg
			if err := core.ValidateMutations(g, pc, s.Mutations); err != nil {
				return err
			}
		}
	}
	return nil
}

// Progress is a live job snapshot, engine-agnostic.
type Progress struct {
	SimTimeNS     int64  `json:"sim_time_ns"`
	Events        uint64 `json:"events"`
	Started       int    `json:"started"`
	Completed     int    `json:"completed"`
	DeadEnded     int    `json:"dead_ended"`
	Hops          uint64 `json:"hops"`
	WalksFinished int    `json:"walks_finished"`
}

// JobResult is the engine-agnostic outcome summary.
type JobResult struct {
	SimTimeNS       int64   `json:"sim_time_ns"`
	Started         int     `json:"started"`
	Completed       int     `json:"completed"`
	DeadEnded       int     `json:"dead_ended"`
	Hops            uint64  `json:"hops"`
	HopRate         float64 `json:"hops_per_sim_sec"`
	FlashReadBytes  int64   `json:"flash_read_bytes"`
	FlashWriteBytes int64   `json:"flash_write_bytes"`
	// Partial marks a result snapshotted at a cancellation boundary
	// rather than at completion.
	Partial bool `json:"partial"`
	// Mapping-table query-cache outcome (FlashWalker jobs).
	QueryCacheHits   uint64 `json:"query_cache_hits,omitempty"`
	QueryCacheMisses uint64 `json:"query_cache_misses,omitempty"`
	// MutationsApplied counts the mutation-stream entries applied before
	// the run ended (FlashWalker jobs; a stream entry stamped after the
	// simulation's end time is never applied).
	MutationsApplied uint64 `json:"mutations_applied,omitempty"`
	// DeepWalk corpus outcome (kind "deepwalk" only). CorpusSHA256 is the
	// seal over the corpus text; CorpusCached marks a result served from
	// the corpus cache without running the engine.
	CorpusWalks    int     `json:"corpus_walks,omitempty"`
	CorpusTokens   int     `json:"corpus_tokens,omitempty"`
	CorpusMeanHops float64 `json:"corpus_mean_hops,omitempty"`
	CorpusSHA256   string  `json:"corpus_sha256,omitempty"`
	CorpusCached   bool    `json:"corpus_cached,omitempty"`
	// Fault-injection outcome; all zero when the job ran without a
	// FaultConfig.
	FaultReadErrors  uint64 `json:"fault_read_errors,omitempty"`
	FaultRetries     uint64 `json:"fault_retries,omitempty"`
	FaultStalls      uint64 `json:"fault_plane_busy_stalls,omitempty"`
	DegradedChips    uint64 `json:"degraded_chips,omitempty"`
	FaultReroutes    uint64 `json:"fault_reroutes,omitempty"`
	FailoverBlocks   uint64 `json:"failover_blocks,omitempty"`
	RetriesExhausted uint64 `json:"fault_retries_exhausted,omitempty"`
}

// Job is one tracked run. Fields under mu change as the job advances; the
// Status method returns consistent copies for the API.
type Job struct {
	ID        string  `json:"id"`
	Spec      JobSpec `json:"spec"`
	Submitted time.Time

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	// stream is the completed-walk stream (nil for kinds that don't
	// produce one). Set before the job is visible; immutable afterwards.
	stream *jobStream

	progress atomic.Pointer[Progress]

	// persistLogged latches the job's first durability-write failure so
	// degradation is logged once per job, not per checkpoint.
	persistLogged atomic.Bool
	// journalMu orders journal writes, so a slow submit-time write can
	// never land after, and roll back, the running or terminal record.
	journalMu sync.Mutex

	mu       sync.Mutex
	state    string
	err      error
	result   *JobResult
	started  time.Time
	finished time.Time
	// finishing guards finish() against concurrent callers (worker
	// completion vs. queued-job cancel vs. Close drain) during the window
	// where on-disk state is settled but the terminal state is not yet
	// visible.
	finishing bool
	// corpus is the sealed DeepWalk corpus this job produced or was served
	// (kind "deepwalk" only), exposed via /v1/jobs/{id}/corpus.
	corpus *walk.CachedCorpus
}

// Corpus returns the job's sealed DeepWalk corpus, nil until a "deepwalk"
// job finishes successfully.
func (j *Job) Corpus() *walk.CachedCorpus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.corpus
}

// JobStatus is the API view of a job.
type JobStatus struct {
	ID          string     `json:"id"`
	Spec        JobSpec    `json:"spec"`
	State       string     `json:"state"`
	Error       string     `json:"error,omitempty"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	Progress    *Progress  `json:"progress,omitempty"`
	Result      *JobResult `json:"result,omitempty"`
}

// Status snapshots the job for the API.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	st := JobStatus{
		ID: j.ID, Spec: j.Spec, State: j.state, SubmittedAt: j.Submitted,
		Result: j.result,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	j.mu.Unlock()
	st.Progress = j.progress.Load()
	return st
}

// Err returns the job's final error (nil while queued/running or on
// success). A canceled job's error wraps errs.ErrCanceled.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Config parameterizes a Manager.
type Config struct {
	// QueueDepth bounds the number of queued-but-not-running jobs;
	// submissions beyond it are rejected with ErrQueueFull. 0 means 16.
	QueueDepth int
	// Workers is the number of jobs run concurrently. 0 means 2.
	Workers int
	// StateDir, when non-empty, makes jobs durable: specs are journaled at
	// submission, running engines snapshot at their checkpoint cadence, and
	// a restarted manager recovers the journal — finished jobs as history,
	// unfinished ones re-enqueued and resumed. Empty keeps the manager
	// fully in-memory. StateDir is shorthand for Store = blob.NewFS(dir);
	// the on-disk layout is byte-compatible with earlier versions.
	StateDir string
	// Store routes ALL durable state — job journals, engine snapshots, and
	// stream spools — through a pluggable blob store. Takes precedence over
	// StateDir when both are set. Nil with an empty StateDir keeps the
	// manager fully in-memory.
	Store blob.Store
	// RetainJobs keeps at most this many terminal jobs' durable state
	// (journal + spool); older terminal jobs are pruned at startup and on
	// finish, oldest-first. 0 retains everything. Non-terminal jobs are
	// never pruned.
	RetainJobs int
	// RetainAge prunes terminal jobs that finished longer than this ago.
	// 0 disables the age bound.
	RetainAge time.Duration
	// MaxBodyBytes caps request bodies on the mutating v1 endpoints
	// (POST /v1/jobs, POST /v1/graphs); oversized bodies are rejected with
	// the stable "body_too_large" error code. 0 uses the default (4 MiB).
	MaxBodyBytes int64
	// CorpusCacheEntries bounds the precomputed walk-corpus cache serving
	// repeat "deepwalk" jobs. 0 uses the default (16); negative disables
	// caching entirely.
	CorpusCacheEntries int
	// TenantMaxQueued caps how many jobs one tenant may have queued;
	// submissions beyond it are rejected with ErrTenantQuota. 0 disables
	// the quota.
	TenantMaxQueued int
	// TenantMaxRunning caps how many of one tenant's jobs run
	// concurrently; capped tenants' queued jobs wait (they are skipped by
	// the fair-share dequeue, not dropped). 0 disables the cap.
	TenantMaxRunning int
	// TenantRatePerSec is the per-tenant submission token-bucket refill
	// rate; TenantRateBurst is its capacity (0 means 1 when a rate is
	// set). A zero rate disables rate limiting.
	TenantRatePerSec float64
	TenantRateBurst  int
	// StreamRingWalks bounds each job's in-memory completed-walk ring for
	// /v1/jobs/{id}/stream. 0 uses the default (4096).
	StreamRingWalks int
}

// defaultCorpusCacheEntries is the corpus-cache capacity when the config
// leaves it unset.
const defaultCorpusCacheEntries = 16

// defaultMaxBodyBytes caps v1 request bodies when Config.MaxBodyBytes is
// zero. Job specs with the largest allowed mutation stream still fit.
const defaultMaxBodyBytes = 4 << 20

// Manager owns the job queue and worker pool.
type Manager struct {
	reg     *Registry
	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
	// store is the durable-state backend; nil keeps the manager fully
	// in-memory.
	store        blob.Store
	retainJobs   int
	retainAge    time.Duration
	maxBodyBytes int64

	// Admission settings (immutable after NewManager).
	tenantMaxQueued  int
	tenantMaxRunning int
	tenantRate       float64
	tenantBurst      float64
	streamRing       int

	mu   sync.Mutex
	cond *sync.Cond // signals workers when fq or runningBy changes
	fq   *fairQueue
	// runningBy counts each tenant's currently running jobs (for
	// TenantMaxRunning); buckets hold each tenant's submission tokens.
	runningBy map[string]int
	buckets   map[string]*tokenBucket
	closed    bool
	jobs      map[string]*Job
	order     []string
	seq       uint64

	// corpora is the precomputed walk-corpus cache (nil when disabled).
	corpora *walk.CorpusCache

	metrics managerMetrics
}

// NewManager starts cfg.Workers worker goroutines draining the queue.
// Close releases them. With cfg.StateDir set, the state directory is
// created if needed and any journaled jobs from a previous process are
// recovered before the workers start: terminal jobs reappear as history,
// queued and running jobs are re-enqueued (ahead of new submissions, in
// their original order).
func NewManager(reg *Registry, cfg Config) (*Manager, error) {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.TenantRateBurst <= 0 {
		cfg.TenantRateBurst = 1
	}
	store := cfg.Store
	if store == nil && cfg.StateDir != "" {
		fsStore, err := blob.NewFS(cfg.StateDir)
		if err != nil {
			return nil, fmt.Errorf("service: state dir: %w", err)
		}
		store = fsStore
	}
	maxBody := cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = defaultMaxBodyBytes
	}
	ctx, stop := context.WithCancel(context.Background())
	m := &Manager{
		reg:          reg,
		baseCtx:      ctx,
		stop:         stop,
		jobs:         map[string]*Job{},
		store:        store,
		retainJobs:   cfg.RetainJobs,
		retainAge:    cfg.RetainAge,
		maxBodyBytes: maxBody,

		tenantMaxQueued:  cfg.TenantMaxQueued,
		tenantMaxRunning: cfg.TenantMaxRunning,
		tenantRate:       cfg.TenantRatePerSec,
		tenantBurst:      float64(cfg.TenantRateBurst),
		streamRing:       cfg.StreamRingWalks,
		runningBy:        map[string]int{},
		buckets:          map[string]*tokenBucket{},
	}
	m.cond = sync.NewCond(&m.mu)
	if cfg.CorpusCacheEntries >= 0 {
		n := cfg.CorpusCacheEntries
		if n == 0 {
			n = defaultCorpusCacheEntries
		}
		m.corpora = walk.NewCorpusCache(n)
	}
	var pending []*Job
	if m.store != nil {
		var err error
		if pending, err = m.recoverJobs(); err != nil {
			stop()
			return nil, fmt.Errorf("service: recover jobs: %w", err)
		}
	}
	// Recovered jobs must all fit back on the queue even when there are
	// more of them than the configured depth allows.
	depth := cfg.QueueDepth
	if len(pending) > depth {
		depth = len(pending)
	}
	m.fq = newFairQueue(depth)
	for _, j := range pending {
		m.fq.push(tenantOf(&j.Spec), j)
	}
	// Recovered jobs get their streams back before any worker can run
	// them: the spool's contiguous record count is where publishing
	// resumes, and a terminal job's stream replays entirely from disk.
	for _, j := range m.jobs {
		m.newStreamFor(j)
		if j.stream != nil {
			j.mu.Lock()
			state, errMsg := j.state, ""
			if j.err != nil {
				errMsg = j.err.Error()
			}
			j.mu.Unlock()
			switch state {
			case StateDone, StateCanceled, StateFailed:
				j.stream.finish(state, errMsg)
			}
		}
	}
	// Retention runs after recovery so the startup prune sees the full
	// terminal set, and before the workers so nothing races the sweep.
	m.pruneTerminal()
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// streamable reports whether a job kind produces a completed-walk stream.
func streamable(kind string) bool {
	return kind == KindFlashWalker || kind == KindDeepWalk
}

// newStreamFor attaches j's walk stream, spooled to disk when the manager
// is durable. A spool that fails to open degrades the stream to in-memory
// only — streaming must never block a job from running.
func (m *Manager) newStreamFor(j *Job) {
	if !streamable(j.Spec.Kind) || j.stream != nil {
		return
	}
	var sp *spoolFile
	if m.store != nil {
		onErr := func(err error) { m.persistError(j, persistKindSpool, err) }
		if s, err := openSpool(m.store, streamKey(j.ID), onErr); err == nil {
			sp = s
		} else {
			m.persistError(j, persistKindSpool, err)
		}
	}
	j.stream = newJobStream(m.streamRing, sp)
}

// Close stops the workers, then drains the queue: every job still queued
// is finished as canceled so no job is left in a non-terminal state with
// its Done channel never closing. Running jobs are canceled and reach
// their terminal state before Close returns. With a state directory, the
// journal records survive — canceled-by-shutdown jobs are NOT re-run on
// restart (they are terminal); only jobs that never reached Close (a
// crash) come back.
func (m *Manager) Close() {
	m.stop()
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
	m.wg.Wait()
	m.mu.Lock()
	left := m.fq.drain()
	m.mu.Unlock()
	for _, j := range left {
		m.finish(j, nil, &errs.Canceled{
			Op: "service", Finished: 0, Total: j.Spec.NumWalks, Cause: m.baseCtx.Err(),
		})
	}
}

// Registry exposes the graph registry backing this manager.
func (m *Manager) Registry() *Registry { return m.reg }

// CorpusEngineRuns reports how many "deepwalk" jobs actually invoked the
// walk engine (corpus-cache misses). A resubmitted identical job served
// from the cache leaves this counter unchanged — the property the
// corpus-cache tests pin.
func (m *Manager) CorpusEngineRuns() int64 { return m.metrics.corpusEngineRuns.Load() }

// Submit validates spec and runs it through admission control: the
// tenant's submission rate limit (ErrRateLimited), the tenant's
// queued-job quota (ErrTenantQuota), then the bounded global queue
// (ErrQueueFull). Every rejection is immediate — backpressure, never
// blocking — and counted by reason in
// flashwalker_admission_rejected_total.
func (m *Manager) Submit(spec JobSpec) (*Job, error) {
	if err := spec.normalize(m.reg); err != nil {
		m.metrics.rejected.Add(1)
		if errors.Is(err, errs.ErrUnknownDataset) {
			m.metrics.rejUnknownGraph.Add(1)
		} else {
			m.metrics.rejInvalid.Add(1)
		}
		return nil, err
	}
	tenant := tenantOf(&spec)
	ctx, cancel := context.WithCancel(m.baseCtx)
	j := &Job{
		Spec:      spec,
		Submitted: time.Now(),
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		state:     StateQueued,
	}

	reject := func(reason *atomic.Int64, err error) (*Job, error) {
		m.mu.Unlock()
		cancel()
		m.metrics.rejected.Add(1)
		reason.Add(1)
		return nil, err
	}
	m.mu.Lock()
	if m.closed || m.fq.len() >= m.fq.depth {
		return reject(&m.metrics.rejQueueFull,
			fmt.Errorf("service: %w (depth %d)", ErrQueueFull, m.fq.depth))
	}
	if !m.allowSubmit(tenant, time.Now()) {
		return reject(&m.metrics.rejRateLimited,
			fmt.Errorf("service: tenant %q: %w", tenant, ErrRateLimited))
	}
	if m.tenantMaxQueued > 0 && m.fq.queued(tenant) >= m.tenantMaxQueued {
		return reject(&m.metrics.rejTenantQuota,
			fmt.Errorf("service: tenant %q already has %d jobs queued: %w",
				tenant, m.tenantMaxQueued, ErrTenantQuota))
	}
	m.seq++
	j.ID = fmt.Sprintf("job-%d", m.seq)
	// The stream must exist before a worker can claim the job; the push
	// is what makes it claimable (capacity was checked above).
	m.newStreamFor(j)
	m.fq.push(tenant, j)
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.cond.Signal()
	m.mu.Unlock()

	m.journal(j)
	m.metrics.submitted.Add(1)
	return j, nil
}

// Get returns a job by ID.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("service: %w: %q", ErrUnknownJob, id)
	}
	return j, nil
}

// List returns every job's status, oldest first.
func (m *Manager) List() []JobStatus {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	m.mu.Unlock()
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		if j, err := m.Get(id); err == nil {
			out = append(out, j.Status())
		}
	}
	return out
}

// ListFilter selects and pages the job listing.
type ListFilter struct {
	// Status and Tenant, when non-empty, keep only matching jobs.
	Status string
	Tenant string
	// Cursor is the ID of the last job on the previous page (the
	// next_cursor a previous call returned); empty starts from the oldest
	// job.
	Cursor string
	// Limit caps the page size; 0 means 100, the hard maximum is 1000.
	Limit int
}

// ListPage returns one page of job statuses in stable submission order
// (oldest first). next is non-empty exactly when at least one further
// matching job exists past the page; pass it back as the cursor to
// continue.
func (m *Manager) ListPage(f ListFilter) (page []JobStatus, next string) {
	const defaultPageLimit, maxPageLimit = 100, 1000
	limit := f.Limit
	if limit <= 0 {
		limit = defaultPageLimit
	}
	if limit > maxPageLimit {
		limit = maxPageLimit
	}
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	m.mu.Unlock()
	start := 0
	if f.Cursor != "" {
		// Position strictly after the cursor. IDs are "job-N" with N
		// increasing in submission order, so the comparison tolerates a
		// cursor that no longer names a live job.
		cs, _ := jobSeq(f.Cursor)
		for i, id := range ids {
			if s, ok := jobSeq(id); ok && s <= cs {
				start = i + 1
			}
		}
	}
	page = []JobStatus{}
	for _, id := range ids[start:] {
		j, err := m.Get(id)
		if err != nil {
			continue
		}
		st := j.Status()
		if f.Status != "" && st.State != f.Status {
			continue
		}
		if f.Tenant != "" && tenantOf(&st.Spec) != f.Tenant {
			continue
		}
		if len(page) == limit {
			return page, page[len(page)-1].ID
		}
		page = append(page, st)
	}
	return page, ""
}

// Cancel requests cancellation. A still-queued job moves straight to the
// canceled state — its Done channel closes immediately, without waiting
// for a worker to pull it off the queue. Running jobs halt at the
// engine's next checkpoint and keep their partial result. Canceling a
// finished job is a no-op.
func (m *Manager) Cancel(id string) error {
	j, err := m.Get(id)
	if err != nil {
		return err
	}
	j.cancel()
	j.mu.Lock()
	queued := j.state == StateQueued
	j.mu.Unlock()
	if queued {
		// The job may concurrently be claimed by a worker; finish is
		// idempotent and run refuses jobs that left the queued state, so
		// exactly one terminal transition wins.
		m.finish(j, nil, &errs.Canceled{
			Op: "service", Finished: 0, Total: j.Spec.NumWalks, Cause: context.Canceled,
		})
	}
	return nil
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		j := m.dequeue()
		if j == nil {
			return
		}
		m.run(j)
		m.mu.Lock()
		t := tenantOf(&j.Spec)
		if m.runningBy[t]--; m.runningBy[t] <= 0 {
			delete(m.runningBy, t)
		}
		// The freed slot may make a capped tenant's jobs eligible again.
		m.cond.Broadcast()
		m.mu.Unlock()
	}
}

// dequeue blocks until a job is eligible (fair-share order, running caps
// respected) or the manager closes (nil). Claiming counts against the
// tenant's running cap.
func (m *Manager) dequeue() *Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.closed {
			return nil
		}
		if j := m.fq.pop(m.canRunLocked); j != nil {
			m.runningBy[tenantOf(&j.Spec)]++
			return j
		}
		m.cond.Wait()
	}
}

// run executes one job end to end.
func (m *Manager) run(j *Job) {
	ctx := j.ctx
	if ctx.Err() != nil { // canceled while queued
		m.finish(j, nil, &errs.Canceled{
			Op: "service", Finished: 0, Total: j.Spec.NumWalks, Cause: ctx.Err(),
		})
		return
	}
	j.mu.Lock()
	// Lost the race with a queued-job Cancel: either the terminal state
	// already landed, or its finish() is mid-settlement (finishing set).
	if j.state != StateQueued || j.finishing {
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
	m.journal(j)
	m.metrics.running.Add(1)
	defer m.metrics.running.Add(-1)

	g, ds, err := m.reg.Get(j.Spec.Graph)
	if err != nil {
		m.finish(j, nil, err)
		return
	}

	var res *JobResult
	switch j.Spec.Kind {
	case KindGraphWalker:
		res, err = m.runGraphWalker(ctx, j, g, ds)
	case KindDeepWalk:
		res, err = m.runDeepWalk(ctx, j, g)
	default:
		res, err = m.runFlashWalker(ctx, j, g, ds)
	}
	m.finish(j, res, err)
}

// runDeepWalk serves a corpus job: from the sealed corpus cache when an
// identical job (same graph, spec, seed, start set) ran before, otherwise
// by generating the corpus — the only path that touches the walk engine,
// which the corpusEngineRuns counter records so tests can prove a cache hit
// skipped it.
func (m *Manager) runDeepWalk(ctx context.Context, j *Job, g *graph.Graph) (*JobResult, error) {
	key := walk.CorpusKey{
		Graph:          j.Spec.Graph,
		Spec:           walk.Spec{Kind: walk.Unbiased, Length: j.Spec.WalkLength},
		Seed:           j.Spec.Seed,
		WalksPerVertex: j.Spec.WalksPerVertex,
		MutationsHash:  j.Spec.Mutations.Hash(),
	}
	if m.corpora != nil {
		if c, ok, _ := m.corpora.Get(key); ok {
			m.streamCorpus(j, c)
			return m.deepWalkResult(j, c, true), nil
		}
	}

	m.metrics.corpusEngineRuns.Add(1)
	if len(j.Spec.Mutations) > 0 {
		// Corpus generation runs on the host with no simulated clock, so
		// the whole stream applies up front as one batch — on a private
		// clone; the registry's graph is shared and immutable.
		mg := g.Clone()
		if err := mg.ApplyMutations(j.Spec.Mutations); err != nil {
			return nil, fmt.Errorf("service: mutations: %v: %w", err, errs.ErrInvalidConfig)
		}
		g = mg
	}
	starts := walk.AllStarts(g)
	ws := walk.NewWalks(key.Spec, starts, len(starts)*j.Spec.WalksPerVertex)
	corpus := make([][]graph.VertexID, 0, len(ws))
	var batch []WalkRecord
	_, err := walk.RunContext(ctx, g, key.Spec, ws, j.Spec.Seed,
		func(i int, path []graph.VertexID) {
			cp := append([]graph.VertexID(nil), path...)
			corpus = append(corpus, cp)
			if j.stream != nil {
				batch = append(batch, corpusWalkRecord(uint64(i), cp, key.Spec.Length))
				if len(batch) >= 128 {
					j.stream.publish(batch)
					batch = batch[:0]
				}
			}
		})
	if err != nil {
		return nil, err
	}
	if j.stream != nil && len(batch) > 0 {
		j.stream.publish(batch)
	}
	c, err := walk.Seal(key, corpus)
	if err != nil {
		return nil, err
	}
	if m.corpora != nil {
		m.corpora.Put(c)
	}
	return m.deepWalkResult(j, c, false), nil
}

// corpusWalkRecord shapes one DeepWalk path as a wire record (paths are
// included; the simulated-time field stays zero — corpus generation runs
// on the host, not the simulator).
func corpusWalkRecord(seq uint64, path []graph.VertexID, length uint32) WalkRecord {
	hops := uint32(len(path) - 1)
	return WalkRecord{
		Seq: seq, Src: path[0], End: path[len(path)-1],
		Hops: hops, DeadEnd: hops < length, Path: path,
	}
}

// streamCorpus replays a cache-served corpus into j's stream so a cache
// hit and an engine run produce the same record sequence.
func (m *Manager) streamCorpus(j *Job, c *walk.CachedCorpus) {
	if j.stream == nil {
		return
	}
	paths, err := walk.ReadCorpus(bytes.NewReader(c.Data))
	if err != nil {
		return
	}
	recs := make([]WalkRecord, len(paths))
	for i, p := range paths {
		recs[i] = corpusWalkRecord(uint64(i), p, j.Spec.WalkLength)
	}
	j.stream.publish(recs)
}

// coreWalkRecords converts an engine export batch to wire records (the
// engine reuses the batch slice, so the values are copied out).
func coreWalkRecords(recs []core.WalkDone) []WalkRecord {
	out := make([]WalkRecord, len(recs))
	for i, r := range recs {
		out[i] = WalkRecord{
			Seq: r.Seq, Src: r.Src, End: r.End, Hops: r.Hops,
			DeadEnd: r.DeadEnd, SimTimeNS: int64(r.At),
		}
	}
	return out
}

// deepWalkResult attaches the sealed corpus to the job and shapes the API
// result.
func (m *Manager) deepWalkResult(j *Job, c *walk.CachedCorpus, cached bool) *JobResult {
	j.mu.Lock()
	j.corpus = c
	j.mu.Unlock()
	return &JobResult{
		Started:        c.Walks,
		Completed:      c.Walks,
		Hops:           uint64(c.Tokens - c.Walks),
		CorpusWalks:    c.Walks,
		CorpusTokens:   c.Tokens,
		CorpusMeanHops: c.MeanHops,
		CorpusSHA256:   fmt.Sprintf("%x", c.SHA),
		CorpusCached:   cached,
	}
}

func (m *Manager) runFlashWalker(ctx context.Context, j *Job, g *graph.Graph, ds harness.Dataset) (*JobResult, error) {
	rc := harness.FlashWalkerConfig(ds, core.AllOptions(), j.Spec.NumWalks, j.Spec.Seed)
	rc.CheckpointEvery = j.Spec.CheckpointEvery
	// The mutation stream rides in the run config; snapshots carry the
	// stream plus an applied-prefix cursor, so the recovery paths below
	// resume mid-stream without re-threading it here.
	rc.Mutations = j.Spec.Mutations
	if j.Spec.FaultConfig != nil {
		rc.Cfg.Faults = *j.Spec.FaultConfig
	}
	rc.Cfg.Boards = j.Spec.Boards
	if j.Spec.FabricLatencyNS > 0 {
		rc.Cfg.FabricLatency = sim.Time(j.Spec.FabricLatencyNS)
	}
	if j.Spec.FabricMBps > 0 {
		rc.Cfg.FabricBytesPerSec = j.Spec.FabricMBps * 1_000_000
	}
	rc.OnProgress = func(p core.Progress) {
		j.progress.Store(&Progress{
			SimTimeNS: int64(p.Now), Events: p.Events,
			Started: p.Started, Completed: p.Completed, DeadEnded: p.DeadEnded,
			Hops: p.Hops, WalksFinished: p.WalksFinished(),
		})
	}
	if st := j.stream; st != nil {
		// The export callback only appends to the stream's buffers — it
		// never blocks on consumers, so attaching it cannot perturb the
		// simulated timeline.
		rc.OnWalks = func(recs []core.WalkDone) { st.publish(coreWalkRecords(recs)) }
	}
	if m.store != nil {
		// Snapshots piggyback on the checkpoint observer every
		// snapshotCheckpointRatio checkpoints; the writer throttles
		// serialization and writes each cut it keeps as a full image, for
		// any board count.
		every := j.Spec.CheckpointEvery
		if every == 0 {
			every = core.DefaultCheckpointEvery
		}
		w := &coreSnapWriter{m: m, j: j}
		// A recovered job picks up from its snapshot image; a fresh job (or
		// one whose snapshot is unreadable, or was written by an older
		// container version) runs from the start and begins writing
		// snapshots at the checkpoint cadence.
		if snap, ok := m.loadCoreSnap(j.ID); ok {
			e, err := core.ResumeEngine(g, snap, core.ResumeOptions{
				OnProgress: rc.OnProgress, OnSnapshot: w.write, OnWalks: rc.OnWalks,
				SnapshotEvery: every * snapshotCheckpointRatio, CheckpointEvery: j.Spec.CheckpointEvery,
			})
			if err != nil {
				return nil, err
			}
			return coreJobResult(e.RunContext(ctx))
		}
		rc.OnSnapshot = w.write
		rc.SnapshotEvery = every * snapshotCheckpointRatio
	}
	e, err := core.NewEngine(g, rc)
	if err != nil {
		return nil, err
	}
	return coreJobResult(e.RunContext(ctx))
}

// coreJobResult converts a core result (possibly partial) to the API shape.
func coreJobResult(r *core.Result, err error) (*JobResult, error) {
	if r == nil {
		return nil, err
	}
	return &JobResult{
		SimTimeNS: int64(r.Time), Started: r.Started, Completed: r.Completed,
		DeadEnded: r.DeadEnded, Hops: r.Hops, HopRate: r.HopRate(),
		FlashReadBytes: r.Flash.ReadBytes, FlashWriteBytes: r.Flash.WriteBytes,
		Partial:          err != nil,
		QueryCacheHits:   r.QueryCacheHits,
		QueryCacheMisses: r.QueryCacheMisses,
		MutationsApplied: r.MutationsApplied,
		FaultReadErrors:  r.Faults.ReadErrors,
		FaultRetries:     r.Faults.Retries,
		FaultStalls:      r.Faults.PlaneBusyStalls,
		DegradedChips:    r.Faults.DegradedChips,
		FaultReroutes:    r.FaultReroutes,
		FailoverBlocks:   r.FailoverBlocks,
		RetriesExhausted: r.Faults.RetriesExhausted,
	}, err
}

func (m *Manager) runGraphWalker(ctx context.Context, j *Job, g *graph.Graph, ds harness.Dataset) (*JobResult, error) {
	cfg := harness.GraphWalkerConfig(ds, j.Spec.MemBytes, j.Spec.Seed)
	cfg.CheckpointEvery = j.Spec.CheckpointEvery
	cfg.OnProgress = func(p baseline.Progress) {
		j.progress.Store(&Progress{
			SimTimeNS: int64(p.Now), Events: p.Events,
			Started: p.Started, Completed: p.Completed, DeadEnded: p.DeadEnded,
			Hops: p.Hops, WalksFinished: p.WalksFinished(),
		})
	}
	// The baseline keeps no snapshot: a recovered job re-runs from event
	// zero, as any journaled job without one does, to the identical result.
	spec := walk.Spec{Kind: walk.Unbiased, Length: harness.WalkLength}
	e, err := baseline.New(g, cfg, spec, j.Spec.NumWalks, j.Spec.Seed+100)
	if err != nil {
		return nil, err
	}
	r, err := e.RunContext(ctx)
	return baselineJobResult(r, err)
}

// baselineJobResult converts a baseline result to the API shape.
func baselineJobResult(r *baseline.Result, err error) (*JobResult, error) {
	if r == nil {
		return nil, err
	}
	return &JobResult{
		SimTimeNS: int64(r.Time), Started: r.Started, Completed: r.Completed,
		DeadEnded: r.DeadEnded, Hops: r.Hops,
		FlashReadBytes: r.Flash.ReadBytes, FlashWriteBytes: r.Flash.WriteBytes,
		Partial: err != nil,
	}, err
}

// finish moves the job to its terminal state and updates the aggregate
// counters. It is idempotent: a job can race toward two terminal
// transitions (queued-job Cancel vs. the worker claiming it) and only the
// first wins.
func (m *Manager) finish(j *Job, res *JobResult, err error) {
	j.mu.Lock()
	switch j.state {
	case StateDone, StateCanceled, StateFailed:
		j.mu.Unlock()
		return
	}
	if j.finishing {
		j.mu.Unlock()
		return
	}
	j.finishing = true
	j.mu.Unlock()

	var state string
	switch {
	case err == nil:
		state = StateDone
	case errors.Is(err, errs.ErrCanceled):
		state = StateCanceled
	default:
		state = StateFailed
	}
	// Settle everything observable on disk — stream trailer, snapshot
	// removal — before the terminal state becomes visible, so a poller
	// (or a waiter that wakes on Done) that sees a terminal job never
	// finds leftover in-flight state.
	if j.stream != nil {
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		j.stream.finish(state, msg)
	}
	m.dropSnapshot(j)

	j.mu.Lock()
	j.result = res
	j.err = err
	j.finished = time.Now()
	j.state = state
	j.mu.Unlock()
	m.journal(j)
	close(j.done)

	switch state {
	case StateDone:
		m.metrics.completed.Add(1)
	case StateCanceled:
		m.metrics.canceled.Add(1)
	default:
		m.metrics.failed.Add(1)
	}
	if res != nil {
		m.metrics.walksFinished.Add(int64(res.Completed + res.DeadEnded))
		m.metrics.hops.Add(int64(res.Hops))
		m.metrics.queryCacheHits.Add(int64(res.QueryCacheHits))
		m.metrics.queryCacheMisses.Add(int64(res.QueryCacheMisses))
		m.metrics.faultReadErrors.Add(int64(res.FaultReadErrors))
		m.metrics.faultRetries.Add(int64(res.FaultRetries))
		m.metrics.faultStalls.Add(int64(res.FaultStalls))
		m.metrics.chipsDegraded.Add(int64(res.DegradedChips))
		m.metrics.faultReroutes.Add(int64(res.FaultReroutes))
	}
	// This job may have pushed the terminal set past the retention bound.
	m.pruneTerminal()
}
