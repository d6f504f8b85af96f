package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flashwalker/client"
	"flashwalker/internal/blob"
	"flashwalker/internal/core"
	"flashwalker/internal/graph"
	"flashwalker/internal/harness"
	"flashwalker/internal/service"
)

// The daemon workload: a closed loop of two callers, each submitting a
// TT-S job, streaming it to its trailer and submitting the next one.
const (
	daemonGraph     = "TT-S"
	daemonWalks     = 20_000
	daemonCallers   = 2
	jobTimeout      = 2 * time.Minute
	probeSeconds    = 3.0 // service probe of a traced engine workload
	probeToySeconds = 1.0
)

// daemon is an in-process walk service on a loopback listener. Every job
// journals, snapshots (full and delta) and spools into an in-memory store.
type daemon struct {
	m      *service.Manager
	srv    *http.Server
	served chan error
	tr     *http.Transport
	c      *client.Client
}

func startDaemon() (*daemon, error) {
	m, err := service.NewManager(service.NewRegistry(), service.Config{
		Workers: 2, Store: blob.NewMem(), RetainJobs: 8,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Close()
		return nil, err
	}
	d := &daemon{m: m, srv: &http.Server{Handler: service.NewHandler(m)}, served: make(chan error, 1)}
	go func() { d.served <- d.srv.Serve(ln) }()
	// At most one connection per caller.
	d.tr = &http.Transport{MaxConnsPerHost: daemonCallers, MaxIdleConnsPerHost: daemonCallers}
	d.c = client.New("http://"+ln.Addr().String(), &http.Client{Transport: d.tr})
	return d, nil
}

func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		d.srv.Close()
	}
	<-d.served
	d.m.Close()
	d.tr.CloseIdleConnections()
}

// persistErrors sums flashwalker_persist_errors_total over every kind.
func (d *daemon) persistErrors(ctx context.Context) (int64, error) {
	text, err := d.c.Metrics(ctx)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "flashwalker_persist_errors_total{") {
			continue
		}
		v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %q: %w", line, err)
		}
		n += v
	}
	return n, nil
}

// jobOut is one job as its caller saw it.
type jobOut struct {
	id                  string
	submit, submitted   time.Time // before and after the submit call
	first, trailer      time.Time // first walk record and the trailer frame
	status              client.JobStatus
	problems            []string
	started, finishedAt time.Time // server side, from the final status
}

func (j jobOut) ok() bool { return len(j.problems) == 0 }

// runJob submits one job, streams it to its trailer and checks it: the
// records' seq has no gap from 0, their count is completed + dead-ended,
// and the trailer and the final status both say done.
func runJob(d *daemon, spec client.JobSpec) jobOut {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	j := jobOut{submit: time.Now()}
	st, err := d.c.Submit(ctx, spec)
	j.submitted = time.Now()
	if err != nil {
		j.problems = append(j.problems, fmt.Sprintf("submit: %v", err))
		return j
	}
	j.id = st.ID
	stream, err := d.c.Stream(ctx, st.ID, 0)
	if err != nil {
		j.problems = append(j.problems, fmt.Sprintf("stream: %v", err))
		return j
	}
	var n uint64
	for {
		rec, ok := stream.Next()
		if !ok {
			break
		}
		if n == 0 {
			j.first = time.Now()
		}
		if rec.Seq != n {
			j.problems = append(j.problems, fmt.Sprintf("record %d has seq %d", n, rec.Seq))
			break
		}
		n++
	}
	j.trailer = time.Now()
	end, serr := stream.End(), stream.Err()
	stream.Close()
	switch {
	case serr != nil:
		j.problems = append(j.problems, fmt.Sprintf("stream: %v", serr))
	case end == nil:
		j.problems = append(j.problems, "stream ended without a trailer")
	case end.State != client.StateDone || end.NextSeq != n:
		j.problems = append(j.problems, fmt.Sprintf("trailer %+v after %d records", *end, n))
	}
	// The trailer can arrive a moment before the job's status turns
	// terminal, so wait for that instead of reading it once.
	if j.status, err = d.c.Wait(ctx, st.ID); err != nil {
		j.problems = append(j.problems, fmt.Sprintf("status: %v", err))
		return j
	}
	r := j.status.Result
	if j.status.State != client.StateDone || r == nil || j.status.StartedAt == nil || j.status.FinishedAt == nil {
		j.problems = append(j.problems, fmt.Sprintf("final state %q (%s)", j.status.State, j.status.Error))
		return j
	}
	j.started, j.finishedAt = *j.status.StartedAt, *j.status.FinishedAt
	o := jobOutcome(r)
	if j.first.IsZero() {
		j.problems = append(j.problems, "no walk record arrived")
	}
	j.problems = append(j.problems, o.check(spec.NumWalks)...)
	j.problems = append(j.problems, o.checkRecords(n, true)...)
	return j
}

func jobOutcome(r *client.JobResult) outcome {
	return outcome{
		Started: r.Started, Completed: r.Completed, DeadEnded: r.DeadEnded,
		Hops: r.Hops, SimNS: r.SimTimeNS,
		FlashRead: r.FlashReadBytes, FlashWrite: r.FlashWriteBytes,
		Mutations: r.MutationsApplied,
	}
}

// spans records one job's spans: the caller's submit and stream, and the
// server's queue wait and run as its status reports them.
func (j jobOut) spans(tr *tracer) {
	root := tr.add(j.id, "job", 0, j.submit, j.trailer)
	tr.add(j.id, "client.submit", root, j.submit, j.submitted)
	tr.add(j.id, "service.queue_wait", root, j.status.SubmittedAt, j.started)
	run := tr.add(j.id, "service.run", root, j.started, j.finishedAt)
	tr.add(j.id, "stream.first_frame", run, j.started, j.first)
	tr.add(j.id, "stream.trailer_lag", root, j.finishedAt, j.trailer)
}

// jobSeeds hands out distinct job seeds derived from the run's seed.
type jobSeeds struct {
	base uint64
	n    atomic.Uint64
}

func (js *jobSeeds) spec(walks int) client.JobSpec {
	return client.JobSpec{
		Graph: daemonGraph, NumWalks: walks, Seed: js.base + js.n.Add(1),
		CheckpointEvery: core.DefaultCheckpointEvery,
	}
}

// loop runs the closed loop for the given time and returns every job with
// the loop's wall time, from the first submit to the last trailer.
func loop(d *daemon, seeds *jobSeeds, walks int, dur time.Duration) ([]jobOut, time.Duration) {
	start := time.Now()
	deadline := start.Add(dur)
	var mu sync.Mutex
	var jobs []jobOut
	var wg sync.WaitGroup
	for c := 0; c < daemonCallers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				j := runJob(d, seeds.spec(walks))
				mu.Lock()
				jobs = append(jobs, j)
				mu.Unlock()
				if !j.ok() {
					return
				}
			}
		}()
	}
	wg.Wait()
	return jobs, time.Since(start)
}

// simJobs is how many jobs, lowest seeds first, sim_us is the median over.
// A loop hands out seeds in order and every run finishes more jobs than
// this, so the median covers the same jobs, and reads the same, on every
// run of a seed.
const simJobs = 64

// loopStats are the user-visible numbers of one loop, as medians over its
// jobs. wall_mhops_s is a job's hops over its run time on the server, the
// same step rate the engine workloads report per rep.
type loopStats struct {
	mhops, jobMS, simUS float64
	jobs                []float64 // submit to trailer, ms
}

func loopMetrics(jobs []jobOut) loopStats {
	var st loopStats
	var rate []float64
	var done []jobOut
	for _, j := range jobs {
		if !j.ok() {
			continue
		}
		rate = append(rate, float64(j.status.Result.Hops)/j.finishedAt.Sub(j.started).Seconds()/1e6)
		st.jobs = append(st.jobs, ms(j.trailer.Sub(j.submit)))
		done = append(done, j)
	}
	sort.Slice(done, func(a, b int) bool { return done[a].status.Spec.Seed < done[b].status.Spec.Seed })
	var sim []float64
	for _, j := range done[:min(len(done), simJobs)] {
		sim = append(sim, float64(j.status.Result.SimTimeNS)/1e3)
	}
	st.mhops, st.jobMS, st.simUS = median(rate), median(st.jobs), median(sim)
	return st
}

// checkJobs counts every job as one operation.
func (s *session) checkJobs(jobs []jobOut) {
	for _, j := range jobs {
		s.check("job "+j.id, j.problems)
	}
}

// checkPersist checks, as one more operation, that no durability write
// failed.
func (s *session) checkPersist(d *daemon) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	n, err := d.persistErrors(ctx)
	if err != nil {
		return err
	}
	var problems []string
	if n != 0 {
		problems = append(problems, fmt.Sprintf("flashwalker_persist_errors_total is %d", n))
	}
	s.check("persist errors", problems)
	s.set("service.persist_errors", float64(n), "count")
	return nil
}

// runDaemon measures the daemon workload. Set-up is service start until
// the first warm job is done; the first warm job's outcome must equal an
// in-process engine run of the same spec.
func runDaemon(s *session) error {
	walks := daemonWalks
	if s.o.toy {
		walks = toyWalks
	}
	seeds := &jobSeeds{base: s.o.seed << 20}
	var d *daemon
	var setupS []float64
	var warm jobOut
	for i := 0; i < setups(s.o.toy); i++ {
		if d != nil {
			d.close()
		}
		freshHeap()
		t0 := time.Now()
		var err error
		if d, err = startDaemon(); err != nil {
			return err
		}
		j := runJob(d, seeds.spec(walks))
		setupS = append(setupS, time.Since(t0).Seconds())
		s.checkJobs([]jobOut{j})
		if i == 0 {
			warm = j
		}
	}
	defer d.close()
	s.set("setup_s", median(setupS), "s")
	if !warm.ok() {
		return fmt.Errorf("warm job failed: %v", warm.problems)
	}
	ref, err := s.reference(warm)
	if err != nil {
		return err
	}

	// A traced run alternates untraced and traced quarters of the loop, so
	// a drift in the host's speed cannot pass for tracing overhead.
	budget := time.Duration(s.o.seconds * float64(time.Second))
	segs := 1
	if s.o.trace {
		segs = 4
	}
	s.tr.on = false
	var jobs, traced []jobOut
	var wall, twall time.Duration
	for k := 0; k < segs; k++ {
		dur := budget / time.Duration(segs)
		if k%2 == 0 {
			js, w := loop(d, seeds, walks, dur)
			jobs, wall = append(jobs, js...), wall+w
			continue
		}
		if err := s.traced(func() {
			js, w := loop(d, seeds, walks, dur)
			traced, twall = append(traced, js...), twall+w
		}); err != nil {
			return err
		}
	}
	s.checkJobs(jobs)
	s.checkJobs(traced)
	st := loopMetrics(jobs)
	s.set("wall_mhops_s", st.mhops, "Mhops/s")
	s.set("sim_us", st.simUS, "us")
	s.set("job_p50_ms", st.jobMS, "ms")
	s.notes = append(s.notes, fmt.Sprintf("%d jobs in %.1fs (%.2f jobs/s)", len(st.jobs), wall.Seconds(), float64(len(st.jobs))/wall.Seconds()))
	if q, v, ok := tail(st.jobs); ok {
		s.notes = append(s.notes, fmt.Sprintf("job latency %s %.1f ms over %d jobs", q, v, len(st.jobs)))
	}
	if !s.o.trace {
		return s.checkPersist(d)
	}

	if err := s.cpu(); err != nil {
		return err
	}
	s.tr.on = true
	s.set("trace_overhead_pct", 100*(st.mhops/loopMetrics(traced).mhops-1), "%")
	if err := s.serviceLayers(d, traced, twall); err != nil {
		return err
	}
	if err := s.checkPersist(d); err != nil {
		return err
	}
	var events []float64
	var perEvent []float64
	for _, j := range traced {
		if j.ok() && j.status.Progress != nil && j.status.Progress.Events > 0 {
			ev := float64(j.status.Progress.Events)
			events = append(events, ev)
			perEvent = append(perEvent, float64(j.finishedAt.Sub(j.started).Nanoseconds())/ev)
		}
	}
	s.set("sim.events", median(events), "count")
	s.set("sim.host_ns_per_event", median(perEvent), "ns")
	s.set("graph.generate_s", ref.genS, "s")
	s.set("core.construct_s", ref.rep.construct.Seconds(), "s")
	s.set("core.run_s", ref.rep.run.Seconds(), "s")
	s.resultLayers(ref.rep.res)
	s.set("partition.partition_ms", partitionMS(ref.g, ref.rc), "ms")
	return s.probes()
}

// ref is an in-process engine run of a daemon job's spec.
type ref struct {
	rc   core.RunConfig
	g    *graph.Graph
	genS float64
	rep  repOut
}

// reference runs the warm job's spec in-process and fails the check
// unless the daemon's result matches it field for field.
func (s *session) reference(warm jobOut) (*ref, error) {
	spec := warm.status.Spec
	ds, err := harness.DatasetByName(spec.Graph)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	g, err := ds.Gen()
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", spec.Graph, err)
	}
	r := &ref{g: g, genS: time.Since(t0).Seconds()}
	r.rc = harness.FlashWalkerConfig(ds, core.AllOptions(), spec.NumWalks, spec.Seed)
	r.rc.CheckpointEvery = spec.CheckpointEvery
	r.rep = engineRep(g, r.rc, s.tr, "reference", false)
	if r.rep.res == nil {
		return nil, errors.New("reference run: " + strings.Join(r.rep.problems, "; "))
	}
	want := outcomeOf(r.rep.res)
	want.FilterProbes = 0 // not part of a job's result
	problems := s.checkPin(want.digest())
	if got := jobOutcome(warm.status.Result); got != want {
		problems = append(problems, fmt.Sprintf("daemon outcome %+v differs from the in-process engine's %+v", got, want))
	}
	s.check("reference run", problems)
	return r, nil
}
