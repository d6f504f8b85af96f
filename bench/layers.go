package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"flashwalker/internal/blob"
	"flashwalker/internal/core"
	"flashwalker/internal/dram"
	"flashwalker/internal/flash"
	"flashwalker/internal/graph"
	"flashwalker/internal/harness"
	"flashwalker/internal/partition"
	"flashwalker/internal/rng"
	"flashwalker/internal/sim"
	"flashwalker/internal/snapshot"
	"flashwalker/internal/walk"
)

// Layer probes time the public functions of one layer at a time, on fixed
// inputs, so a change to that layer shows in its own number whichever
// workload the traced run belongs to.

// probeBudget is how long each probe measures; its batches are timed
// separately and the median batch reported.
func (s *session) probeBudget() time.Duration {
	if s.o.toy {
		return 10 * time.Millisecond
	}
	return 200 * time.Millisecond
}

// perOp returns the median host nanoseconds per call of fn over batches
// of n calls, run for about budget and at least five batches.
func perOp(budget time.Duration, n int, fn func(n int)) float64 {
	var per []float64
	deadline := time.Now().Add(budget)
	for len(per) < 5 || time.Now().Before(deadline) {
		t0 := time.Now()
		fn(n)
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(per)
}

type nop struct{}

func (nop) HandleEvent(sim.Event) {}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink uint64

func (s *session) probes() error {
	b := s.probeBudget()
	pending := func() *sim.Engine {
		eng := sim.New()
		for i := 1; i <= 4096; i++ {
			eng.Schedule(sim.Time(i), sim.Event{Target: nop{}})
		}
		return eng
	}
	eng := pending()
	ev := sim.Event{Target: nop{}}
	s.set("sim.schedule_step_ns", perOp(b, 4096, func(n int) {
		for i := 0; i < n; i++ {
			eng.Schedule(eng.Now()+4096, ev)
			eng.Step()
		}
	}), "ns")
	eng = pending()
	q := sim.NewQueue(eng)
	s.set("sim.queue_acquire_ns", perOp(b, 4096, func(n int) {
		for i := 0; i < n; i++ {
			q.AcquireEvent(3, ev)
			eng.Step()
		}
	}), "ns")

	eng = sim.New()
	ssd, err := flash.New(eng, flash.Default())
	if err != nil {
		return err
	}
	s.set("flash.read_local_ns", perOp(b, 1024, func(n int) {
		for i := 0; i < n; i++ {
			ssd.ReadPagesLocalE(ssd.Chip(i%ssd.NumChips()), 1, ev)
		}
		eng.Run()
	}), "ns")
	s.set("flash.transfer_channel_ns", perOp(b, 1024, func(n int) {
		for i := 0; i < n; i++ {
			ssd.TransferChannelE(ssd.Channel(i%ssd.Cfg.Channels), 4096, ev)
		}
		eng.Run()
	}), "ns")
	dr, err := dram.New(eng, dram.Default())
	if err != nil {
		return err
	}
	s.set("dram.read_ns", perOp(b, 4096, func(n int) {
		for i := 0; i < n; i++ {
			dr.Read(64, nil)
		}
	}), "ns")

	if err := s.secondOrderProbes(b); err != nil {
		return err
	}
	if err := s.blockOfProbe(b); err != nil {
		return err
	}
	if err := s.rewireProbe(); err != nil {
		return err
	}
	payload, err := s.snapshotProbes()
	if err != nil {
		return err
	}
	return s.blobProbes(payload)
}

// dataset returns a probe's graph from the harness's per-process cache.
func dataset(name string) (*graph.Graph, harness.Dataset, error) {
	d, err := harness.DatasetByName(name)
	if err != nil {
		return nil, d, err
	}
	g, err := d.Graph()
	return g, d, err
}

// secondOrderProbes time the FS-S edge filter on a 50/50 mix of edges and
// non-edges, and one node2vec transition decision through it.
func (s *session) secondOrderProbes(b time.Duration) error {
	g, _, err := dataset("FS-S")
	if err != nil {
		return err
	}
	f := partition.EdgeFilter(g, 0.01)
	r := rng.New(s.o.seed)
	const n = 4096
	keys := make([]uint64, n)
	type hop struct{ prev, cur graph.VertexID }
	hops := make([]hop, 0, n)
	for len(hops) < n {
		prev := graph.VertexID(r.Uint64n(g.NumVertices()))
		out := g.OutEdges(prev)
		if len(out) == 0 {
			continue
		}
		cur := out[r.Uint64n(uint64(len(out)))]
		if g.OutDegree(cur) == 0 {
			continue
		}
		i := len(hops)
		if i%2 == 0 {
			keys[i] = partition.EdgeKey(prev, cur)
		} else {
			keys[i] = partition.EdgeKey(prev, graph.VertexID(r.Uint64n(g.NumVertices())))
		}
		hops = append(hops, hop{prev, cur})
	}
	s.set("bloom.contains_ns", perOp(b, n, func(n int) {
		for i := 0; i < n; i++ {
			if f.Contains(keys[i%len(keys)]) {
				sink++
			}
		}
	}), "ns")
	spec := walk.Spec{Kind: walk.SecondOrder, Length: 6, P: 0.5, Q: 2}
	s.set("walk.second_order_choose_ns", perOp(b, n, func(n int) {
		for i := 0; i < n; i++ {
			h := hops[i%len(hops)]
			idx, _, _ := spec.ChooseEdgeSecondOrderFiltered(r, g.OutEdges(h.cur), h.prev, func(c graph.VertexID) bool {
				return f.Contains(partition.EdgeKey(h.prev, c))
			})
			sink += idx
		}
	}), "ns")
	return nil
}

// blockOfProbe times the mapping-table search on TT-S.
func (s *session) blockOfProbe(b time.Duration) error {
	g, d, err := dataset("TT-S")
	if err != nil {
		return err
	}
	part, err := partition.Partition(g, harness.FlashWalkerConfig(d, core.AllOptions(), 1, s.o.seed).PartCfg)
	if err != nil {
		return err
	}
	r := rng.New(s.o.seed)
	vs := make([]graph.VertexID, 4096)
	for i := range vs {
		vs[i] = graph.VertexID(r.Uint64n(g.NumVertices()))
	}
	s.set("partition.block_of_ns", perOp(b, len(vs), func(n int) {
		for i := 0; i < n; i++ {
			blk, _ := part.BlockOf(vs[i%len(vs)])
			sink += uint64(blk)
		}
	}), "ns")
	return nil
}

// partitionMS is the median time to partition g under rc, of three.
func partitionMS(g *graph.Graph, rc core.RunConfig) float64 {
	var t []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := partition.Partition(g, rc.PartCfg); err != nil {
			return -1
		}
		t = append(t, ms(time.Since(t0)))
	}
	return median(t)
}

// rewireProbe times one delete+insert rewire pair applied to an MB-S clone.
func (s *session) rewireProbe() error {
	g, _, err := dataset("MB-S")
	if err != nil {
		return err
	}
	pairs := 96
	if s.o.toy {
		pairs = 12
	}
	stream, err := rewireStream(g, pairs, 1, s.o.seed)
	if err != nil {
		return err
	}
	c := g.Clone()
	var per []float64
	const batch = 4
	for i := 0; i < len(stream); i += 2 * batch {
		t0 := time.Now()
		for _, m := range stream[i : i+2*batch] {
			if err := c.ApplyMutation(m); err != nil {
				return fmt.Errorf("rewire probe: %w", err)
			}
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/1e3/batch)
	}
	s.set("graph.rewire_apply_us", median(per), "us")
	return nil
}

const (
	snapKindCore  = "flashwalker-core-engine"
	snapKindDelta = "flashwalker-core-delta"
)

// snapshotProbes cut a TT-S 20k run mid-way through RunConfig.OnSnapshot
// and time full and delta encoding and decoding of that cut. It returns
// the encoded full snapshot as the blob probes' payload.
func (s *session) snapshotProbes() ([]byte, error) {
	g, d, err := dataset("TT-S")
	if err != nil {
		return nil, err
	}
	// The service's cadence: a cut every 16 checkpoints.
	walks, every := daemonWalks, uint64(16*core.DefaultCheckpointEvery)
	if s.o.toy {
		walks, every = toyWalks, core.DefaultCheckpointEvery
	}
	rc := harness.FlashWalkerConfig(d, core.AllOptions(), walks, s.o.seed)
	var cuts []*core.Snapshot
	rc.OnSnapshot = func(sn *core.Snapshot) { cuts = append(cuts, sn) }
	rc.SnapshotEvery = every
	if r := engineRep(g, rc, nil, "", false); r.res == nil {
		return nil, fmt.Errorf("snapshot probe run: %v", r.problems)
	}
	if len(cuts) < 2 {
		return nil, fmt.Errorf("snapshot probe: only %d cuts", len(cuts))
	}
	base, cur := cuts[len(cuts)/2-1], cuts[len(cuts)/2]
	reps := 5
	var full, delta []byte
	var encFull, encDelta, dec []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if full, err = snapshot.Encode(snapKindCore, cur); err != nil {
			return nil, err
		}
		t1 := time.Now()
		baseBytes, err := snapshot.Encode(snapKindCore, base)
		if err != nil {
			return nil, err
		}
		sha, err := snapshot.Seal(baseBytes)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		if delta, err = snapshot.Encode(snapKindDelta, core.DiffSnapshot(base, cur, sha, 1)); err != nil {
			return nil, err
		}
		t3 := time.Now()
		var back core.Snapshot
		if err := snapshot.Decode(full, snapKindCore, &back); err != nil {
			return nil, err
		}
		t4 := time.Now()
		encFull = append(encFull, ms(t1.Sub(t0)))
		encDelta = append(encDelta, ms(t3.Sub(t2)))
		dec = append(dec, ms(t4.Sub(t3)))
	}
	s.set("snapshot.encode_full_ms", median(encFull), "ms")
	s.set("snapshot.encode_delta_ms", median(encDelta), "ms")
	s.set("snapshot.decode_ms", median(dec), "ms")
	s.set("snapshot.full_kib", float64(len(full))/1024, "KiB")
	s.set("snapshot.delta_kib", float64(len(delta))/1024, "KiB")
	return full, nil
}

// blobProbes time Put and Get of a snapshot-sized payload on each store:
// in memory, on the file system under the work directory, and over
// loopback HTTP to blob.Handler. Append adds a 16 KiB spool-sized chunk.
// Each probe makes a fixed number of calls, to bound what it writes.
func (s *session) blobProbes(payload []byte) error {
	if err := os.MkdirAll(s.o.workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(s.o.workDir, "blob-fs-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fs, err := blob.NewFS(dir)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: blob.Handler(blob.NewMem())}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	hs, err := blob.NewHTTP("http://"+ln.Addr().String(), &http.Client{Transport: tr, Timeout: 30 * time.Second})
	if err != nil {
		return err
	}
	const batch = 8 // calls per timed batch, and distinct keys per store
	var opErr error
	keep := func(err error) {
		if err != nil && opErr == nil {
			opErr = err
		}
	}
	for _, st := range []struct {
		name  string
		store blob.Store
	}{{"mem", blob.NewMem()}, {"fs", fs}, {"http", hs}} {
		s.set("blob."+st.name+".put_us", perOp(0, batch, func(n int) {
			for i := 0; i < n; i++ {
				keep(st.store.Put(fmt.Sprintf("bench/obj-%d", i), payload))
			}
		})/1e3, "us")
		s.set("blob."+st.name+".get_us", perOp(0, batch, func(n int) {
			for i := 0; i < n; i++ {
				_, err := st.store.Get(fmt.Sprintf("bench/obj-%d", i))
				keep(err)
			}
		})/1e3, "us")
	}
	chunk := payload[:min(len(payload), 16<<10)]
	s.set("blob.fs.append_us", perOp(0, batch, func(n int) {
		for i := 0; i < n; i++ {
			keep(fs.Append("bench/spool", chunk))
		}
	})/1e3, "us")
	if opErr != nil {
		return fmt.Errorf("blob probe: %w", opErr)
	}
	return nil
}

// serviceProbe gives a traced engine workload its service numbers: a
// short closed loop against a fresh daemon.
func (s *session) serviceProbe() error {
	walks, secs := daemonWalks, probeSeconds
	if s.o.toy {
		walks, secs = toyWalks, probeToySeconds
	}
	d, err := startDaemon()
	if err != nil {
		return err
	}
	defer d.close()
	seeds := &jobSeeds{base: s.o.seed<<20 | 1<<19}
	s.checkJobs([]jobOut{runJob(d, seeds.spec(walks))})
	jobs, wall := loop(d, seeds, walks, time.Duration(secs*float64(time.Second)))
	s.checkJobs(jobs)
	if err := s.serviceLayers(d, jobs, wall); err != nil {
		return err
	}
	return s.checkPersist(d)
}

// serviceLayers reports the medians of each phase of the jobs, their tail
// latencies, the loop's job rate, and the replay rate of a finished job's
// stream.
func (s *session) serviceLayers(d *daemon, jobs []jobOut, wall time.Duration) error {
	var submit, queue, run, first, lag, job, ttfw []float64
	var last []string
	for _, j := range jobs {
		if !j.ok() {
			continue
		}
		j.spans(s.tr)
		submit = append(submit, ms(j.submitted.Sub(j.submit)))
		queue = append(queue, ms(j.started.Sub(j.status.SubmittedAt)))
		run = append(run, ms(j.finishedAt.Sub(j.started)))
		first = append(first, ms(j.first.Sub(j.started)))
		lag = append(lag, ms(j.trailer.Sub(j.finishedAt)))
		job = append(job, ms(j.trailer.Sub(j.submit)))
		ttfw = append(ttfw, ms(j.first.Sub(j.submit)))
		last = append(last, j.id)
	}
	if len(job) == 0 {
		return fmt.Errorf("no job finished")
	}
	s.set("service.submit_ms", median(submit), "ms")
	s.set("service.queue_wait_ms", median(queue), "ms")
	s.set("service.run_ms", median(run), "ms")
	s.set("service.ttfw_p50_ms", median(ttfw), "ms")
	s.set("service.first_frame_after_start_ms", median(first), "ms")
	s.set("service.trailer_lag_ms", median(lag), "ms")
	s.set("service.jobs_sampled", float64(len(job)), "count")
	s.set("service.jobs_per_s", float64(len(job))/wall.Seconds(), "1/s")
	for _, t := range []struct {
		name string
		xs   []float64
	}{{"job", job}, {"ttfw", ttfw}} {
		q, v, ok := tail(t.xs)
		if !ok {
			q, v = "p50", median(t.xs)
		}
		s.set("service."+t.name+"_tail_ms", v, "ms")
		s.notes = append(s.notes, fmt.Sprintf("service.%s_tail_ms is %s over %d jobs", t.name, q, len(t.xs)))
	}
	// Replay the most recent finished jobs, whose spools retention keeps.
	if len(last) > 2 {
		last = last[len(last)-2:]
	}
	var rate []float64
	for _, id := range last {
		r, err := replay(d, id)
		if err != nil {
			return err
		}
		rate = append(rate, r)
	}
	s.set("service.stream_replay_records_per_s", median(rate), "1/s")
	return nil
}

// replay reads a finished job's whole stream and returns records per second.
func replay(d *daemon, id string) (float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	t0 := time.Now()
	st, err := d.c.Stream(ctx, id, 0)
	if err != nil {
		return 0, fmt.Errorf("replaying %s: %w", id, err)
	}
	defer st.Close()
	n := 0
	for {
		if _, ok := st.Next(); !ok {
			break
		}
		n++
	}
	if st.Err() != nil || st.End() == nil || st.End().NextSeq != uint64(n) {
		return 0, fmt.Errorf("replaying %s: %d records, end %+v, err %v", id, n, st.End(), st.Err())
	}
	return float64(n) / time.Since(t0).Seconds(), nil
}
