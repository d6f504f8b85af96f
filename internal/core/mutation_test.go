package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"flashwalker/internal/errs"
	"flashwalker/internal/fault"
	"flashwalker/internal/graph"
	"flashwalker/internal/partition"
	"flashwalker/internal/sim"
	"flashwalker/internal/snapshot"
	"flashwalker/internal/walk"
)

// The dynamic-graph proof suite. The headline invariant
// (TestMutationMetamorphic) is rebuild-equivalence: a run that replays a
// mutation stream incrementally — patching the CSR arrays, block degree
// tables, edge bloom, and alias tables between events — lands on the exact
// Result of a run built from scratch over the mutated edge list. The timed
// variants extend the proof across a mid-stream snapshot -> kill -> resume
// cut, and the array tests across board counts and a whole-device kill.
//
// The test graph is built so the mutation stream provably cannot move the
// frozen partition skeleton: uniform out-degree 8 with block sizes chosen
// to leave per-block byte slack (see mutPartCfg), and the per-block
// mutation budget in mutStream stays inside that slack. The skeleton
// stability is asserted, not assumed (assertSkeletonStable).

const (
	mutNV  = 256
	mutDeg = 8
)

// mutDst is the deterministic adjacency formula of the mutation test
// graph: for each vertex the 8 destinations are distinct (55*i mod 256 is
// injective on i in [0,8)), so weighted graphs have no parallel edges and
// delete targets are unambiguous.
func mutDst(v, i uint64) graph.VertexID {
	return graph.VertexID((177*v + 55*i + 17) % mutNV)
}

func mutWeight(v, i uint64) float32 {
	return float32(1 + (v+3*i)%7)
}

func buildMutGraph(t *testing.T, edges []graph.Edge, weighted bool) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(mutNV)
	for _, e := range edges {
		if weighted {
			b.AddWeightedEdge(e.Src, e.Dst, e.Weight)
		} else {
			b.AddEdge(e.Src, e.Dst)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("build mutation test graph: %v", err)
	}
	return g
}

// mutTestGraph returns the uniform-degree test graph and its edge list
// (the edge list feeds the from-scratch rebuild leg).
func mutTestGraph(t *testing.T, weighted bool) (*graph.Graph, []graph.Edge) {
	t.Helper()
	var edges []graph.Edge
	for v := uint64(0); v < mutNV; v++ {
		for i := uint64(0); i < mutDeg; i++ {
			e := graph.Edge{Src: graph.VertexID(v), Dst: mutDst(v, i), Weight: 1}
			if weighted {
				e.Weight = mutWeight(v, i)
			}
			edges = append(edges, e)
		}
	}
	return buildMutGraph(t, edges, weighted), edges
}

// mutPartCfg sizes blocks so every block holds a whole number of degree-8
// vertices with slack left over: unweighted 192 B holds 5 vertices
// (5*(4+8*4) = 180, 12 B slack = 3 edge inserts), weighted 300 B holds 4
// (4*(4+8*8) = 272, 28 B slack = 3 edge inserts). mutStream's per-block
// budget stays below the slack, so Partition() over the mutated graph cuts
// the exact same block boundaries.
func mutPartCfg(weighted bool) partition.Config {
	pc := partition.Config{
		BlockBytes:            192,
		IDBytes:               4,
		SubgraphsPerPartition: 8,
		RangeSize:             8,
	}
	if weighted {
		pc.BlockBytes = 300
	}
	return pc
}

// mutConfig is the golden workload re-pointed at the boundary-stable
// partitioning, with visit tracking on.
func mutConfig(weighted bool) RunConfig {
	rc := goldenConfig()
	rc.PartCfg = mutPartCfg(weighted)
	rc.TrackVisits = true
	return rc
}

// freshDst picks a destination vertex not already adjacent to v and not
// already claimed by an earlier insert — weighted inserts must not create
// parallel edges with distinct weights (Builder's rebuild order is
// unspecified there).
func freshDst(edges []graph.Edge, used map[[2]graph.VertexID]bool, v graph.VertexID) graph.VertexID {
	have := map[graph.VertexID]bool{}
	for _, e := range edges {
		if e.Src == v {
			have[e.Dst] = true
		}
	}
	for d := graph.VertexID(0); ; d++ {
		if !have[d] && !used[[2]graph.VertexID{v, d}] {
			used[[2]graph.VertexID{v, d}] = true
			return d
		}
	}
}

// freshInDegrees counts g's in-degrees afresh.
func freshInDegrees(g *graph.Graph) []uint64 {
	in := make([]uint64, g.NumVertices())
	for _, d := range g.Edges {
		in[d]++
	}
	return in
}

// TestNewEngineInDegrees: in-degrees are counted once per graph. Two
// engines built at once on a fresh graph share its counts (the race lane
// runs this under -race); an engine with an At-0 batch ranks hot blocks
// by the shared counts plus the batch's deltas, which equal a fresh count
// over the rebuilt graph, and leaves the shared graph's counts alone.
func TestNewEngineInDegrees(t *testing.T) {
	g, edges := mutTestGraph(t, false)
	rc := mutConfig(false)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := NewEngine(g, rc); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	in := g.InDegrees()
	if !slices.Equal(in, freshInDegrees(g)) {
		t.Fatal("shared counts differ from a fresh count")
	}
	rc.Mutations = mutStream(edges, false)
	x, err := newEngine(g, rc)
	if err != nil {
		t.Fatal(err)
	}
	mg := buildMutGraph(t, applyStreamToEdges(t, edges, rc.Mutations), false)
	assertSkeletonStable(t, rc.PartCfg, g, mg)
	mp, err := partition.Partition(mg, rc.PartCfg)
	if err != nil {
		t.Fatal(err)
	}
	got, want := x.inDegreeSums(), mp.InDegreeSums(freshInDegrees(mg))
	if !slices.Equal(got, want) {
		t.Fatalf("hot-selection sums after the At-0 batch %v, a fresh count over the rebuilt graph %v", got, want)
	}
	if slices.Equal(got, x.part.InDegreeSums(in)) {
		t.Fatal("the At-0 batch left the block sums unchanged; pick other destinations")
	}
	if got := g.InDegrees(); &got[0] != &in[0] || !slices.Equal(got, freshInDegrees(g)) {
		t.Fatal("an At-0 batch changed the shared graph's counts")
	}
}

// TestMutationRunsShareGraph: runs with mutation streams read the
// caller's graph and never write it. Two engines run at once on one
// weighted graph with different mid-run streams, one unbiased and one
// biased with alias tables, and each reproduces its solo run; the graph's
// arrays hash the same after as before (the race lane runs this under
// -race). And a stream costs construction no copy of the graph: on a
// 4.5 MB CSR, NewEngine with a 250-rewire stream allocates under 1 MB more
// than without it.
func TestMutationRunsShareGraph(t *testing.T) {
	g, edges := mutTestGraph(t, true)
	before := csrHash(g)
	ms0 := mutStream(edges, true)
	rcA := mutConfig(true)
	rcB := mutConfig(true)
	rcB.Spec = walk.Spec{Kind: walk.Biased, Length: 6}
	rcB.UseAliasSampling = true
	rev := slices.Clone(ms0) // its sources are distinct, so any order is a valid stream
	slices.Reverse(rev)
	rcA.Mutations = timedStream(ms0, midStreamTimes(t, len(ms0), probeClocks(t, g, rcA)))
	rcB.Mutations = timedStream(rev, midStreamTimes(t, len(ms0), probeClocks(t, g, rcB)))
	solo := []*Result{runEngine(t, g, rcA), runEngine(t, g, rcB)}

	shared := make([]*Result, 2)
	var wg sync.WaitGroup
	for i, rc := range []RunConfig{rcA, rcB} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, err := NewEngine(g, rc)
			if err == nil {
				shared[i], err = e.RunContext(context.Background())
			}
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i := range solo {
		if shared[i] == nil {
			t.FailNow()
		}
		if shared[i].MutationsApplied != uint64(len(ms0)) {
			t.Fatalf("engine %d applied %d of %d mutations", i, shared[i].MutationsApplied, len(ms0))
		}
		if got, want := digestResult(shared[i]), digestResult(solo[i]); got != want {
			t.Fatalf("engine %d on the shared graph diverged from its solo run:\n got %s\nwant %s", i, got, want)
		}
		assertSameVisits(t, shared[i].Visits, solo[i].Visits)
	}
	if csrHash(g) != before {
		t.Fatal("runs with mutation streams wrote the shared graph")
	}

	big := shareTestCSR()
	rc := testConfig()
	for i := range 250 {
		src := graph.VertexID(i * 40503 % (1 << 16))
		at := int64(i+1) * int64(sim.Microsecond)
		rc.Mutations = append(rc.Mutations,
			graph.Mutation{At: at, Op: graph.OpDeleteEdge, Src: src, Dst: big.OutEdges(src)[0]},
			graph.Mutation{At: at, Op: graph.OpInsertEdge, Src: src, Dst: graph.VertexID(i)})
	}
	big.InDegrees()
	alloc := func(rc RunConfig) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := NewEngine(big, rc); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	static := rc
	static.Mutations = nil
	plain, withStream := alloc(static), alloc(rc)
	if withStream > plain+1<<20 {
		t.Fatalf("NewEngine allocated %d B with a stream, %d B without: the stream cost %d B", withStream, plain, withStream-plain)
	}
}

// csrHash hashes a graph's four CSR arrays.
func csrHash(g *graph.Graph) [sha256.Size]byte {
	h := sha256.New()
	for _, a := range []any{g.Offsets, g.Edges, g.Weights, g.CumWeights} {
		if err := binary.Write(h, binary.LittleEndian, a); err != nil {
			panic(err)
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// shareTestCSR builds a 65,536-vertex graph of out-degree 16 directly:
// about 4.5 MB of CSR, so a copy of it shows in an allocation count.
func shareTestCSR() *graph.Graph {
	const nv, deg = 1 << 16, 16
	g := &graph.Graph{Offsets: make([]uint64, nv+1), Edges: make([]graph.VertexID, 0, nv*deg)}
	for v := uint64(0); v < nv; v++ {
		from := len(g.Edges)
		for i := uint64(0); i < deg; i++ {
			g.Edges = append(g.Edges, graph.VertexID((v*2654435761+i*40503)%nv))
		}
		slices.Sort(g.Edges[from:])
		g.Offsets[v+1] = uint64(len(g.Edges))
	}
	return g
}

// viewCSR materializes the engine's view of its unweighted graph — the
// shared graph read through the run's overlay — as a CSR, so it can be
// compared with a Builder rebuild.
func viewCSR(e *Engine) *graph.Graph {
	n := e.g.NumVertices()
	v := &graph.Graph{Offsets: make([]uint64, 1, n+1)}
	for u := graph.VertexID(0); uint64(u) < n; u++ {
		v.Edges = append(v.Edges, e.ov.OutEdges(u)...)
		v.Offsets = append(v.Offsets, uint64(len(v.Edges)))
	}
	return v
}

// mutStream is the canonical test stream (all At == 0; retime with
// timedStream). It touches several distinct blocks, mixes inserts and
// deletes (including a net-zero block and a self-loop), and keeps every
// block within mutPartCfg's byte slack.
func mutStream(edges []graph.Edge, weighted bool) graph.MutationStream {
	if !weighted {
		return graph.MutationStream{
			{Op: graph.OpInsertEdge, Src: 3, Dst: 9},
			{Op: graph.OpInsertEdge, Src: 3, Dst: 200},
			{Op: graph.OpDeleteEdge, Src: 40, Dst: mutDst(40, 0)},
			{Op: graph.OpInsertEdge, Src: 41, Dst: 7},
			{Op: graph.OpDeleteEdge, Src: 100, Dst: mutDst(100, 3)},
			{Op: graph.OpDeleteEdge, Src: 102, Dst: mutDst(102, 5)},
			{Op: graph.OpInsertEdge, Src: 200, Dst: 200},
			{Op: graph.OpInsertEdge, Src: 250, Dst: 0},
		}
	}
	used := map[[2]graph.VertexID]bool{}
	return graph.MutationStream{
		{Op: graph.OpInsertEdge, Src: 3, Dst: freshDst(edges, used, 3), Weight: 2.5},
		{Op: graph.OpDeleteEdge, Src: 4, Dst: mutDst(4, 1)},
		{Op: graph.OpInsertEdge, Src: 5, Dst: freshDst(edges, used, 5), Weight: 0.75},
		{Op: graph.OpDeleteEdge, Src: 40, Dst: mutDst(40, 2)},
		{Op: graph.OpInsertEdge, Src: 97, Dst: freshDst(edges, used, 97), Weight: 1.25},
		{Op: graph.OpInsertEdge, Src: 98, Dst: freshDst(edges, used, 98), Weight: 3},
		{Op: graph.OpDeleteEdge, Src: 200, Dst: mutDst(200, 7)},
	}
}

// timedStream restamps a copy of the stream with the given (sorted) times.
func timedStream(ms graph.MutationStream, times []int64) graph.MutationStream {
	out := append(graph.MutationStream(nil), ms...)
	for i := range out {
		out[i].At = times[i]
	}
	return out
}

// probeClocks runs the mutation-free workload once and records the
// simulated clock at every 64-event checkpoint. Event density is far from
// uniform on small workloads (half the timeline can pass in the first few
// dozen events), so mid-run mutation timestamps are placed against these
// observed clocks, not against fractions of the end time.
func probeClocks(t *testing.T, g *graph.Graph, rc RunConfig) []sim.Time {
	t.Helper()
	rc.CheckpointEvery = 64
	var clocks []sim.Time
	rc.OnProgress = func(p Progress) { clocks = append(clocks, p.Now) }
	runEngine(t, g, rc)
	return clocks
}

// midStreamTimes stamps an n-mutation stream so a checkpoint provably
// falls strictly mid-stream: two mutations near the start, the rest
// spread across the event-dense middle quarter of the probe timeline —
// after the earliest checkpoints (so their cursor reads 2) and well
// before the end (so every mutation still fires).
func midStreamTimes(t *testing.T, n int, clocks []sim.Time) []int64 {
	t.Helper()
	if len(clocks) < 8 {
		t.Fatalf("only %d checkpoints; workload too small to cut mid-stream", len(clocks))
	}
	lo, hi := int64(clocks[len(clocks)/4]), int64(clocks[len(clocks)/2])
	times := make([]int64, n)
	for i := range times {
		switch i {
		case 0:
			times[i] = int64(1 * sim.Microsecond)
		case 1:
			times[i] = int64(2 * sim.Microsecond)
		default:
			times[i] = lo + int64(i-1)*(hi-lo)/int64(n)
		}
	}
	return times
}

// applyStreamToEdges produces the mutated edge multiset for the rebuild
// leg: inserts append, deletes remove one matching (src, dst) edge.
func applyStreamToEdges(t *testing.T, edges []graph.Edge, ms graph.MutationStream) []graph.Edge {
	t.Helper()
	out := append([]graph.Edge(nil), edges...)
	for _, m := range ms {
		if m.Op == graph.OpInsertEdge {
			out = append(out, graph.Edge{Src: m.Src, Dst: m.Dst, Weight: m.Weight})
			continue
		}
		found := -1
		for i, e := range out {
			if e.Src == m.Src && e.Dst == m.Dst {
				found = i
				break
			}
		}
		if found < 0 {
			t.Fatalf("stream deletes edge (%d,%d) missing from the edge list", m.Src, m.Dst)
		}
		out = append(out[:found], out[found+1:]...)
	}
	return out
}

// assertSkeletonStable is the precondition of the rebuild-equivalence
// proof: partitioning the initial and the mutated graph must cut identical
// block boundaries, or the two legs would not share a skeleton to agree on.
func assertSkeletonStable(t *testing.T, pc partition.Config, g0, g1 *graph.Graph) {
	t.Helper()
	p0, err := partition.Partition(g0, pc)
	if err != nil {
		t.Fatalf("partition initial graph: %v", err)
	}
	p1, err := partition.Partition(g1, pc)
	if err != nil {
		t.Fatalf("partition mutated graph: %v", err)
	}
	if len(p0.Blocks) != len(p1.Blocks) {
		t.Fatalf("mutation stream changed the block count: %d -> %d", len(p0.Blocks), len(p1.Blocks))
	}
	for i := range p0.Blocks {
		a, b := p0.Blocks[i], p1.Blocks[i]
		if a.LowVertex != b.LowVertex || a.HighVertex != b.HighVertex || a.Dense != b.Dense {
			t.Fatalf("mutation stream moved block %d's boundary: [%d,%d,dense=%v] -> [%d,%d,dense=%v]",
				i, a.LowVertex, a.HighVertex, a.Dense, b.LowVertex, b.HighVertex, b.Dense)
		}
	}
}

func assertSameVisits(t *testing.T, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("visit vector length %d, want %d", len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d visited %d times, want %d", v, got[v], want[v])
		}
	}
}

// TestMutationMetamorphic is the headline equivalence proof: for every
// walk kind (unbiased, second-order with its edge bloom, biased via ITS
// and via alias tables), with and without fault injection, on one board
// and on a 2-board array, applying a stream up front (running over the
// rebuilt mutated graph with no stream) and replaying the same stream
// incrementally yield bit-identical digests, timelines, and per-vertex
// visit counts.
func TestMutationMetamorphic(t *testing.T) {
	cases := []struct {
		name     string
		weighted bool
		spec     walk.Spec
		faults   fault.Config
		alias    bool
		boards   int
	}{
		{name: "unbiased", spec: walk.Spec{Kind: walk.Unbiased, Length: 6}},
		{name: "unbiased-faults", spec: walk.Spec{Kind: walk.Unbiased, Length: 6}, faults: resumeFaultConfig()},
		{name: "secondorder", spec: walk.Spec{Kind: walk.SecondOrder, Length: 6, P: 0.5, Q: 2}},
		{name: "secondorder-faults", spec: walk.Spec{Kind: walk.SecondOrder, Length: 6, P: 0.5, Q: 2}, faults: resumeFaultConfig()},
		{name: "biased", weighted: true, spec: walk.Spec{Kind: walk.Biased, Length: 6}},
		{name: "biased-alias", weighted: true, spec: walk.Spec{Kind: walk.Biased, Length: 6}, alias: true},
		{name: "unbiased-2boards", spec: walk.Spec{Kind: walk.Unbiased, Length: 6}, boards: 2},
		{name: "secondorder-2boards", spec: walk.Spec{Kind: walk.SecondOrder, Length: 6, P: 0.5, Q: 2}, boards: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, edges := mutTestGraph(t, tc.weighted)
			ms := mutStream(edges, tc.weighted)
			mg := buildMutGraph(t, applyStreamToEdges(t, edges, ms), tc.weighted)

			rc := mutConfig(tc.weighted)
			rc.Spec = tc.spec
			rc.Cfg.Faults = tc.faults
			rc.UseAliasSampling = tc.alias
			assertSkeletonStable(t, rc.PartCfg, g, mg)

			run := func(g *graph.Graph, rc RunConfig) *Result {
				rc.Cfg.Boards = tc.boards
				return runEngine(t, g, rc)
			}
			rebuilt := run(mg, rc)
			rc.Mutations = ms
			inc := run(g, rc)

			if rebuilt.MutationsApplied != 0 {
				t.Fatalf("rebuild leg applied %d mutations, want 0", rebuilt.MutationsApplied)
			}
			if inc.MutationsApplied != uint64(len(ms)) {
				t.Fatalf("incremental leg applied %d mutations, want %d", inc.MutationsApplied, len(ms))
			}
			if got, want := digestResult(inc), digestResult(rebuilt); got != want {
				t.Fatalf("incremental stream diverged from up-front rebuild:\n got %s\nwant %s", got, want)
			}
			assertSameVisits(t, inc.Visits, rebuilt.Visits)
		})
	}
}

// interruptMidStream runs rc until the first snapshot whose mutation
// cursor is strictly inside the stream (some applied, some still
// pending), cancels there, and returns the snapshot after an on-disk
// codec round trip.
func interruptMidStream(t *testing.T, g *graph.Graph, rc RunConfig, nmuts int) *Snapshot {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var captured *Snapshot
	rc.CheckpointEvery = 64
	rc.SnapshotEvery = 1
	rc.OnSnapshot = func(s *Snapshot) {
		if captured == nil && s.MutApplied > 0 && s.MutApplied < nmuts {
			captured = s
			cancel()
		}
	}
	e, err := NewEngine(g, rc)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if _, err := e.RunContext(ctx); err == nil {
		t.Fatal("run finished without a strictly mid-stream snapshot")
	}
	if captured == nil {
		t.Fatal("no snapshot landed strictly mid-stream")
	}
	data, err := snapshot.Encode("core-engine", captured)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	back := new(Snapshot)
	if err := snapshot.Decode(data, "core-engine", back); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return back
}

// TestMutationMetamorphicResume extends the equivalence across a
// snapshot -> kill -> resume cut taken strictly mid-stream: the snapshot
// records a partially applied stream, the resumed engine rebuilds from the
// initial graph and replays exactly the applied prefix, and the remainder
// of the stream fires from the restored timeline — landing bit-identical
// to the uninterrupted run.
func TestMutationMetamorphicResume(t *testing.T) {
	cases := []struct {
		name     string
		weighted bool
		spec     walk.Spec
		alias    bool
	}{
		{name: "secondorder", spec: walk.Spec{Kind: walk.SecondOrder, Length: 6, P: 0.5, Q: 2}},
		{name: "biased-alias", weighted: true, spec: walk.Spec{Kind: walk.Biased, Length: 6}, alias: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, edges := mutTestGraph(t, tc.weighted)
			rc := mutConfig(tc.weighted)
			rc.Spec = tc.spec
			rc.UseAliasSampling = tc.alias

			clocks := probeClocks(t, g, rc) // mutation-free run scales the timestamps
			ms0 := mutStream(edges, tc.weighted)
			ms := timedStream(ms0, midStreamTimes(t, len(ms0), clocks))
			rc.Mutations = ms

			clean := runEngine(t, g, rc)
			if clean.MutationsApplied != uint64(len(ms)) {
				t.Fatalf("straight run applied %d of %d mutations", clean.MutationsApplied, len(ms))
			}

			snap := interruptMidStream(t, g, rc, len(ms))
			if snap.MutApplied <= 0 || snap.MutApplied >= len(ms) {
				t.Fatalf("snapshot cursor %d not strictly inside the %d-mutation stream", snap.MutApplied, len(ms))
			}
			res, err := resumeContext(context.Background(), g, snap, Observers{})
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if res.MutationsApplied != uint64(len(ms)) {
				t.Fatalf("resumed run applied %d of %d mutations", res.MutationsApplied, len(ms))
			}
			if got, want := digestResult(res), digestResult(clean); got != want {
				t.Fatalf("resumed mutation run diverged:\n got %s\nwant %s", got, want)
			}
			assertSameVisits(t, res.Visits, clean.Visits)
		})
	}
}

// TestArrayMutationOutcomeEquality shards one At == 0 stream across 1, 2,
// and 4 boards: every topology applies the full stream (each mutation
// attributed to the board owning its vertex's home partition), and walk
// outcomes and visit counts are identical to the single-board engine.
func TestArrayMutationOutcomeEquality(t *testing.T) {
	g, edges := mutTestGraph(t, false)
	ms := mutStream(edges, false)
	rc := mutConfig(false)
	rc.Mutations = ms

	single := runEngine(t, g, rc)
	if single.MutationsApplied != uint64(len(ms)) {
		t.Fatalf("single board applied %d of %d mutations", single.MutationsApplied, len(ms))
	}
	for _, nb := range []int{1, 2, 4} {
		rcN := rc
		rcN.Cfg.Boards = nb
		res := runEngine(t, g, rcN)
		if res.MutationsApplied != uint64(len(ms)) {
			t.Fatalf("%d boards applied %d of %d mutations", nb, res.MutationsApplied, len(ms))
		}
		if res.Started != single.Started || res.Completed != single.Completed ||
			res.DeadEnded != single.DeadEnded || res.Hops != single.Hops {
			t.Fatalf("%d boards outcomes (%d/%d/%d/%d) != single board (%d/%d/%d/%d)",
				nb, res.Started, res.Completed, res.DeadEnded, res.Hops,
				single.Started, single.Completed, single.DeadEnded, single.Hops)
		}
		assertSameVisits(t, res.Visits, single.Visits)
		if nb == 1 {
			if got, want := digestResult(res), digestResult(single); got != want {
				t.Fatalf("1-board array diverged from the engine on the same stream:\n got %s\nwant %s", got, want)
			}
		}
	}
}

// TestArrayMutationKillOutcomeEquality reruns the PR-6 whole-device fault
// invariant with a mutation stream on board: killing one board mid-run
// (survivors absorb its shard and evacuated walks) changes nothing about
// walk outcomes or visit counts versus the clean 3-board run.
func TestArrayMutationKillOutcomeEquality(t *testing.T) {
	g, edges := mutTestGraph(t, false)
	ms := mutStream(edges, false)
	rc := mutConfig(false)
	rc.Cfg.Boards = 3
	rc.Mutations = ms
	clean := runEngine(t, g, rc)

	kill := rc
	kill.Cfg.Faults.KillBoard = 1
	kill.Cfg.Faults.KillBoardAt = clean.Time / 2
	res := runEngine(t, g, kill)
	if res.BoardKills != 1 {
		t.Fatalf("BoardKills = %d, want 1", res.BoardKills)
	}
	if res.MutationsApplied != uint64(len(ms)) {
		t.Fatalf("kill run applied %d of %d mutations", res.MutationsApplied, len(ms))
	}
	if res.Started != clean.Started || res.Completed != clean.Completed ||
		res.DeadEnded != clean.DeadEnded || res.Hops != clean.Hops {
		t.Fatalf("kill run outcomes (%d/%d/%d/%d) != clean (%d/%d/%d/%d)",
			res.Started, res.Completed, res.DeadEnded, res.Hops,
			clean.Started, clean.Completed, clean.DeadEnded, clean.Hops)
	}
	assertSameVisits(t, res.Visits, clean.Visits)
}

// TestArrayMutationKillThenResume combines all three fault layers: a
// 2-board run with a timed stream and a device kill scheduled between the
// stream's timestamps, interrupted at a strictly mid-stream snapshot and
// resumed — the resumed run replays the applied prefix, fires the
// remaining mutations AND the pending kill, and lands on the straight
// run's exact digest.
func TestArrayMutationKillThenResume(t *testing.T) {
	g, edges := mutTestGraph(t, false)
	rc := mutConfig(false)
	rc.Cfg.Boards = 2

	clocks := probeClocks(t, g, rc)
	ms0 := mutStream(edges, false)
	times := midStreamTimes(t, len(ms0), clocks)
	rc.Mutations = timedStream(ms0, times)
	ms := rc.Mutations
	rc.Cfg.Faults.KillBoard = 1
	// Kill in the middle of the timed span, between the stream's stamps.
	rc.Cfg.Faults.KillBoardAt = sim.Time((times[2] + times[len(times)-1]) / 2)

	clean := runEngine(t, g, rc)
	if clean.BoardKills != 1 {
		t.Fatalf("straight run recorded %d kills, want 1", clean.BoardKills)
	}
	if clean.MutationsApplied != uint64(len(ms)) {
		t.Fatalf("straight run applied %d of %d mutations", clean.MutationsApplied, len(ms))
	}

	snap := interruptMidStream(t, g, rc, len(ms))
	res, err := resumeContext(context.Background(), g, snap, Observers{})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res.BoardKills != 1 {
		t.Fatalf("resumed run recorded %d kills, want 1", res.BoardKills)
	}
	if res.MutationsApplied != uint64(len(ms)) {
		t.Fatalf("resumed run applied %d of %d mutations", res.MutationsApplied, len(ms))
	}
	if got, want := digestResult(res), digestResult(clean); got != want {
		t.Fatalf("resumed kill+mutation run diverged:\n got %s\nwant %s", got, want)
	}
	assertSameVisits(t, res.Visits, clean.Visits)
}

// TestMutationPrefixPatchesIndexes: the run builds its edge filter and
// alias tables over the shared graph and then takes the At == 0 prefix as
// one batch, after which they equal indexes built afresh over the rebuilt
// graph — the counting filter in its geometry too, sized for the final
// edge count + 1.
func TestMutationPrefixPatchesIndexes(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g, edges := mutTestGraph(t, weighted)
		rc := mutConfig(weighted)
		rc.Cfg.Boards = 2
		rc.Mutations = mutStream(edges, weighted)
		rc.Spec = walk.Spec{Kind: walk.SecondOrder, Length: 6, P: 0.5, Q: 2}
		if weighted {
			rc.Spec = walk.Spec{Kind: walk.Biased, Length: 6}
			rc.UseAliasSampling = true
		}
		mg := buildMutGraph(t, applyStreamToEdges(t, edges, rc.Mutations), weighted)
		e, err := NewEngine(g, rc)
		if err != nil {
			t.Fatal(err)
		}
		if weighted {
			want, err := walk.NewGraphAlias(mg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(e.alias, want) {
				t.Fatal("alias tables differ from fresh ones over the rebuilt graph")
			}
		} else if !reflect.DeepEqual(e.edgeFilterC, partition.EdgeFilterCounting(mg, 0.01, int(mg.NumEdges())+1)) {
			t.Fatal("counting edge filter differs from a fresh one over the rebuilt graph")
		}
	}
}

// TestMutationFailoverRanksMutatedInDegrees: a chip that degrades after
// mutations ranks its failover blocks by the in-degrees the run sees at
// that instant, the shared graph's counts plus the applied mutations'
// deltas. Rewires at 1 µs move 32 edges' worth of in-degree onto vertex
// 130, and with room for two failover blocks per channel which blocks fail
// over depends on it. The digest was pinned from an engine that mutated a
// private clone of the graph.
func TestMutationFailoverRanksMutatedInDegrees(t *testing.T) {
	g, _ := mutTestGraph(t, false)
	rc := mutConfig(false)
	rc.Cfg.Faults = resumeFaultConfig()
	rc.Cfg.ChannelSubgraphBufBytes = 800
	at := int64(sim.Microsecond)
	for s := graph.VertexID(1); s < mutNV; s += 8 {
		rc.Mutations = append(rc.Mutations,
			graph.Mutation{At: at, Op: graph.OpDeleteEdge, Src: s, Dst: mutDst(uint64(s), 0)},
			graph.Mutation{At: at, Op: graph.OpInsertEdge, Src: s, Dst: 130})
	}
	res := runEngine(t, g, rc)
	if res.MutationsApplied != uint64(len(rc.Mutations)) || res.FailoverBlocks == 0 {
		t.Fatalf("applied %d of %d mutations and failed %d blocks over; the fixture needs all and some",
			res.MutationsApplied, len(rc.Mutations), res.FailoverBlocks)
	}
	const want = "time=336000 started=500 completed=500 dead=0 hops=3000 readPages=125 progPages=0 readB=512000 " +
		"chanB=351976 dramR=1740 dramW=1740 qcHit=585 qcMiss=4448 search=23074 range=93 prewalk=0 " +
		"hotCh=14 hotBd=2898 chip=88 loads=21 reloads=13 pwb=0 foreign=2123 switches=32"
	if got := digestResult(res); got != want {
		t.Fatalf("failover after mutations moved the run:\n got %s\nwant %s", got, want)
	}
}

// TestMutationInsertDeleteCancels proves equal timestamps apply in stream
// order and that incremental application is exactly invertible: inserting
// a brand-new edge and deleting it at the same instant restores every
// structure (the vertex's run, block stats, bloom counts) bit for bit, so
// the run matches a mutation-free one. The reversed stream — delete before
// its own insert — must be rejected up front.
func TestMutationInsertDeleteCancels(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec walk.Spec
	}{
		{name: "unbiased", spec: walk.Spec{Kind: walk.Unbiased, Length: 6}},
		{name: "secondorder", spec: walk.Spec{Kind: walk.SecondOrder, Length: 6, P: 0.5, Q: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, _ := mutTestGraph(t, false)
			rc := mutConfig(false)
			rc.Spec = tc.spec
			base := runEngine(t, g, rc)

			at := int64(base.Time) / 4
			rc.Mutations = graph.MutationStream{
				{At: at, Op: graph.OpInsertEdge, Src: 7, Dst: 7},
				{At: at, Op: graph.OpDeleteEdge, Src: 7, Dst: 7},
			}
			res := runEngine(t, g, rc)
			if res.MutationsApplied != 2 {
				t.Fatalf("applied %d mutations, want 2", res.MutationsApplied)
			}
			if got, want := digestResult(res), digestResult(base); got != want {
				t.Fatalf("insert+delete of the same edge at one instant moved the run:\n got %s\nwant %s", got, want)
			}
			assertSameVisits(t, res.Visits, base.Visits)

			rc.Mutations = graph.MutationStream{
				{At: at, Op: graph.OpDeleteEdge, Src: 7, Dst: 7},
				{At: at, Op: graph.OpInsertEdge, Src: 7, Dst: 7},
			}
			if _, err := NewEngine(g, rc); !errors.Is(err, errs.ErrInvalidConfig) {
				t.Fatalf("delete-before-insert at equal timestamps: %v, want ErrInvalidConfig", err)
			}
		})
	}
}

// TestMutationVisibilityBounds pins the visibility rule at the run's
// boundaries: a mutation stamped past the end is never applied and the
// run is bit-identical to a mutation-free one, while the same mutation at
// At == 0 is visible everywhere and moves the timeline.
func TestMutationVisibilityBounds(t *testing.T) {
	g, _ := mutTestGraph(t, false)
	rc := mutConfig(false)
	base := runEngine(t, g, rc)
	if base.Visits[40] == 0 {
		t.Fatal("test workload never visits vertex 40; pick a different mutation target")
	}
	del := graph.Mutation{Op: graph.OpDeleteEdge, Src: 40, Dst: mutDst(40, 0)}

	late := rc
	del.At = int64(base.Time) * 10
	late.Mutations = graph.MutationStream{del}
	resLate := runEngine(t, g, late)
	if resLate.MutationsApplied != 0 {
		t.Fatalf("mutation stamped past the end applied %d times", resLate.MutationsApplied)
	}
	if got, want := digestResult(resLate), digestResult(base); got != want {
		t.Fatalf("never-applied mutation still moved the run:\n got %s\nwant %s", got, want)
	}
	assertSameVisits(t, resLate.Visits, base.Visits)

	early := rc
	del.At = 0
	early.Mutations = graph.MutationStream{del}
	resEarly := runEngine(t, g, early)
	if resEarly.MutationsApplied != 1 {
		t.Fatalf("At=0 mutation applied %d times, want 1", resEarly.MutationsApplied)
	}
	if digestResult(resEarly) == digestResult(base) {
		t.Fatal("deleting a visited vertex's edge at At=0 left the run unchanged")
	}
}

// TestMutationStreamRejected guards validation at both construction
// entry points: malformed streams fail NewEngine and NewArray with
// ErrInvalidConfig before any state is built.
func TestMutationStreamRejected(t *testing.T) {
	g, _ := mutTestGraph(t, false)
	overCap := graph.MutationStream{}
	for j := 0; j < 40; j++ { // degree 8 + 40 > the 47-edge dense threshold
		overCap = append(overCap, graph.Mutation{Op: graph.OpInsertEdge, Src: 7, Dst: graph.VertexID(j)})
	}
	bad := map[string]graph.MutationStream{
		"time-unsorted": {
			{At: 5, Op: graph.OpInsertEdge, Src: 3, Dst: 4},
			{At: 1, Op: graph.OpInsertEdge, Src: 3, Dst: 5},
		},
		"negative-time":   {{At: -5, Op: graph.OpInsertEdge, Src: 3, Dst: 4}},
		"missing-edge":    {{Op: graph.OpDeleteEdge, Src: 3, Dst: 3}},
		"vertex-range":    {{Op: graph.OpInsertEdge, Src: mutNV, Dst: 0}},
		"unknown-op":      {{Op: "rewire", Src: 1, Dst: 2}},
		"weight-on-plain": {{Op: graph.OpInsertEdge, Src: 1, Dst: 2, Weight: 1.5}},
		"degree-cap":      overCap,
	}
	for name, ms := range bad {
		t.Run(name, func(t *testing.T) {
			rc := mutConfig(false)
			rc.Mutations = ms
			if _, err := NewEngine(g, rc); !errors.Is(err, errs.ErrInvalidConfig) {
				t.Fatalf("NewEngine: %v, want ErrInvalidConfig", err)
			}
			rc.Cfg.Boards = 2
			if _, err := NewArray(g, rc); !errors.Is(err, errs.ErrInvalidConfig) {
				t.Fatalf("NewArray: %v, want ErrInvalidConfig", err)
			}
		})
	}
}

// TestMutationEmptyStreamKeepsGoldenDigest is the acceptance guard that
// the feature is fully nil-gated: a zero-length (but non-nil) stream runs
// the classic static path and reproduces the pinned golden digest byte
// for byte — no golden was re-captured for this change.
func TestMutationEmptyStreamKeepsGoldenDigest(t *testing.T) {
	g := testGraph(t)
	rc := goldenConfig()
	rc.Mutations = graph.MutationStream{}
	res := runEngine(t, g, rc)
	if got := digestResult(res); got != goldenDigest {
		t.Fatalf("empty mutation stream moved the golden digest:\n got %s\nwant %s", got, goldenDigest)
	}
	if res.MutationsApplied != 0 {
		t.Fatalf("empty stream applied %d mutations", res.MutationsApplied)
	}
}

// TestMutationBatchAtOneInstant drives the applier's batching: one
// mid-run instant carries mutations on three sources with mixed-sign net
// deltas — +2 on a low vertex, a degree-neutral rewire in the middle, −1
// on a high vertex — so one batch rewrites three runs whose degrees move
// both ways, and a later single insert rewrites a fourth. No event may see
// the instant partly applied. After the run the engine's view of the
// graph must equal a Builder rebuild of the final edge list, every block's
// SumOutDeg its vertices' out-degree sum, and every board's counting edge
// filter a fresh one over that graph; permuting the instant's mutations of
// different sources must leave the run unchanged.
func TestMutationBatchAtOneInstant(t *testing.T) {
	g, edges := mutTestGraph(t, false)
	for _, tc := range []struct {
		name   string
		spec   walk.Spec
		boards int
	}{
		{name: "unbiased", spec: walk.Spec{Kind: walk.Unbiased, Length: 6}},
		{name: "unbiased-2boards", spec: walk.Spec{Kind: walk.Unbiased, Length: 6}, boards: 2},
		{name: "secondorder", spec: walk.Spec{Kind: walk.SecondOrder, Length: 6, P: 0.5, Q: 2}},
		{name: "secondorder-2boards", spec: walk.Spec{Kind: walk.SecondOrder, Length: 6, P: 0.5, Q: 2}, boards: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rc := mutConfig(false)
			rc.Spec = tc.spec
			rc.Cfg.Boards = tc.boards
			base := runEngine(t, g, rc)
			at, later := int64(base.Time)/4, int64(base.Time)/2
			ins3a := graph.Mutation{At: at, Op: graph.OpInsertEdge, Src: 3, Dst: 9}
			ins3b := graph.Mutation{At: at, Op: graph.OpInsertEdge, Src: 3, Dst: 200}
			del100 := graph.Mutation{At: at, Op: graph.OpDeleteEdge, Src: 100, Dst: mutDst(100, 3)}
			ins100 := graph.Mutation{At: at, Op: graph.OpInsertEdge, Src: 100, Dst: 5}
			del200 := graph.Mutation{At: at, Op: graph.OpDeleteEdge, Src: 200, Dst: mutDst(200, 7)}
			tail := graph.Mutation{At: later, Op: graph.OpInsertEdge, Src: 250, Dst: 0}

			run := func(ms graph.MutationStream) (*Result, *Engine) {
				rc := rc
				rc.Mutations = ms
				var e *Engine
				rc.CheckpointEvery = 1
				rc.OnProgress = func(p Progress) {
					if c := e.mutCursor; c > 0 && c < 5 {
						t.Fatalf("event at %d saw %d of the instant's 5 mutations", p.Now, c)
					}
				}
				e, err := NewEngine(g, rc)
				if err != nil {
					t.Fatalf("NewEngine: %v", err)
				}
				res, err := e.RunContext(context.Background())
				if err != nil {
					t.Fatalf("RunContext: %v", err)
				}
				if res.MutationsApplied != uint64(len(ms)) {
					t.Fatalf("applied %d of %d mutations", res.MutationsApplied, len(ms))
				}
				return res, e
			}
			ms := graph.MutationStream{ins3a, del100, del200, ins3b, ins100, tail}
			res, e := run(ms)

			want := buildMutGraph(t, applyStreamToEdges(t, edges, ms), false)
			if view := viewCSR(e); !slices.Equal(view.Offsets, want.Offsets) || !slices.Equal(view.Edges, want.Edges) {
				t.Fatal("engine's view of the graph after the run differs from a Builder rebuild of the final edge list")
			}
			for i, b := range e.part.Blocks {
				if b.Dense {
					continue
				}
				var deg uint64
				for v := b.LowVertex; v <= b.HighVertex; v++ {
					deg += want.OutDegree(v)
				}
				if b.SumOutDeg != deg {
					t.Fatalf("block %d SumOutDeg %d, want %d", i, b.SumOutDeg, deg)
				}
			}
			if tc.spec.Kind == walk.SecondOrder {
				fresh := partition.EdgeFilterCounting(want, 0.01, int(want.NumEdges())+1)
				if !reflect.DeepEqual(e.edgeFilterC, fresh) {
					t.Fatal("counting edge filter differs from a fresh one over the rebuilt graph")
				}
			}

			perm, _ := run(graph.MutationStream{del200, del100, ins3a, ins100, ins3b, tail})
			if got, want := digestResult(perm), digestResult(res); got != want {
				t.Fatalf("permuting one instant's mutations across sources moved the run:\n got %s\nwant %s", got, want)
			}
			assertSameVisits(t, perm.Visits, res.Visits)
			if digestResult(res) == digestResult(base) {
				t.Fatal("the mid-run batch left the run unchanged; pick busier vertices")
			}
		})
	}
}

// TestMutationBatchOverflowFailsAtIndex pins the failure contract of a
// batched instant: a block overflow at one mutation fails the run naming
// that mutation's stream index, with every earlier mutation of the batch
// applied in full (graph and attribution) and none after it — as if the
// batch had been applied one mutation at a time.
func TestMutationBatchOverflowFailsAtIndex(t *testing.T) {
	g, edges := mutTestGraph(t, false)
	rc := mutConfig(false)
	at := int64(runEngine(t, g, rc).Time) / 4
	// Block 0 (vertices 0..4) has slack for three inserts; the fourth on
	// vertex 3, stream index 4, overflows it.
	rc.Mutations = graph.MutationStream{
		{At: at, Op: graph.OpInsertEdge, Src: 100, Dst: 1},
		{At: at, Op: graph.OpInsertEdge, Src: 3, Dst: 20},
		{At: at, Op: graph.OpInsertEdge, Src: 3, Dst: 21},
		{At: at, Op: graph.OpInsertEdge, Src: 3, Dst: 22},
		{At: at, Op: graph.OpInsertEdge, Src: 3, Dst: 23},
		{At: at, Op: graph.OpInsertEdge, Src: 200, Dst: 2},
	}
	e, err := NewEngine(g, rc)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if _, err := e.RunContext(context.Background()); err == nil || !strings.Contains(err.Error(), "core: mutation 4: ") {
		t.Fatalf("RunContext: %v, want a block overflow at mutation 4", err)
	}
	want := buildMutGraph(t, applyStreamToEdges(t, edges, rc.Mutations[:4]), false)
	if view := viewCSR(e); !slices.Equal(view.Offsets, want.Offsets) || !slices.Equal(view.Edges, want.Edges) {
		t.Fatal("failed batch did not leave exactly its first four mutations applied")
	}
	var applied uint64
	for _, be := range e.boards {
		applied += be.res.MutationsApplied
	}
	if applied != 4 {
		t.Fatalf("failed run counted %d applied mutations, want 4", applied)
	}
}
