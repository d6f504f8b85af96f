package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"

	"flashwalker/internal/core"
	"flashwalker/internal/errs"
	"flashwalker/internal/graph"
	"flashwalker/internal/harness"
)

// mutationProbe inspects a registry dataset and returns an existing edge
// whose source vertex is safely below the partitioning's dense-vertex
// threshold, so deleting and re-inserting it is always a valid stream, plus
// a destination that is NOT an out-neighbor (for delete-must-exist tests).
func mutationProbe(t *testing.T, name string) (src, dst, missing graph.VertexID, weighted bool) {
	t.Helper()
	reg := NewRegistry()
	g, ds, err := reg.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	pc := harness.FlashWalkerConfig(ds, core.AllOptions(), 500, 1).PartCfg
	cap := pc.EdgesPerBlock(g.Weighted())
	n := g.NumVertices()
	for v := graph.VertexID(0); uint64(v) < n; v++ {
		if d := g.OutDegree(v); d >= 1 && uint64(d)+1 < cap {
			adj := g.OutEdges(v)
			src, dst = v, adj[0]
			// The adjacency is sorted; the first gap is a missing edge.
			missing = graph.VertexID(0)
			for _, w := range adj {
				if w != missing {
					break
				}
				missing++
			}
			return src, dst, missing, g.Weighted()
		}
	}
	t.Fatalf("dataset %q has no sparse vertex with out-edges", name)
	return 0, 0, 0, false
}

// insertWeight returns a weight valid for an insert on the probed graph.
func insertWeight(weighted bool) float32 {
	if weighted {
		return 1
	}
	return 0
}

// TestManagerMutationJob runs a FlashWalker job with a mutation stream
// through the manager: the At == 0 prefix (a delete/re-insert pair on a
// real edge) must be applied and reported in the result.
func TestManagerMutationJob(t *testing.T) {
	src, dst, _, weighted := mutationProbe(t, "TT-S")
	m := newTestManager(t, Config{Workers: 1})
	defer m.Close()
	ms := graph.MutationStream{
		{At: 0, Op: graph.OpDeleteEdge, Src: src, Dst: dst},
		{At: 0, Op: graph.OpInsertEdge, Src: src, Dst: dst, Weight: insertWeight(weighted)},
	}
	j, err := m.Submit(JobSpec{Graph: "TT-S", NumWalks: 500, Seed: 1, Mutations: ms})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	st := j.Status()
	if st.State != StateDone {
		t.Fatalf("state %s, error %q", st.State, st.Error)
	}
	if st.Result.Completed+st.Result.DeadEnded != 500 {
		t.Fatalf("bad result: %+v", st.Result)
	}
	if st.Result.MutationsApplied != uint64(len(ms)) {
		t.Fatalf("mutations_applied = %d, want %d", st.Result.MutationsApplied, len(ms))
	}
}

// TestManagerMutationSubmitValidation proves every malformed stream is
// rejected at submission with the typed invalid-config error — a 400 at
// the HTTP layer, never an asynchronous worker failure.
func TestManagerMutationSubmitValidation(t *testing.T) {
	src, dst, missing, weighted := mutationProbe(t, "TT-S")
	m := newTestManager(t, Config{Workers: 1})
	defer m.Close()
	w := insertWeight(weighted)
	badWeight := float32(1.5)
	if weighted {
		badWeight = 0 // weighted graphs require a positive insert weight
	}
	overlong := make(graph.MutationStream, maxMutations+1)
	bad := map[string]JobSpec{
		"time-unsorted": {Graph: "TT-S", Mutations: graph.MutationStream{
			{At: 10, Op: graph.OpInsertEdge, Src: src, Dst: dst, Weight: w},
			{At: 5, Op: graph.OpInsertEdge, Src: src, Dst: dst, Weight: w},
		}},
		"negative-time": {Graph: "TT-S", Mutations: graph.MutationStream{
			{At: -1, Op: graph.OpInsertEdge, Src: src, Dst: dst, Weight: w},
		}},
		"unknown-op": {Graph: "TT-S", Mutations: graph.MutationStream{
			{Op: "rewire", Src: src, Dst: dst},
		}},
		"missing-edge-delete": {Graph: "TT-S", Mutations: graph.MutationStream{
			{Op: graph.OpDeleteEdge, Src: src, Dst: missing},
		}},
		"weight-mismatch": {Graph: "TT-S", Mutations: graph.MutationStream{
			{Op: graph.OpInsertEdge, Src: src, Dst: dst, Weight: badWeight},
		}},
		"vertex-out-of-range": {Graph: "TT-S", Mutations: graph.MutationStream{
			{Op: graph.OpInsertEdge, Src: 1<<32 - 2, Dst: dst, Weight: w},
		}},
		"baseline-with-stream": {Kind: KindGraphWalker, Graph: "TT-S", Mutations: graph.MutationStream{
			{Op: graph.OpInsertEdge, Src: src, Dst: dst, Weight: w},
		}},
		"overlong-stream": {Graph: "TT-S", Mutations: overlong},
	}
	for name, spec := range bad {
		if _, err := m.Submit(spec); !errors.Is(err, errs.ErrInvalidConfig) {
			t.Errorf("%s: accepted (err=%v)", name, err)
		}
	}
}

// TestServiceMutationHTTP400 drives the HTTP surface: a malformed stream in
// the submission body is a 400 with the invalid_config code.
func TestServiceMutationHTTP400(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1})
	body := strings.NewReader(`{"graph":"TT-S","mutations":[{"at_ns":-1,"op":"insert","src":0,"dst":0}]}`)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "invalid_config" {
		t.Fatalf("error code %q, want invalid_config", env.Error.Code)
	}
}

// TestDeepWalkMutatedCorpusKey is the service-level regression test for the
// corpus-cache key bug: a corpus generated on a mutated graph must never be
// served for an unmutated job or a differently mutated one — the mutation
// stream hash is part of the cache key.
func TestDeepWalkMutatedCorpusKey(t *testing.T) {
	src, dst, _, _ := mutationProbe(t, "TT-S")
	m := newTestManager(t, Config{Workers: 1})
	defer m.Close()

	plain := JobSpec{Kind: KindDeepWalk, Graph: "TT-S", Seed: 7, WalksPerVertex: 1, WalkLength: 4}
	mutated := plain
	mutated.Mutations = graph.MutationStream{{Op: graph.OpDeleteEdge, Src: src, Dst: dst}}

	run := func(spec JobSpec) *JobResult {
		t.Helper()
		j, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
		st := j.Status()
		if st.State != StateDone {
			t.Fatalf("state %s, error %q", st.State, st.Error)
		}
		return st.Result
	}

	r1 := run(plain)
	if r1.CorpusCached || m.CorpusEngineRuns() != 1 {
		t.Fatalf("plain job: cached=%v runs=%d", r1.CorpusCached, m.CorpusEngineRuns())
	}
	// Before the key fix this submission hit the plain job's cache entry
	// and never invoked the engine — the mutated graph was ignored.
	r2 := run(mutated)
	if r2.CorpusCached {
		t.Fatal("mutated job was served the unmutated corpus from the cache")
	}
	if m.CorpusEngineRuns() != 2 {
		t.Fatalf("mutated job did not run the engine (runs=%d)", m.CorpusEngineRuns())
	}
	if r2.CorpusSHA256 == r1.CorpusSHA256 {
		t.Fatal("deleting a walked edge left the corpus byte-identical")
	}
	// Resubmissions hit their own entries; the counter stays put.
	if r := run(mutated); !r.CorpusCached || r.CorpusSHA256 != r2.CorpusSHA256 {
		t.Fatalf("mutated resubmission missed its cache entry: %+v", r)
	}
	if r := run(plain); !r.CorpusCached || r.CorpusSHA256 != r1.CorpusSHA256 {
		t.Fatalf("plain resubmission missed its cache entry: %+v", r)
	}
	if m.CorpusEngineRuns() != 2 {
		t.Fatalf("cache hits invoked the engine (runs=%d)", m.CorpusEngineRuns())
	}
}

// TestJobSpecRefusesWideVertex: a submitted mutation naming a vertex past
// the 4-byte range is refused as the spec decodes (400 bad_request), and
// one naming 2^32-1 or 2^32-2 when validated against the graph (400
// invalid_config); none is read as a smaller vertex.
func TestJobSpecRefusesWideVertex(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1})
	for id, code := range map[string]string{
		"4294967294": "invalid_config",
		"4294967295": "invalid_config",
		"4294967296": "bad_request",
		"4294967297": "bad_request",
	} {
		for _, m := range []string{`"src":` + id + `,"dst":0`, `"src":0,"dst":` + id} {
			body := json.RawMessage(`{"graph":"TT-S","num_walks":10,"mutations":[{"at_ns":0,"op":"insert",` + m + `}]}`)
			resp, b := postJSON(t, srv.URL+"/v1/jobs", body)
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), `"code":"`+code+`"`) {
				t.Errorf("mutation {%s}: status %d, body %s; want 400 %s", m, resp.StatusCode, b, code)
			}
		}
	}
}
