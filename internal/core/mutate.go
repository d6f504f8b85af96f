package core

import (
	"fmt"
	"slices"

	"flashwalker/internal/errs"
	"flashwalker/internal/graph"
	"flashwalker/internal/partition"
	"flashwalker/internal/sim"
	"flashwalker/internal/walk"
)

// Dynamic-graph mutation support. A RunConfig.Mutations stream is applied
// strictly between simulated events through the kernel's applier hook
// (sim.SetApplier): a mutation stamped T is applied immediately before the
// first event at time >= T, so it is visible to that event and invisible to
// everything earlier. The At == 0 prefix applies at construction, before
// hot-subgraph selection and walk seeding.
//
// The caller's graph is never written: many runs may share it (a dataset
// registry, a daemon's cached graphs, concurrent engines), and the
// simulated device keeps its subgraphs read-only too. A run with a stream
// reads the graph through an engine-private graph.Overlay instead, which
// holds the rewritten run of every source the stream has touched so far
// and reads every other vertex straight from the shared graph.
//
// Every caller applies the largest batch it has through applyBatch: the
// applier hook drains every mutation due before the next event, the
// constructor the whole At == 0 prefix, and resume the whole replayed
// prefix onto a fresh overlay. Nothing observes the graph between the
// mutations of one batch, so applying it at once is indistinguishable
// from applying it one mutation at a time.
//
// Every derived structure is maintained incrementally and provably matches
// a from-scratch rebuild over the mutated graph:
//
//   - the touched sources' runs (graph.Overlay.Apply — each rewritten
//     exactly as graph.ApplyMutations splices it, which internal/graph
//     proves equal to a rebuild),
//   - per-block degree tables and byte sizes (Partitioned.ApplyEdgeDelta;
//     the block skeleton itself is frozen — stream validation caps every
//     touched vertex below the dense threshold, and overflowing a block
//     fails the run rather than silently re-partitioning),
//   - the second-order edge Bloom filter (bloom.Counting — counts are
//     additive over the edge multiset, proven in internal/bloom),
//   - per-vertex alias tables (GraphAlias.RebuildVertex — a table is a
//     pure function of one vertex's weight vector, so one rebuild per
//     touched source and batch suffices),
//   - the in-degrees that rank hot and failover blocks (inDegreeSums —
//     the shared graph's counts plus the applied mutations' deltas).
//
// The run builds its edge filter and alias tables once, over the shared
// graph, and then takes the At == 0 prefix as one more batch; every board
// reads the same ones.
//
// TestMutationMetamorphic in this package closes the loop end to end:
// running with an At == 0 stream is bit-identical to running over the
// rebuilt mutated graph with no stream.

// ValidateMutations checks a stream against the initial graph with the
// partitioning's dense-vertex threshold as the degree cap. The engine runs
// it at construction, and the service layer's normalize at submission so a
// bad stream is a 400, never an async worker failure.
func ValidateMutations(g *graph.Graph, pc partition.Config, ms graph.MutationStream) error {
	if len(ms) == 0 {
		return nil
	}
	var maxDeg uint64
	if eb := pc.EdgeBytes(g.Weighted()); eb > 0 && pc.BlockBytes > int64(pc.IDBytes) {
		maxDeg = pc.EdgesPerBlock(g.Weighted())
	}
	if err := ms.Validate(g, maxDeg); err != nil {
		return fmt.Errorf("core: mutation stream: %v: %w", err, errs.ErrInvalidConfig)
	}
	return nil
}

// applyBatch applies ms, consecutive entries of the stream, to the whole
// run in three steps: the per-block stats one mutation at a time in stream
// order, the overlay in one batch, then the run's derived indexes. It
// reports how many of ms it applied: when a block overflows at ms[n],
// ms[:n] are applied in full and the overflow is returned, exactly as if
// the batch had been applied one mutation at a time.
func (e *Engine) applyBatch(ms []graph.Mutation) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	n := 0
	var err error
	for ; n < len(ms); n++ {
		delta := int64(1)
		if ms[n].Op == graph.OpDeleteEdge {
			delta = -1
		}
		if err = e.part.ApplyEdgeDelta(ms[n].Src, delta); err != nil {
			break
		}
	}
	ms = ms[:n]
	if gerr := e.ov.Apply(ms); gerr != nil {
		return 0, gerr
	}
	e.mutSrcs = e.mutSrcs[:0]
	for _, m := range ms {
		e.mutSrcs = append(e.mutSrcs, m.Src)
	}
	slices.Sort(e.mutSrcs)
	e.mutSrcs = slices.Compact(e.mutSrcs)
	if ierr := e.applyIndexes(ms, e.mutSrcs); ierr != nil {
		return 0, ierr
	}
	if len(e.boards) > 0 {
		// The board owning a mutated vertex's home partition gets the
		// attribution count: a sharded mutation lands on its owning board.
		for _, m := range ms {
			e.ownerOf(m.Src).res.MutationsApplied++
		}
	}
	return n, err
}

// buildIndexes builds the run's derived indexes over the shared graph: the
// edge filter of a second-order run and the alias tables of an
// alias-sampled one.
func (e *Engine) buildIndexes(rc RunConfig) error {
	if rc.Spec.Kind == walk.SecondOrder {
		if len(rc.Mutations) > 0 {
			// Size for the edge count after the whole stream: identical
			// geometry to the plain filter a run over the fully mutated
			// graph would build, so probe answers — and trajectories —
			// match the rebuild leg of the metamorphic tests.
			final := int(int64(e.g.NumEdges())+rc.Mutations.NetEdges(0)) + 1
			e.edgeFilterC = partition.EdgeFilterCounting(e.g, 0.01, final)
			e.edgeFilter = e.edgeFilterC
		} else {
			e.edgeFilter = partition.EdgeFilter(e.g, 0.01)
		}
	}
	if rc.UseAliasSampling {
		ga, err := walk.NewGraphAlias(e.g)
		if err != nil {
			return err
		}
		e.alias = ga
	}
	return nil
}

// applyIndexes patches the run's derived indexes after the overlay took a
// batch: the counting edge filter per mutation, and the alias table of
// each distinct mutated source (srcs) once.
func (e *Engine) applyIndexes(ms []graph.Mutation, srcs []graph.VertexID) error {
	if e.edgeFilterC != nil {
		for _, m := range ms {
			key := partition.EdgeKey(m.Src, m.Dst)
			if m.Op == graph.OpInsertEdge {
				e.edgeFilterC.Add(key)
			} else {
				e.edgeFilterC.Remove(key)
			}
		}
	}
	if e.alias != nil {
		for _, v := range srcs {
			if err := e.alias.RebuildVertex(v, e.ov.OutWeights(v)); err != nil {
				return err
			}
		}
	}
	return nil
}

// applyMutations is the applier hook: it applies every not-yet-applied
// mutation stamped at or before the next event's time as one batch. An
// apply failure (block overflow) fails the run. The hook removes itself
// once the stream is spent or the run has failed, so the events after the
// last mutation pay nothing for it.
func (e *Engine) applyMutations(next sim.Time) {
	end := e.mutCursor
	for end < len(e.muts) && sim.Time(e.muts[end].At) <= next {
		end++
	}
	if end == e.mutCursor {
		return
	}
	n, err := e.applyBatch(e.muts[e.mutCursor:end])
	e.mutCursor += n
	if err != nil {
		e.fail(fmt.Errorf("core: mutation %d: %w", e.mutCursor, err))
	}
	if err != nil || e.mutCursor == len(e.muts) {
		e.eng.ClearApplier()
	}
}

// inDegreeSums is Partitioned.InDegreeSums over the graph as the run sees
// it now: the shared graph's cached in-degrees plus the per-destination
// deltas of the mutations applied so far. Hot-subgraph selection reads it
// after the At == 0 prefix, and a degraded chip's failover ranking at the
// instant the chip degrades.
func (e *Engine) inDegreeSums() []uint64 {
	in := e.g.InDegrees()
	if e.mutCursor > 0 {
		in = slices.Clone(in)
		for _, m := range e.muts[:e.mutCursor] {
			if m.Op == graph.OpInsertEdge {
				in[m.Dst]++
			} else {
				in[m.Dst]--
			}
		}
	}
	return e.part.InDegreeSums(in)
}

// outEdges returns v's out-edges as this run sees them: through the
// overlay on a run with a mutation stream, straight from the shared graph
// otherwise.
func (e *boardEngine) outEdges(v graph.VertexID) []graph.VertexID {
	if e.ov != nil {
		return e.ov.OutEdges(v)
	}
	return e.g.OutEdges(v)
}

// outDegree reports v's out-degree as this run sees it.
func (e *boardEngine) outDegree(v graph.VertexID) uint64 { return uint64(len(e.outEdges(v))) }

// outCumWeights returns v's cumulative weights as this run sees them, or
// nil on an unweighted graph.
func (e *boardEngine) outCumWeights(v graph.VertexID) []float32 {
	if e.ov != nil {
		return e.ov.OutCumWeights(v)
	}
	return e.g.OutCumWeights(v)
}
