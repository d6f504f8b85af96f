package core

import (
	"fmt"

	"flashwalker/internal/errs"
	"flashwalker/internal/graph"
	"flashwalker/internal/partition"
	"flashwalker/internal/sim"
)

// Dynamic-graph mutation support. A RunConfig.Mutations stream is applied
// strictly between simulated events through the kernel's applier hook
// (sim.SetApplier): a mutation stamped T is applied immediately before the
// first event at time >= T, so it is visible to that event and invisible to
// everything earlier. The At == 0 prefix applies at construction, before
// hot-subgraph selection and walk seeding.
//
// Every derived structure is maintained incrementally and provably matches
// a from-scratch rebuild over the mutated graph:
//
//   - the CSR arrays (graph.ApplyMutation — splice-equals-rebuild, proven
//     in internal/graph),
//   - per-block degree tables and byte sizes (Partitioned.ApplyEdgeDelta;
//     the block skeleton itself is frozen — stream validation caps every
//     touched vertex below the dense threshold, and overflowing a block
//     fails the run rather than silently re-partitioning),
//   - the second-order edge Bloom filter (bloom.Counting — counts are
//     additive over the edge multiset, proven in internal/bloom),
//   - per-vertex alias tables (GraphAlias.RebuildVertex — a table is a
//     pure function of one vertex's weight vector).
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

// cloneForMutations validates the stream and returns a private copy of the
// graph to mutate; with no stream the caller's graph is used directly (the
// classic zero-copy static path).
func cloneForMutations(g *graph.Graph, rc RunConfig) (*graph.Graph, error) {
	if len(rc.Mutations) == 0 {
		return g, nil
	}
	if err := ValidateMutations(g, rc.PartCfg, rc.Mutations); err != nil {
		return nil, err
	}
	return g.Clone(), nil
}

// applyMutationPrefix applies the stream's At == 0 prefix to the graph and
// partition stats, returning the applied count. These mutations are
// "before the run": later construction steps (hot-subgraph selection, edge
// filter, alias tables, walk seeding) all see the patched graph.
func applyMutationPrefix(g *graph.Graph, part *partition.Partitioned, ms graph.MutationStream) (int, error) {
	n := 0
	for ; n < len(ms) && ms[n].At == 0; n++ {
		if err := applyShared(g, part, ms[n]); err != nil {
			return n, err
		}
	}
	return n, nil
}

// applyShared patches the structures every board shares: the CSR arrays
// and the per-block degree/byte stats.
func applyShared(g *graph.Graph, part *partition.Partitioned, m graph.Mutation) error {
	delta := int64(1)
	if m.Op == graph.OpDeleteEdge {
		delta = -1
	}
	if err := part.ApplyEdgeDelta(m.Src, delta); err != nil {
		return err
	}
	return g.ApplyMutation(m)
}

// applyIndexes patches this board's private derived indexes after the
// shared graph was mutated: the counting edge filter and the mutated
// vertex's alias table. Every board applies this for every mutation — each
// board owns its own filter and tables.
func (e *boardEngine) applyIndexes(m graph.Mutation) error {
	if e.edgeFilterC != nil {
		key := partition.EdgeKey(m.Src, m.Dst)
		if m.Op == graph.OpInsertEdge {
			e.edgeFilterC.Add(key)
		} else {
			e.edgeFilterC.Remove(key)
		}
	}
	if e.alias != nil {
		return e.alias.RebuildVertex(e.g, m.Src)
	}
	return nil
}

// applyMutation applies one mutation to the whole run: the shared graph and
// partition stats once, then every board's private indexes. The board
// owning the mutated vertex's home partition gets the attribution count —
// a sharded mutation lands on its owning board.
func (e *Engine) applyMutation(m graph.Mutation) error {
	if err := applyShared(e.g, e.part, m); err != nil {
		return err
	}
	for _, be := range e.boards {
		if err := be.applyIndexes(m); err != nil {
			return err
		}
	}
	e.ownerOf(m.Src).res.MutationsApplied++
	return nil
}

// applyMutations is the applier hook: it applies every not-yet-applied
// mutation stamped at or before the next event's time. An apply failure
// (block overflow) fails the run.
func (e *Engine) applyMutations(next sim.Time) {
	for e.mutCursor < len(e.muts) && sim.Time(e.muts[e.mutCursor].At) <= next {
		if err := e.applyMutation(e.muts[e.mutCursor]); err != nil {
			e.fail(fmt.Errorf("core: mutation %d: %w", e.mutCursor, err))
			e.eng.ClearApplier()
			return
		}
		e.mutCursor++
	}
}
