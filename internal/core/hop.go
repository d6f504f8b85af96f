package core

import (
	"flashwalker/internal/graph"
	"flashwalker/internal/partition"
	"flashwalker/internal/rng"
	"flashwalker/internal/sim"
	"flashwalker/internal/walk"
)

// hopOutcome is a fully decided walk update: the walk's next state, whether
// it terminates, and the extra updater operations beyond the flat
// OpsPerUpdate (ITS binary-search steps for biased walks).
type hopOutcome struct {
	next     wstate
	terminal bool
	deadEnd  bool
	extraOps int
	// filterProbes counts edge-bloom-filter membership queries the
	// second-order sampler issued (each is a DRAM access; chip-level
	// updaters additionally pay a channel-bus round trip).
	filterProbes int
}

// decideHop computes a walk update. The decision is made at dispatch time
// (before the updater's service interval elapses) so the service time can
// include the data-dependent ITS cost; the simulation stays deterministic
// because every draw comes from the walk's private RNG stream (wstate.rng),
// making the trajectory independent of which tier updates the walk and of
// any fault-induced timing shifts.
func (e *boardEngine) decideHop(st wstate) hopOutcome {
	deg := e.g.OutDegree(st.w.Cur)
	if deg == 0 {
		return hopOutcome{next: st, terminal: true, deadEnd: true}
	}
	out := st
	r := &out.rng
	var idx uint64
	var extra, probes int
	if st.denseBlock >= 0 {
		// Pre-walking already chose the edge (§III-D); the updater just
		// dereferences it.
		idx = st.denseEdge
	} else {
		idx, extra, probes = e.chooseNextEdge(r, st, deg)
	}
	out.prev = st.w.Cur
	out.w.Cur = e.g.OutEdges(st.w.Cur)[idx]
	out.w.Hop--
	out.clearTags()
	if e.res.Visits != nil {
		e.res.Visits[out.w.Cur]++
	}
	return hopOutcome{
		next:         out,
		terminal:     e.spec.TerminatesAfterHop(r, &out.w),
		extraOps:     extra,
		filterProbes: probes,
	}
}

// chooseNextEdge draws st's next edge index for a vertex of degree deg from
// r (the walk's own stream). Factored out of decideHop so the board's dense
// pre-walk (route.go) consumes the stream exactly as a direct update would:
// a dense vertex can also sit inside a non-dense block's vertex range, and
// whether such a walk is pre-walked or updated in place is timing-dependent,
// so both paths must make identical draws.
func (e *boardEngine) chooseNextEdge(r *rng.RNG, st wstate, deg uint64) (idx uint64, extra, probes int) {
	switch {
	case e.spec.Kind == walk.SecondOrder && st.prev != noPrev:
		// Dynamic (node2vec) sampling: rejection with the DRAM-resident
		// edge Bloom filter standing in for the previous vertex's
		// adjacency (which may live in an unloaded subgraph).
		var rejects int
		idx, probes, rejects = e.spec.ChooseEdgeSecondOrderFiltered(
			r, e.g.OutEdges(st.w.Cur), st.prev,
			func(cand graph.VertexID) bool {
				return e.edgeFilter.Contains(partition.EdgeKey(st.prev, cand))
			})
		extra = 2*probes + rejects
	case e.alias != nil:
		// Alias sampling: O(1) per hop regardless of degree, at 2x the
		// per-edge metadata.
		idx = e.alias.ChooseEdge(r, st.w.Cur)
		extra = 1
	default:
		idx, extra = e.spec.ChooseEdge(r, deg, e.g.OutCumWeights(st.w.Cur))
	}
	return idx, extra, probes
}

// chargeFilterProbes accounts the DRAM accesses (and, for chip-level
// updaters, the channel-bus round trips) of a hop's edge-filter queries.
func (e *boardEngine) chargeFilterProbes(h hopOutcome, chip *chipAccel) {
	if h.filterProbes == 0 {
		return
	}
	const probeBytes = 8
	e.dr.Read(int64(h.filterProbes)*probeBytes, nil)
	e.res.FilterProbes += uint64(h.filterProbes)
	if chip != nil {
		// Request up, response down: one small transfer each way.
		e.ssd.TransferChannel(chip.chip.Channel, int64(h.filterProbes)*2*e.cfg.CommandBytes, nil)
	}
}

// updateService converts a hop decision into an updater service time at the
// given cycle length.
func (e *boardEngine) updateService(cycle sim.Time, h hopOutcome) sim.Time {
	return sim.Time(e.cfg.OpsPerUpdate+h.extraOps) * cycle
}
