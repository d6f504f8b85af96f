// Package walk defines random-walk state and algorithms.
//
// A walk's state follows the paper (§III-B): the ID of its source vertex
// (w.src), its current vertex (w.cur), and its remaining hop budget
// (w.hop). The walk updater's job each step is: draw a random number, turn
// it into an out-edge index, move the walk, decrement the hop counter.
//
// Three algorithm families from §II-A are supported:
//
//   - Unbiased: the next hop is uniform over out-neighbors.
//   - Biased: the next hop is drawn proportionally to edge weights via
//     inverse transform sampling (ITS) — a binary search over the vertex's
//     pre-computed cumulative weight list, costing extra updater cycles.
//   - Restart: unbiased movement with a per-hop termination probability
//     (the "terminates according to some probability" condition; this is
//     the PPR walk when the walk restarts at its source).
package walk

import (
	"context"
	"fmt"

	"flashwalker/internal/errs"
	"flashwalker/internal/graph"
	"flashwalker/internal/rng"
)

// Walk is one walker's state.
type Walk struct {
	Src graph.VertexID // starting vertex, w.src
	Cur graph.VertexID // current vertex, w.cur
	Hop uint32         // remaining hops, w.hop
}

// StateBytes is the modelled storage footprint of a walk record in
// buffers and on flash (8B src + 8B cur + 4B hop). It is the simulated
// record's size, not the host's: walk.Walk holds 4-byte IDs in 12 bytes.
const StateBytes = 20

// DenseStateBytes is the footprint of a walk buffered for a dense subgraph:
// cur is implied by the buffer entry, so it is not stored (paper §III-D).
const DenseStateBytes = 12

// Kind selects the neighbor-sampling distribution / termination rule.
type Kind int

const (
	// Unbiased walks sample neighbors uniformly and stop after Length hops.
	Unbiased Kind = iota
	// Biased walks sample neighbors by edge weight (ITS) and stop after
	// Length hops. Requires a weighted graph.
	Biased
	// Restart walks move unbiased and additionally stop with probability
	// StopProb after every hop (dynamic termination).
	Restart
	// SecondOrder walks sample by node2vec's p/q weights: the transition
	// distribution depends on the walk's previous vertex (the paper's
	// *dynamic* walk class). Sampling uses rejection: propose a uniform
	// neighbor, accept with probability w/wMax where w is 1/P for
	// returning, 1 for a common neighbor, 1/Q otherwise.
	SecondOrder
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Unbiased:
		return "unbiased"
	case Biased:
		return "biased"
	case Restart:
		return "restart"
	case SecondOrder:
		return "second-order"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Spec configures a random-walk algorithm.
type Spec struct {
	Kind Kind
	// Length is the hop budget per walk. The paper fixes 6 for all
	// experiments. For Restart it acts as a cap (0 = uncapped is invalid;
	// use a generous cap instead).
	Length uint32
	// StopProb is the per-hop termination probability for Restart walks.
	StopProb float64
	// P and Q are node2vec's return and in-out parameters (SecondOrder
	// walks only).
	P, Q float64
}

// Validate checks the spec against the graph it will run on.
func (s Spec) Validate(g *graph.Graph) error {
	if s.Length == 0 {
		return fmt.Errorf("walk: zero Length: %w", errs.ErrInvalidConfig)
	}
	switch s.Kind {
	case Unbiased:
	case Biased:
		if !g.Weighted() {
			return fmt.Errorf("walk: biased walk on unweighted graph: %w", errs.ErrInvalidConfig)
		}
	case Restart:
		if s.StopProb <= 0 || s.StopProb >= 1 {
			return fmt.Errorf("walk: restart StopProb %v outside (0,1): %w", s.StopProb, errs.ErrInvalidConfig)
		}
	case SecondOrder:
		if s.P <= 0 || s.Q <= 0 {
			return fmt.Errorf("walk: second-order P/Q must be positive (got %v, %v): %w", s.P, s.Q, errs.ErrInvalidConfig)
		}
	default:
		return fmt.Errorf("walk: unknown kind %d: %w", s.Kind, errs.ErrInvalidConfig)
	}
	return nil
}

// SecondOrderWeights returns the three rejection-sampling weights
// (return, common-neighbor, other) and their maximum.
func (s Spec) SecondOrderWeights() (wReturn, wCommon, wOut, wMax float64) {
	wReturn, wCommon, wOut = 1/s.P, 1, 1/s.Q
	wMax = wReturn
	if wCommon > wMax {
		wMax = wCommon
	}
	if wOut > wMax {
		wMax = wOut
	}
	return
}

// ChooseEdgeSecondOrder draws one second-order transition for a walk at
// cur that arrived from prev, by rejection sampling with an exact
// neighbor test on g. It returns the chosen edge index, the number of
// prev-adjacency membership probes the modelled hardware issues (one per
// proposal other than prev, whether or not the host needed the answer),
// and the number of rejected proposals (both feed the hardware cost
// model). cur must have out-edges.
func (s Spec) ChooseEdgeSecondOrder(g *graph.Graph, r *rng.RNG, cur, prev graph.VertexID) (idx uint64, probes, rejects int) {
	return s.chooseSecondOrder(r, g.OutEdges(cur), prev, func(cand graph.VertexID) bool {
		return containsSorted(g.OutEdges(prev), cand)
	})
}

// containsSorted binary-searches a sorted adjacency list.
func containsSorted(adj []graph.VertexID, v graph.VertexID) bool {
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := (lo + hi) / 2
		if adj[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(adj) && adj[lo] == v
}

// ChooseEdgeSecondOrderFiltered is ChooseEdgeSecondOrder with a
// caller-supplied neighbor test (e.g. a Bloom filter standing in for the
// previous vertex's adjacency in the in-storage engine).
func (s Spec) ChooseEdgeSecondOrderFiltered(r *rng.RNG, edges []graph.VertexID, prev graph.VertexID,
	isNeighbor func(graph.VertexID) bool) (idx uint64, probes, rejects int) {
	return s.chooseSecondOrder(r, edges, prev, isNeighbor)
}

// chooseSecondOrder is the rejection-sampling core; isNeighbor answers
// "is cand an out-neighbor of prev" (exact or approximate). Each proposal
// draws Uint64n, then a Float64 dart unless its class weight is wMax, and
// probes counts every proposal that is not prev, as if each were asked.
// isNeighbor itself runs only when its answer decides the hop: a
// candidate other than prev is common (wCommon) or not (wOut), so when both
// weights are below wMax a dart below both thresholds accepts under either
// answer and one at or above both rejects under either; only a dart
// between them asks. With both weights at wMax every such proposal
// accepts unasked, and with one at wMax the answer decides whether a dart
// is thrown at all, so it is asked first.
func (s Spec) chooseSecondOrder(r *rng.RNG, edges []graph.VertexID, prev graph.VertexID,
	isNeighbor func(graph.VertexID) bool) (idx uint64, probes, rejects int) {
	wReturn, wCommon, wOut, wMax := s.SecondOrderWeights()
	tReturn, tCommon, tOut := wReturn/wMax, wCommon/wMax, wOut/wMax
	lo, hi := min(tCommon, tOut), max(tCommon, tOut)
	commonHigh := tCommon > tOut // between lo and hi, a neighbour accepts
	sure := wCommon >= wMax && wOut >= wMax
	dartFirst := wCommon < wMax && wOut < wMax
	deg := uint64(len(edges))
	for {
		i := r.Uint64n(deg)
		cand := edges[i]
		var accept bool
		switch {
		case cand == prev:
			accept = wReturn >= wMax || r.Float64() < tReturn
		case sure:
			probes++
			accept = true
		case dartFirst:
			probes++
			u := r.Float64()
			accept = u < lo || u < hi && isNeighbor(cand) == commonHigh
		default:
			probes++
			w, t := wOut, tOut
			if isNeighbor(cand) {
				w, t = wCommon, tCommon
			}
			accept = w >= wMax || r.Float64() < t
		}
		if accept {
			return i, probes, rejects
		}
		rejects++
	}
}

// ChooseEdge picks an out-edge index for a vertex with deg out-edges and
// cumulative weight list cum (nil when unweighted). It returns the chosen
// index and the number of extra hardware operations beyond the flat
// per-walk cost (the ITS binary search steps for biased walks). deg must
// be > 0.
func (s Spec) ChooseEdge(r *rng.RNG, deg uint64, cum []float32) (idx uint64, extraOps int) {
	if deg == 0 {
		panic("walk: ChooseEdge on dead-end vertex")
	}
	if s.Kind != Biased || cum == nil {
		return r.Uint64n(deg), 0
	}
	// Inverse transform sampling: find the smallest idx with
	// rnd < cum[idx], where rnd is uniform in [0, sumWeight).
	sum := cum[deg-1]
	rnd := float32(r.Float64()) * sum
	lo, hi := uint64(0), deg-1
	for lo < hi {
		extraOps++
		mid := (lo + hi) / 2
		if cum[mid] <= rnd {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, extraOps
}

// TerminatesAfterHop reports whether the walk stops after completing a hop,
// given its post-hop state. Applies the hop budget and, for Restart, the
// stochastic stop.
func (s Spec) TerminatesAfterHop(r *rng.RNG, w *Walk) bool {
	if w.Hop == 0 {
		return true
	}
	if s.Kind == Restart && r.Bool(s.StopProb) {
		return true
	}
	return false
}

// NewWalks creates n walks starting at the given vertices (cycled if n >
// len(starts)), each with the spec's hop budget.
func NewWalks(spec Spec, starts []graph.VertexID, n int) []Walk {
	if len(starts) == 0 || n <= 0 {
		return nil
	}
	out := make([]Walk, n)
	for i := range out {
		v := starts[i%len(starts)]
		out[i] = Walk{Src: v, Cur: v, Hop: spec.Length}
	}
	return out
}

// UniformStarts draws n start vertices uniformly at random.
func UniformStarts(g *graph.Graph, n int, seed uint64) []graph.VertexID {
	if g.NumVertices() == 0 || n <= 0 {
		return nil
	}
	r := rng.New(seed)
	out := make([]graph.VertexID, n)
	for i := range out {
		out[i] = graph.VertexID(r.Uint64n(g.NumVertices()))
	}
	return out
}

// AllStarts returns every vertex once (GraphWalker's "walks from all
// vertices" mode).
func AllStarts(g *graph.Graph) []graph.VertexID {
	out := make([]graph.VertexID, g.NumVertices())
	for i := range out {
		out[i] = graph.VertexID(i)
	}
	return out
}

// Stats aggregates the outcome of a set of executed walks.
type Stats struct {
	Started    int
	Completed  int // exhausted the hop budget or stochastic stop
	DeadEnded  int // hit a zero-out-degree vertex
	TotalHops  uint64
	Visits     []uint64 // per-vertex visit counts (including the start)
	MaxVisited graph.VertexID
}

// NewStats allocates stats for a graph.
func NewStats(g *graph.Graph) *Stats {
	return &Stats{Visits: make([]uint64, g.NumVertices())}
}

// RecordVisit counts a visit to v.
func (st *Stats) RecordVisit(v graph.VertexID) {
	st.Visits[v]++
	if st.Visits[v] > st.Visits[st.MaxVisited] {
		st.MaxVisited = v
	}
}

// cancelCheckEvery is the walk interval between ctx checks in RunContext.
const cancelCheckEvery = 256

// RunContext executes walks directly on the graph (no hardware
// simulation). It is the reference implementation the simulated engines
// are validated against, and the workhorse behind the example
// applications. If trace is non-nil, it receives each walk's full vertex
// path. Cancellation is cooperative: ctx is checked between walks (every
// cancelCheckEvery of them), and on cancellation the partial Stats
// accumulated so far are returned with an error satisfying
// errors.Is(err, errs.ErrCanceled). Per-walk RNG streams are derived from
// (seed, walk index), so results are independent of execution order and
// the walks that did complete are identical to the same walks of an
// uncanceled run.
func RunContext(ctx context.Context, g *graph.Graph, spec Spec, walks []Walk, seed uint64, trace func(i int, path []graph.VertexID)) (*Stats, error) {
	if err := spec.Validate(g); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	root := rng.New(seed)
	st := NewStats(g)
	st.Started = len(walks)
	var path []graph.VertexID
	noPrev := graph.VertexID(g.NumVertices()) // sentinel: no previous vertex
	for i := range walks {
		if i%cancelCheckEvery == 0 && ctx.Err() != nil {
			return st, &errs.Canceled{Op: "walk", Finished: i, Total: len(walks), Cause: ctx.Err()}
		}
		w := walks[i]
		prev := noPrev
		r := root.Derive(uint64(i))
		if trace != nil {
			path = path[:0]
			path = append(path, w.Cur)
		}
		st.RecordVisit(w.Cur)
		for {
			deg := g.OutDegree(w.Cur)
			if deg == 0 {
				st.DeadEnded++
				break
			}
			var idx uint64
			if spec.Kind == SecondOrder && prev != noPrev {
				idx, _, _ = spec.ChooseEdgeSecondOrder(g, r, w.Cur, prev)
			} else {
				idx, _ = spec.ChooseEdge(r, deg, g.OutCumWeights(w.Cur))
			}
			prev = w.Cur
			w.Cur = g.OutEdges(w.Cur)[idx]
			w.Hop--
			st.TotalHops++
			st.RecordVisit(w.Cur)
			if trace != nil {
				path = append(path, w.Cur)
			}
			if spec.TerminatesAfterHop(r, &w) {
				st.Completed++
				break
			}
		}
		if trace != nil {
			trace(i, path)
		}
	}
	return st, nil
}
