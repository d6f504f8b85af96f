package graph

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Dynamic-graph mutations: a deterministic, timestamped stream of edge
// inserts and deletes that the simulation applies strictly between events.
// The graph type stays "immutable" from the walkers' point of view: an
// engine applies its stream at event boundaries to a private Overlay over
// the shared graph, never concurrently with a hop decision, and a
// host-side caller that owns a Clone may splice it with ApplyMutations.
//
// Apply order is fully deterministic: an inserted edge lands at the upper
// bound of its destination's run in the (sorted) adjacency list, which is
// exactly where Builder.Build's per-vertex sort would put it, and a delete
// removes the last parallel edge of its (src, dst) pair. The per-vertex
// cumulative-weight run is recomputed left to right in the same float32
// order Builder uses, so a stream applied incrementally yields the same
// CSR arrays — bit for bit — as rebuilding the mutated edge list from
// scratch. (The one unspecified case is parallel *weighted* edges with
// distinct weights: Builder's adjacency sort is not stable, so their
// relative order is unspecified there too.)

// MutationOp names a mutation operation.
type MutationOp string

const (
	// OpInsertEdge adds one directed edge (src, dst) with the given weight
	// (weight must be 0 on unweighted graphs, positive on weighted ones).
	OpInsertEdge MutationOp = "insert"
	// OpDeleteEdge removes one directed edge (src, dst); the last parallel
	// edge of the pair when duplicates exist. Weight must be 0.
	OpDeleteEdge MutationOp = "delete"
)

// Mutation is one timestamped edge mutation. At is in simulated nanoseconds:
// a mutation at time T is visible to the first simulation event at time
// >= T and invisible to every event before it. At == 0 means "before the
// run": the mutation is visible everywhere, including to construction-time
// decisions such as hot-subgraph selection.
type Mutation struct {
	At     int64      `json:"at_ns"`
	Op     MutationOp `json:"op"`
	Src    VertexID   `json:"src"`
	Dst    VertexID   `json:"dst"`
	Weight float32    `json:"weight,omitempty"`
}

// MutationStream is a time-ordered mutation sequence. Equal timestamps
// apply in stream order.
type MutationStream []Mutation

// ValidateShape checks the graph-independent invariants of a stream:
// non-decreasing non-negative timestamps, recognized ops, and finite
// non-negative weights (zero on deletes). It never panics on arbitrary
// decoded input — the service fuzz target drives it directly.
func (ms MutationStream) ValidateShape() error {
	prev := int64(0)
	for i, m := range ms {
		if m.At < 0 {
			return fmt.Errorf("graph: mutation %d at negative time %d", i, m.At)
		}
		if m.At < prev {
			return fmt.Errorf("graph: mutation %d at %d before predecessor at %d (stream must be time-sorted)", i, m.At, prev)
		}
		prev = m.At
		switch m.Op {
		case OpInsertEdge:
			w := float64(m.Weight)
			if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
				return fmt.Errorf("graph: mutation %d has invalid weight %v", i, m.Weight)
			}
		case OpDeleteEdge:
			if m.Weight != 0 {
				return fmt.Errorf("graph: mutation %d deletes with non-zero weight %v", i, m.Weight)
			}
		default:
			return fmt.Errorf("graph: mutation %d has unknown op %q", i, m.Op)
		}
	}
	return nil
}

// Validate checks the full stream against the graph it will be applied to:
// shape, endpoint ranges, weight rules, delete-must-exist (multiset-aware
// across the stream), and — when maxDegree > 0 — that no touched vertex
// starts above or is pushed above maxDegree out-edges. The degree cap is
// how callers forbid mutations on dense vertices and density flips, both
// of which would move the frozen partition skeleton.
func (ms MutationStream) Validate(g *Graph, maxDegree uint64) error {
	if err := ms.ValidateShape(); err != nil {
		return err
	}
	if len(ms) == 0 {
		return nil
	}
	n := g.NumVertices()
	// Running per-vertex degree and per-pair parallel-edge deltas.
	degDelta := map[VertexID]int64{}
	pairDelta := map[[2]VertexID]int64{}
	for i, m := range ms {
		if uint64(m.Src) >= n || uint64(m.Dst) >= n {
			return fmt.Errorf("graph: mutation %d edge (%d,%d) outside %d vertices", i, m.Src, m.Dst, n)
		}
		deg := int64(g.OutDegree(m.Src)) + degDelta[m.Src]
		if maxDegree > 0 && uint64(g.OutDegree(m.Src)) > maxDegree {
			return fmt.Errorf("graph: mutation %d touches dense vertex %d (degree %d > %d)",
				i, m.Src, g.OutDegree(m.Src), maxDegree)
		}
		switch m.Op {
		case OpInsertEdge:
			if g.Weighted() {
				if m.Weight <= 0 {
					return fmt.Errorf("graph: mutation %d inserts weight %v into a weighted graph (must be > 0)", i, m.Weight)
				}
			} else if m.Weight != 0 {
				return fmt.Errorf("graph: mutation %d inserts weight %v into an unweighted graph (must be 0)", i, m.Weight)
			}
			if maxDegree > 0 && uint64(deg+1) > maxDegree {
				return fmt.Errorf("graph: mutation %d pushes vertex %d to %d out-edges, above the dense threshold %d",
					i, m.Src, deg+1, maxDegree)
			}
			degDelta[m.Src]++
			pairDelta[[2]VertexID{m.Src, m.Dst}]++
		case OpDeleteEdge:
			pair := [2]VertexID{m.Src, m.Dst}
			if int64(countParallel(g, m.Src, m.Dst))+pairDelta[pair] < 1 {
				return fmt.Errorf("graph: mutation %d deletes missing edge (%d,%d)", i, m.Src, m.Dst)
			}
			degDelta[m.Src]--
			pairDelta[pair]--
		}
	}
	return nil
}

// countParallel reports how many (src, dst) edges the graph holds, using
// the sorted adjacency invariant.
func countParallel(g *Graph, src, dst VertexID) int {
	adj := g.OutEdges(src)
	lo := sort.Search(len(adj), func(i int) bool { return adj[i] >= dst })
	hi := sort.Search(len(adj), func(i int) bool { return adj[i] > dst })
	return hi - lo
}

// NetEdges reports the stream's net edge-count change from entry `from`
// onward (inserts minus deletes).
func (ms MutationStream) NetEdges(from int) int64 {
	var net int64
	for _, m := range ms[from:] {
		if m.Op == OpInsertEdge {
			net++
		} else {
			net--
		}
	}
	return net
}

// Hash returns a SHA-256 over the stream's canonical binary encoding. The
// zero stream hashes to the zero array, so cache keys for mutation-free
// jobs are unchanged by the field's introduction.
func (ms MutationStream) Hash() [sha256.Size]byte {
	if len(ms) == 0 {
		return [sha256.Size]byte{}
	}
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, m := range ms {
		put(uint64(m.At))
		if m.Op == OpInsertEdge {
			put(0)
		} else {
			put(1)
		}
		put(uint64(m.Src))
		put(uint64(m.Dst))
		put(uint64(math.Float32bits(m.Weight)))
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// Clone returns a deep copy of the graph, for a host-side caller that
// applies a stream with ApplyMutations without writing a shared graph
// (dataset registries, caches). The copy shares the in-degree counts,
// which no one writes.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		Offsets: append([]uint64(nil), g.Offsets...),
		Edges:   append([]VertexID(nil), g.Edges...),
	}
	c.inDeg.Store(g.inDeg.Load())
	if g.Weights != nil {
		c.Weights = append([]float32(nil), g.Weights...)
	}
	if g.CumWeights != nil {
		c.CumWeights = append([]float32(nil), g.CumWeights...)
	}
	return c
}

// ApplyMutation applies one mutation in place; see ApplyMutations.
func (g *Graph) ApplyMutation(m Mutation) error { return g.ApplyMutations([]Mutation{m}) }

// ApplyMutations applies ms in place with exactly the result of applying
// them one at a time in stream order, keeping every CSR invariant: each
// adjacency run stays sorted, Offsets stay monotone, and every touched
// source's cumulative-weight run is recomputed left to right in Builder
// order. Callers own the graph exclusively; an engine that shares its
// graph applies its stream to an Overlay instead.
//
// The whole batch is checked before anything is written (see rewrite), so
// a rejected batch leaves the graph untouched and its error names the
// offending mutation's index. Each touched source's new run is built in
// scratch; every untouched segment between touched sources then moves
// once, by the cumulative degree delta of the runs before it, and Offsets
// change only where that delta is non-zero. A degree-neutral batch, such
// as a rewire's delete+insert, therefore costs its sources' degrees rather
// than a shift of the edge array.
func (g *Graph) ApplyMutations(ms []Mutation) error {
	if len(ms) == 0 {
		return nil
	}
	if g.mut == nil {
		g.mut = new(mutScratch)
	}
	if err := g.mut.rewrite(g, ms); err != nil {
		return err
	}
	g.inDeg.Store(nil)
	g.splice(g.mut)
	return nil
}

// runReader is what a batch rewrite reads of the graph it rewrites: a
// Graph, or an Overlay over one.
type runReader interface {
	NumVertices() uint64
	Weighted() bool
	OutEdges(v VertexID) []VertexID
	OutWeights(v VertexID) []float32
}

// mutScratch is the working space of a batch rewrite, kept by its owner
// (a Graph or an Overlay) so successive batches reuse it.
type mutScratch struct {
	order        []int        // batch indices grouped by source, stream order within a source
	runs         []touchedRun // one per touched source, ascending
	edges        []VertexID   // the touched sources' new runs, back to back
	weights, cum []float32    // parallel to edges on weighted graphs
}

// touchedRun locates one touched source's new run in the scratch arrays.
type touchedRun struct {
	src   VertexID
	from  int   // start in the scratch arrays
	deg   int   // new out-degree
	shift int64 // cumulative degree delta of this and every earlier touched source
}

// rewrite checks the whole batch against g — endpoint ranges, ops, insert
// weight kinds, and delete-must-exist against the running edge multiset —
// and builds in scratch the new run of every source it touches, grouped
// by source with a stable sort so each source takes its mutations in
// stream order. It writes nothing outside the scratch; an error names the
// first offending mutation's index.
func (sc *mutScratch) rewrite(g runReader, ms []Mutation) error {
	n := g.NumVertices()
	for i, m := range ms {
		if uint64(m.Src) >= n || uint64(m.Dst) >= n {
			return fmt.Errorf("graph: mutation %d edge (%d,%d) outside %d vertices", i, m.Src, m.Dst, n)
		}
		switch m.Op {
		case OpInsertEdge:
			if g.Weighted() == (m.Weight == 0) {
				return fmt.Errorf("graph: mutation %d insert weight %v does not match weighted=%v", i, m.Weight, g.Weighted())
			}
		case OpDeleteEdge:
		default:
			return fmt.Errorf("graph: mutation %d has unknown op %q", i, m.Op)
		}
	}
	sc.order = sc.order[:0]
	for i := range ms {
		sc.order = append(sc.order, i)
	}
	slices.SortStableFunc(sc.order, func(a, b int) int { return cmp.Compare(ms[a].Src, ms[b].Src) })
	sc.runs, sc.edges, sc.weights, sc.cum = sc.runs[:0], sc.edges[:0], sc.weights[:0], sc.cum[:0]
	bad := -1
	for k := 0; k < len(sc.order); {
		end := k + 1
		for end < len(sc.order) && ms[sc.order[end]].Src == ms[sc.order[k]].Src {
			end++
		}
		if i := sc.rebuildRun(g, ms, sc.order[k:end]); i >= 0 && (bad < 0 || i < bad) {
			bad = i
		}
		k = end
	}
	if bad >= 0 {
		return fmt.Errorf("graph: mutation %d deletes missing edge (%d,%d)", bad, ms[bad].Src, ms[bad].Dst)
	}
	return nil
}

// rebuildRun appends the new run of one source — its current run with
// idx's mutations (all on that source, in stream order) applied — and
// reports the first mutation deleting an edge the run lacks, or -1. An
// insert lands at the upper bound of its destination's run, where
// Builder's sort would place a fresh duplicate; a delete removes the last
// parallel edge of its pair.
func (sc *mutScratch) rebuildRun(g runReader, ms []Mutation, idx []int) int {
	src := ms[idx[0]].Src
	from := len(sc.edges)
	cur := g.OutEdges(src)
	sc.edges = append(sc.edges, cur...)
	w := g.Weighted()
	if w {
		sc.weights = append(sc.weights, g.OutWeights(src)...)
	}
	for _, i := range idx {
		m := ms[i]
		run := sc.edges[from:]
		at := from + sort.Search(len(run), func(j int) bool { return run[j] > m.Dst })
		if m.Op == OpInsertEdge {
			sc.edges = slices.Insert(sc.edges, at, m.Dst)
			if w {
				sc.weights = slices.Insert(sc.weights, at, m.Weight)
			}
			continue
		}
		if at == from || sc.edges[at-1] != m.Dst {
			return i
		}
		sc.edges = slices.Delete(sc.edges, at-1, at)
		if w {
			sc.weights = slices.Delete(sc.weights, at-1, at)
		}
	}
	if w {
		var acc float32
		for _, x := range sc.weights[from:] {
			acc += x
			sc.cum = append(sc.cum, acc)
		}
	}
	deg := len(sc.edges) - from
	shift := int64(deg) - int64(len(cur))
	if len(sc.runs) > 0 {
		shift += sc.runs[len(sc.runs)-1].shift
	}
	sc.runs = append(sc.runs, touchedRun{src: src, from: from, deg: deg, shift: shift})
	return -1
}

// splice lays the scratch runs into the CSR arrays — each array through
// the same spliceRuns, so every move carries Edges, Weights and
// CumWeights alike — then shifts Offsets where the cumulative delta is
// non-zero.
func (g *Graph) splice(sc *mutScratch) {
	g.Edges = spliceRuns(g.Edges, sc.edges, g.Offsets, sc.runs)
	if g.Weighted() {
		g.Weights = spliceRuns(g.Weights, sc.weights, g.Offsets, sc.runs)
		g.CumWeights = spliceRuns(g.CumWeights, sc.cum, g.Offsets, sc.runs)
	}
	for i, r := range sc.runs {
		if r.shift == 0 {
			continue
		}
		end := g.NumVertices()
		if i+1 < len(sc.runs) {
			end = uint64(sc.runs[i+1].src)
		}
		for v := uint64(r.src) + 1; v <= end; v++ {
			g.Offsets[v] = uint64(int64(g.Offsets[v]) + r.shift)
		}
	}
}

// spliceRuns returns s (a CSR array laid out by the old offsets) with each
// touched run replaced by its new run from scratch. The untouched segment
// after run i moves by runs[i].shift: left-moving segments move left to
// right and right-moving ones right to left, so no segment is overwritten
// before it has moved, and each moves once.
func spliceRuns[T any](s, scratch []T, offsets []uint64, runs []touchedRun) []T {
	oldLen := uint64(len(s))
	total := runs[len(runs)-1].shift
	if total > 0 {
		s = slices.Grow(s, int(total))[:int64(oldLen)+total]
	}
	move := func(i int) {
		lo, hi := offsets[runs[i].src+1], oldLen
		if i+1 < len(runs) {
			hi = offsets[runs[i+1].src]
		}
		copy(s[int64(lo)+runs[i].shift:], s[lo:hi])
	}
	for i := range runs {
		if runs[i].shift < 0 {
			move(i)
		}
	}
	for i := len(runs) - 1; i >= 0; i-- {
		if runs[i].shift > 0 {
			move(i)
		}
	}
	var before int64 // cumulative delta of the touched runs left of r
	for _, r := range runs {
		copy(s[int64(offsets[r.src])+before:], scratch[r.from:r.from+r.deg])
		before = r.shift
	}
	return s[:int64(oldLen)+total]
}
