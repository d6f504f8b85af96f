package graph

// Overlay is one reader's mutable view of a Graph that it shares with
// others and never writes. A batch of mutations rewrites the runs of the
// sources it touches exactly as ApplyMutations would rewrite them in the
// CSR, but into the overlay; a per-vertex mark tells a read of such a
// source to take its rewritten run and every other read to go straight to
// the base graph. Each vertex's edges, weights and cumulative weights
// therefore equal those of a private clone that took the same batches
// through ApplyMutations, bit for bit, while the overlay holds only the
// touched sources' runs.
type Overlay struct {
	base *Graph
	mark []uint64         // bit v set: v's run is in runs
	runs map[VertexID]run // the rewritten run of every marked vertex
	sc   mutScratch
}

// run is one rewritten adjacency run; weights and cum are nil on
// unweighted graphs. A rewrite reuses its storage while the new run fits.
type run struct {
	edges        []VertexID
	weights, cum []float32
}

// NewOverlay returns an overlay over g with no vertex rewritten.
func NewOverlay(g *Graph) *Overlay {
	return &Overlay{
		base: g,
		mark: make([]uint64, (g.NumVertices()+63)/64),
		runs: map[VertexID]run{},
	}
}

// NumVertices reports the base graph's vertex count, which mutations
// never change.
func (o *Overlay) NumVertices() uint64 { return o.base.NumVertices() }

// Weighted reports whether the base graph carries edge weights.
func (o *Overlay) Weighted() bool { return o.base.Weighted() }

func (o *Overlay) marked(v VertexID) bool { return o.mark[v>>6]&(1<<(v&63)) != 0 }

// OutEdges returns the out-neighbors of v as the overlay sees them
// (aliasing the overlay's or the base graph's storage).
func (o *Overlay) OutEdges(v VertexID) []VertexID {
	if o.marked(v) {
		return o.runs[v].edges
	}
	return o.base.OutEdges(v)
}

// OutWeights returns the edge weights of v as the overlay sees them, or
// nil if unweighted.
func (o *Overlay) OutWeights(v VertexID) []float32 {
	if o.marked(v) {
		return o.runs[v].weights
	}
	return o.base.OutWeights(v)
}

// OutCumWeights returns the cumulative weight list of v as the overlay
// sees it, or nil if unweighted.
func (o *Overlay) OutCumWeights(v VertexID) []float32 {
	if o.marked(v) {
		return o.runs[v].cum
	}
	return o.base.OutCumWeights(v)
}

// Apply applies ms with exactly the result of Graph.ApplyMutations on a
// clone that took every earlier batch: the same checks, in the same order,
// with the same error, and on success the same runs. A rejected batch
// leaves the overlay untouched.
func (o *Overlay) Apply(ms []Mutation) error {
	if len(ms) == 0 {
		return nil
	}
	sc := &o.sc
	if err := sc.rewrite(o, ms); err != nil {
		return err
	}
	for _, t := range sc.runs {
		r := o.runs[t.src]
		end := t.from + t.deg
		r.edges = append(r.edges[:0], sc.edges[t.from:end]...)
		if o.base.Weighted() {
			r.weights = append(r.weights[:0], sc.weights[t.from:end]...)
			r.cum = append(r.cum[:0], sc.cum[t.from:end]...)
		}
		o.runs[t.src] = r
		o.mark[t.src>>6] |= 1 << (t.src & 63)
	}
	return nil
}
