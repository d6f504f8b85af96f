package walk

import (
	"fmt"

	"flashwalker/internal/graph"
	"flashwalker/internal/rng"
)

// AliasTable samples an index proportionally to a weight vector in O(1)
// using Vose's alias method — the constant-time alternative to the paper's
// inverse-transform-sampling binary search. KnightKing uses alias tables
// for static biased walks; the trade-off is 2x the per-edge metadata
// (probability + alias entries) against O(log deg) saved per sample.
type AliasTable struct {
	prob  []float64
	alias []int32
}

// NewAliasTable builds a table for the given non-negative weights. The sum
// must be positive and the count must fit in int32.
func NewAliasTable(weights []float32) (*AliasTable, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("walk: alias table over no weights")
	}
	if n > 1<<31-1 {
		return nil, fmt.Errorf("walk: alias table too large (%d)", n)
	}
	var sum float64
	for i, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("walk: negative weight at %d", i)
		}
		sum += float64(w)
	}
	if sum <= 0 {
		return nil, fmt.Errorf("walk: zero total weight")
	}
	t := &AliasTable{
		prob:  make([]float64, n),
		alias: make([]int32, n),
	}
	// Vose's algorithm: partition scaled probabilities into small/large,
	// pair each small cell with a large donor.
	scaled := make([]float64, n)
	var small, large []int32
	for i, w := range weights {
		scaled[i] = float64(w) * float64(n) / sum
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		t.prob[s] = scaled[s]
		t.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Numerical leftovers are full cells.
	for _, i := range large {
		t.prob[i] = 1
	}
	for _, i := range small {
		t.prob[i] = 1
	}
	return t, nil
}

// Len reports the number of outcomes.
func (t *AliasTable) Len() int { return len(t.prob) }

// Sample draws one index in O(1): a uniform cell plus one biased coin.
func (t *AliasTable) Sample(r *rng.RNG) int {
	i := r.Intn(len(t.prob))
	if r.Float64() < t.prob[i] {
		return i
	}
	return int(t.alias[i])
}

// SizeBytes reports the table's metadata footprint (8B prob + 4B alias per
// outcome).
func (t *AliasTable) SizeBytes() int64 { return int64(len(t.prob)) * 12 }

// GraphAlias holds per-vertex alias tables for a weighted graph, the
// storage layout an alias-sampling accelerator would keep next to each
// subgraph's edges.
type GraphAlias struct {
	tables []*AliasTable // nil for zero-degree vertices
	bytes  int64
}

// NewGraphAlias precomputes alias tables for every vertex of a weighted
// graph (unweighted graphs don't need them — uniform sampling is already
// O(1)).
func NewGraphAlias(g *graph.Graph) (*GraphAlias, error) {
	if !g.Weighted() {
		return nil, fmt.Errorf("walk: alias tables need a weighted graph")
	}
	ga := &GraphAlias{tables: make([]*AliasTable, g.NumVertices())}
	for v := graph.VertexID(0); uint64(v) < g.NumVertices(); v++ {
		w := g.OutWeights(v)
		if len(w) == 0 {
			continue
		}
		t, err := NewAliasTable(w)
		if err != nil {
			return nil, fmt.Errorf("walk: vertex %d: %w", v, err)
		}
		ga.tables[v] = t
		ga.bytes += t.SizeBytes()
	}
	return ga, nil
}

// RebuildVertex recomputes v's alias table from w, its current
// out-weights — the incremental maintenance hook for graph mutations. A
// table is a pure function of one vertex's weight vector, so rebuilding
// only the mutated vertex leaves the whole structure identical to
// NewGraphAlias over the mutated graph.
func (ga *GraphAlias) RebuildVertex(v graph.VertexID, w []float32) error {
	if t := ga.tables[v]; t != nil {
		ga.bytes -= t.SizeBytes()
		ga.tables[v] = nil
	}
	if len(w) == 0 {
		return nil
	}
	t, err := NewAliasTable(w)
	if err != nil {
		return fmt.Errorf("walk: vertex %d: %w", v, err)
	}
	ga.tables[v] = t
	ga.bytes += t.SizeBytes()
	return nil
}

// ChooseEdge samples an out-edge index of v in O(1). v must have
// out-edges.
func (ga *GraphAlias) ChooseEdge(r *rng.RNG, v graph.VertexID) uint64 {
	t := ga.tables[v]
	if t == nil {
		panic("walk: alias ChooseEdge on dead-end vertex")
	}
	return uint64(t.Sample(r))
}

// SizeBytes reports the total alias metadata footprint across the graph.
func (ga *GraphAlias) SizeBytes() int64 { return ga.bytes }
