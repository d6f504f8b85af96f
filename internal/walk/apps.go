package walk

import (
	"fmt"
	"sort"

	"flashwalker/internal/graph"
	"flashwalker/internal/rng"
)

// Host-side helpers for the random-walk applications the examples run on
// top of the engines: SimRank by random-surfer pairs, and TopK to rank the
// visit scores a run returns.

// TopK returns the indices of the k largest scores, descending (ties by
// lower index first).
func TopK(scores []float64, k int) []graph.VertexID {
	type sv struct {
		v graph.VertexID
		s float64
	}
	all := make([]sv, 0, len(scores))
	for v, s := range scores {
		if s > 0 {
			all = append(all, sv{graph.VertexID(v), s})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].s != all[j].s {
			return all[i].s > all[j].s
		}
		return all[i].v < all[j].v
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]graph.VertexID, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].v
	}
	return out
}

// SimRank estimates the SimRank similarity s(u,v) (Jeh & Widom, KDD'02)
// by the random-surfer-pair interpretation: two reverse walks of decay C
// meet at step t with contribution C^t. This forward-walk variant runs
// pairs of walks on the graph as given (use a reversed graph for the exact
// in-link semantics).
func SimRank(g *graph.Graph, u, v graph.VertexID, pairs int, length uint32, c float64, seed uint64) (float64, error) {
	if uint64(u) >= g.NumVertices() || uint64(v) >= g.NumVertices() {
		return 0, fmt.Errorf("walk: vertex out of range")
	}
	if pairs <= 0 || length == 0 {
		return 0, fmt.Errorf("walk: pairs/length must be positive")
	}
	if c <= 0 || c >= 1 {
		return 0, fmt.Errorf("walk: decay %v outside (0,1)", c)
	}
	if u == v {
		return 1, nil
	}
	r := rng.New(seed)
	var sum float64
	for i := 0; i < pairs; i++ {
		a, b := u, v
		decay := 1.0
		for t := uint32(0); t < length; t++ {
			da, db := g.OutDegree(a), g.OutDegree(b)
			if da == 0 || db == 0 {
				break
			}
			a = g.OutEdges(a)[r.Uint64n(da)]
			b = g.OutEdges(b)[r.Uint64n(db)]
			decay *= c
			if a == b {
				sum += decay
				break
			}
		}
	}
	return sum / float64(pairs), nil
}
