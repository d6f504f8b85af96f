package main

import (
	"fmt"
	"sort"

	"flashwalker/internal/graph"
	"flashwalker/internal/rng"
)

// rewireMaxDegree caps the out-degree of a rewired source, so a rewire
// stays a small splice in the CSR and never touches a dense vertex.
const rewireMaxDegree = 64

// rewireStream returns n degree-neutral rewires as 2n mutations: each
// deletes an existing out-edge of a source with out-degree 1..64 and, at
// the same at_ns, inserts a replacement edge from that source. Times are
// spread uniformly over (0, spanNS], so every mutation lands mid-run.
// Insert-only streams would overflow fixed-capacity graph blocks; a
// degree-neutral stream keeps every block's size unchanged.
func rewireStream(g *graph.Graph, n int, spanNS int64, seed uint64) (graph.MutationStream, error) {
	r := rng.New(seed ^ 0x5eed_7e1e)
	nv := g.NumVertices()
	// adj holds the current adjacency of every source touched so far, so a
	// later delete only names an edge that still exists.
	adj := map[graph.VertexID][]graph.VertexID{}
	times := make([]int64, n)
	for i := range times {
		times[i] = 1 + int64(r.Uint64n(uint64(spanNS)))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	ms := make(graph.MutationStream, 0, 2*n)
	for _, at := range times {
		var src graph.VertexID
		for tries := 0; ; tries++ {
			if tries > 1_000_000 {
				return nil, fmt.Errorf("rewire: no vertex with out-degree 1..%d", rewireMaxDegree)
			}
			src = graph.VertexID(r.Uint64n(nv))
			if d := g.OutDegree(src); d >= 1 && d <= rewireMaxDegree {
				break
			}
		}
		cur, ok := adj[src]
		if !ok {
			cur = append([]graph.VertexID(nil), g.OutEdges(src)...)
		}
		k := r.Uint64n(uint64(len(cur)))
		old := cur[k]
		repl := graph.VertexID(r.Uint64n(nv))
		cur[k] = repl
		adj[src] = cur
		ms = append(ms,
			graph.Mutation{At: at, Op: graph.OpDeleteEdge, Src: src, Dst: old},
			graph.Mutation{At: at, Op: graph.OpInsertEdge, Src: src, Dst: repl})
	}
	return ms, nil
}
