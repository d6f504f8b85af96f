package walk

import (
	"context"
	"fmt"
	"sort"

	"flashwalker/internal/graph"
	"flashwalker/internal/rng"
)

// This file implements the random-walk applications the paper's
// introduction motivates FlashWalker with: Personalized PageRank, SimRank,
// DeepWalk corpus generation, node2vec's second-order walks, and graphlet
// (wedge-closure) sampling. They are reference CPU implementations built
// on the same Spec/Run machinery the simulated engines execute, so the
// engines' outputs can be validated against them.

// PPREstimate approximates the Personalized PageRank vector of source by
// Monte-Carlo: numWalks restart walks with restart probability alpha; the
// visit frequencies converge to the PPR scores. The returned vector sums
// to 1 (dead-end visits included).
func PPREstimate(g *graph.Graph, source graph.VertexID, numWalks int, alpha float64, seed uint64) ([]float64, error) {
	if source >= g.NumVertices() {
		return nil, fmt.Errorf("walk: source %d out of range", source)
	}
	if numWalks <= 0 {
		return nil, fmt.Errorf("walk: numWalks %d <= 0", numWalks)
	}
	if alpha <= 0 || alpha >= 1 {
		return nil, fmt.Errorf("walk: alpha %v outside (0,1)", alpha)
	}
	spec := Spec{Kind: Restart, Length: 1 << 14, StopProb: alpha}
	ws := NewWalks(spec, []graph.VertexID{source}, numWalks)
	st, err := RunContext(context.Background(), g, spec, ws, seed, nil)
	if err != nil {
		return nil, err
	}
	total := float64(st.TotalHops) + float64(st.Started)
	out := make([]float64, g.NumVertices())
	for v, n := range st.Visits {
		out[v] = float64(n) / total
	}
	return out, nil
}

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
	if u >= g.NumVertices() || v >= g.NumVertices() {
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

// DeepWalkCorpus generates the DeepWalk training corpus: walksPerVertex
// unbiased walks of the given length from every vertex, returned as vertex
// paths ("sentences").
func DeepWalkCorpus(g *graph.Graph, walksPerVertex int, length uint32, seed uint64) ([][]graph.VertexID, error) {
	if walksPerVertex <= 0 || length == 0 {
		return nil, fmt.Errorf("walk: walksPerVertex/length must be positive")
	}
	spec := Spec{Kind: Unbiased, Length: length}
	starts := AllStarts(g)
	ws := NewWalks(spec, starts, len(starts)*walksPerVertex)
	corpus := make([][]graph.VertexID, 0, len(ws))
	_, err := RunContext(context.Background(), g, spec, ws, seed, func(i int, path []graph.VertexID) {
		corpus = append(corpus, append([]graph.VertexID(nil), path...))
	})
	if err != nil {
		return nil, err
	}
	return corpus, nil
}

// Node2VecWalks generates node2vec's second-order biased walks (Grover &
// Leskovec, KDD'16) with return parameter p and in-out parameter q, using
// KnightKing-style rejection sampling: a uniform neighbor proposal is
// accepted with probability w/wMax where w is 1/p for returning to the
// previous vertex, 1 for a neighbor of the previous vertex, and 1/q
// otherwise. This is the *dynamic* walk class of §II-A (the sampling
// distribution depends on walk state).
func Node2VecWalks(g *graph.Graph, p, q float64, walksPerVertex int, length uint32, seed uint64) ([][]graph.VertexID, error) {
	if p <= 0 || q <= 0 {
		return nil, fmt.Errorf("walk: p/q must be positive")
	}
	if walksPerVertex <= 0 || length == 0 {
		return nil, fmt.Errorf("walk: walksPerVertex/length must be positive")
	}
	wReturn, wCommon, wOut := 1/p, 1.0, 1/q
	wMax := wReturn
	if wCommon > wMax {
		wMax = wCommon
	}
	if wOut > wMax {
		wMax = wOut
	}

	root := rng.New(seed)
	var corpus [][]graph.VertexID
	n := g.NumVertices()
	for start := graph.VertexID(0); start < n; start++ {
		for k := 0; k < walksPerVertex; k++ {
			r := root.Derive(uint64(start)*1000 + uint64(k))
			path := []graph.VertexID{start}
			cur := start
			prev := graph.VertexID(n) // sentinel: no previous vertex yet
			for step := uint32(0); step < length; step++ {
				deg := g.OutDegree(cur)
				if deg == 0 {
					break
				}
				var next graph.VertexID
				if prev == n {
					// First hop is plain uniform.
					next = g.OutEdges(cur)[r.Uint64n(deg)]
				} else {
					next = sampleSecondOrder(g, r, cur, prev, deg, wReturn, wCommon, wOut, wMax)
				}
				path = append(path, next)
				prev, cur = cur, next
			}
			corpus = append(corpus, path)
		}
	}
	return corpus, nil
}

// sampleSecondOrder draws one node2vec transition by rejection sampling.
func sampleSecondOrder(g *graph.Graph, r *rng.RNG, cur, prev graph.VertexID, deg uint64,
	wReturn, wCommon, wOut, wMax float64) graph.VertexID {
	prevAdj := g.OutEdges(prev)
	for {
		cand := g.OutEdges(cur)[r.Uint64n(deg)]
		var w float64
		switch {
		case cand == prev:
			w = wReturn
		case containsSorted(prevAdj, cand):
			w = wCommon
		default:
			w = wOut
		}
		if w >= wMax || r.Float64() < w/wMax {
			return cand
		}
	}
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

// WedgeClosure estimates the global clustering coefficient (the graphlet
// concentration of triangles among wedges) by sampling: pick a random
// vertex with degree >= 2, walk to two distinct random neighbors, and
// check whether they are connected.
func WedgeClosure(g *graph.Graph, samples int, seed uint64) (float64, error) {
	if samples <= 0 {
		return 0, fmt.Errorf("walk: samples %d <= 0", samples)
	}
	r := rng.New(seed)
	// Collect vertices with degree >= 2 once.
	var centers []graph.VertexID
	for v := graph.VertexID(0); v < g.NumVertices(); v++ {
		if g.OutDegree(v) >= 2 {
			centers = append(centers, v)
		}
	}
	if len(centers) == 0 {
		return 0, nil
	}
	closed := 0
	for i := 0; i < samples; i++ {
		c := centers[r.Intn(len(centers))]
		adj := g.OutEdges(c)
		a := adj[r.Intn(len(adj))]
		b := adj[r.Intn(len(adj))]
		for b == a {
			b = adj[r.Intn(len(adj))]
		}
		if containsSorted(g.OutEdges(a), b) || containsSorted(g.OutEdges(b), a) {
			closed++
		}
	}
	return float64(closed) / float64(samples), nil
}
