package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"flashwalker/internal/errs"
)

// ReadEdgeList parses the whitespace-separated text edge-list format the
// paper's datasets ship in ("src dst" or "src dst weight" per line; '#'
// and '%' lines are comments). Vertex IDs may be sparse; they are used
// as-is, so numVertices is max(ID)+1. An ID past MaxVertices-1 is an
// error wrapping errs.ErrInvalidConfig.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	edges, numVertices, weighted, err := parseEdgeList(r)
	if err != nil {
		return nil, err
	}
	b := NewBuilder(numVertices)
	for _, e := range edges {
		if weighted {
			b.AddWeightedEdge(e.Src, e.Dst, e.Weight)
		} else {
			b.AddEdge(e.Src, e.Dst)
		}
	}
	return b.Build()
}

// parseEdgeList reads ReadEdgeList's format into its edges, the vertex
// count they imply and whether any line carried a weight.
func parseEdgeList(r io.Reader) ([]Edge, uint64, bool, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []Edge
	var maxID VertexID
	weighted := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, 0, false, fmt.Errorf("graph: line %d: need at least 2 fields", lineNo)
		}
		src, err := parseID(fields[0])
		if err != nil {
			return nil, 0, false, fmt.Errorf("graph: line %d: bad source: %w", lineNo, err)
		}
		dst, err := parseID(fields[1])
		if err != nil {
			return nil, 0, false, fmt.Errorf("graph: line %d: bad destination: %w", lineNo, err)
		}
		w := float32(1)
		if len(fields) >= 3 {
			wf, err := strconv.ParseFloat(fields[2], 32)
			if err != nil {
				return nil, 0, false, fmt.Errorf("graph: line %d: bad weight: %w", lineNo, err)
			}
			if wf < 0 {
				return nil, 0, false, fmt.Errorf("graph: line %d: negative weight", lineNo)
			}
			w = float32(wf)
			weighted = true
		}
		if src > maxID {
			maxID = src
		}
		if dst > maxID {
			maxID = dst
		}
		edges = append(edges, Edge{Src: src, Dst: dst, Weight: w})
	}
	if err := sc.Err(); err != nil {
		return nil, 0, false, fmt.Errorf("graph: reading edge list: %w", err)
	}
	if len(edges) == 0 {
		return nil, 0, false, fmt.Errorf("graph: empty edge list")
	}
	return edges, uint64(maxID) + 1, weighted, nil
}

// parseID parses a decimal vertex ID. An ID past MaxVertices-1 is an
// error wrapping errs.ErrInvalidConfig: its graph would have more than
// MaxVertices vertices.
func parseID(f string) (VertexID, error) {
	x, err := strconv.ParseUint(f, 10, 64)
	if err != nil {
		return 0, err
	}
	if x >= MaxVertices {
		return 0, fmt.Errorf("graph: vertex ID %d, at most %d: %w", x, MaxVertices-1, errs.ErrInvalidConfig)
	}
	return VertexID(x), nil
}

// WriteEdgeList writes the graph as a text edge list (with weights when
// present), the inverse of ReadEdgeList.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	fmt.Fprintf(bw, "# %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	for v := VertexID(0); uint64(v) < g.NumVertices(); v++ {
		edges := g.OutEdges(v)
		weights := g.OutWeights(v)
		for i, d := range edges {
			if weights != nil {
				fmt.Fprintf(bw, "%d %d %g\n", v, d, weights[i])
			} else {
				fmt.Fprintf(bw, "%d %d\n", v, d)
			}
		}
	}
	return bw.Flush()
}

// Reverse returns the transpose graph (every edge u->v becomes v->u,
// weights preserved). SimRank's in-link semantics and in-degree-based
// analyses use it.
func Reverse(g *Graph) *Graph {
	b := NewBuilder(g.NumVertices())
	for v := VertexID(0); uint64(v) < g.NumVertices(); v++ {
		edges := g.OutEdges(v)
		weights := g.OutWeights(v)
		for i, d := range edges {
			if weights != nil {
				b.AddWeightedEdge(d, v, weights[i])
			} else {
				b.AddEdge(d, v)
			}
		}
	}
	rg, err := b.Build()
	if err != nil {
		// Cannot happen: all endpoints come from a valid graph.
		panic(err)
	}
	return rg
}
