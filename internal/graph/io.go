package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Binary format:
//
//	magic   [8]byte  "FWGRAPH1"
//	flags   uint64   bit0 = weighted
//	V       uint64   number of vertices
//	E       uint64   number of edges
//	offsets [V+1]uint64
//	edges   [E]uint64 (widened from the 4-byte VertexID)
//	weights [E]float32 (iff weighted)
const magic = "FWGRAPH1"

// Write serializes g to w in the binary format above.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	var flags uint64
	if g.Weighted() {
		flags |= 1
	}
	hdr := []uint64{flags, g.NumVertices(), g.NumEdges()}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, g.Offsets); err != nil {
		return err
	}
	// Edges stay 8 bytes on disk: each is widened on the way out.
	var buf [8]byte
	for _, d := range g.Edges {
		binary.LittleEndian.PutUint64(buf[:], uint64(d))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	if g.Weighted() {
		if err := binary.Write(bw, binary.LittleEndian, g.Weights); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read deserializes a graph written by Write and validates it.
func Read(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(br, got); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if string(got) != magic {
		return nil, fmt.Errorf("graph: bad magic %q", got)
	}
	var flags, v, e uint64
	for _, p := range []*uint64{&flags, &v, &e} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("graph: reading header: %w", err)
		}
	}
	if err := checkVertices("Read", v); err != nil {
		return nil, err
	}
	const maxReasonable = 1 << 33 // 8G entries; guards corrupt headers
	if e > maxReasonable {
		return nil, fmt.Errorf("graph: implausible header V=%d E=%d", v, e)
	}
	// Every array grows as its values arrive, so a header claiming more
	// than the input holds fails at the input's end rather than
	// allocating the claim.
	g := &Graph{}
	var err error
	if g.Offsets, err = readWords[uint64](br, v+1); err != nil {
		return nil, fmt.Errorf("graph: reading offsets: %w", err)
	}
	// Each 8-byte edge is checked against V before it is narrowed, so an
	// out-of-range ID is an error, never a smaller vertex.
	var buf [8 << 10]byte
	g.Edges = []VertexID{}
	for uint64(len(g.Edges)) < e {
		g.Edges = grow(g.Edges, e)
		chunk := buf[:8*min(cap(g.Edges)-len(g.Edges), len(buf)/8)]
		if _, err := io.ReadFull(br, chunk); err != nil {
			return nil, fmt.Errorf("graph: reading edges: %w", err)
		}
		for j := 0; j < len(chunk); j += 8 {
			d := binary.LittleEndian.Uint64(chunk[j:])
			if d >= v {
				return nil, fmt.Errorf("graph: edge %d targets %d >= %d vertices", len(g.Edges), d, v)
			}
			g.Edges = append(g.Edges, VertexID(d))
		}
	}
	if flags&1 != 0 {
		if g.Weights, err = readWords[float32](br, e); err != nil {
			return nil, fmt.Errorf("graph: reading weights: %w", err)
		}
		g.CumWeights = buildCumWeights(g.Offsets, g.Weights)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// grow returns s with room for at least one more element: its capacity
// doubles, from 64 Ki elements, up to n. s must be shorter than n.
func grow[T any](s []T, n uint64) []T {
	if len(s) < cap(s) {
		return s
	}
	g := make([]T, len(s), min(n, max(2*uint64(cap(s)), 1<<16)))
	copy(g, s)
	return g
}

// readWords reads n little-endian values of T, growing the slice with
// grow as they arrive.
func readWords[T uint64 | float32](r io.Reader, n uint64) ([]T, error) {
	out := []T{}
	for uint64(len(out)) < n {
		out = grow(out, n)
		chunk := out[len(out):cap(out)]
		if err := binary.Read(r, binary.LittleEndian, chunk); err != nil {
			return nil, err
		}
		out = out[:cap(out)]
	}
	return out, nil
}

// Save writes the graph to the named file.
func Save(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := Write(f, g); err != nil {
		return err
	}
	return f.Sync()
}

// Load reads a graph from the named file.
func Load(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// Stats summarizes a graph's degree distribution.
type Stats struct {
	NumVertices uint64
	NumEdges    uint64
	MaxOutDeg   uint64
	AvgOutDeg   float64
	// GiniOut in [0,1] measures out-degree skew (0 = uniform).
	GiniOut float64
	// ZeroOutDeg counts dead-end vertices.
	ZeroOutDeg uint64
}

// ComputeStats scans the graph once and returns its Stats.
func ComputeStats(g *Graph) Stats {
	s := Stats{NumVertices: g.NumVertices(), NumEdges: g.NumEdges()}
	if s.NumVertices == 0 {
		return s
	}
	degs := make([]uint64, s.NumVertices)
	for v := uint64(0); v < s.NumVertices; v++ {
		d := g.OutDegree(VertexID(v))
		degs[v] = d
		if d > s.MaxOutDeg {
			s.MaxOutDeg = d
		}
		if d == 0 {
			s.ZeroOutDeg++
		}
	}
	s.AvgOutDeg = float64(s.NumEdges) / float64(s.NumVertices)
	s.GiniOut = gini(degs)
	return s
}

// gini computes the Gini coefficient of the given non-negative values.
func gini(vals []uint64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	sorted := make([]float64, n)
	var sum float64
	for i, v := range vals {
		sorted[i] = float64(v)
		sum += float64(v)
	}
	if sum == 0 {
		return 0
	}
	sort.Float64s(sorted)
	var weighted float64
	for i, v := range sorted {
		weighted += float64(i+1) * v
	}
	g := (2*weighted)/(float64(n)*sum) - float64(n+1)/float64(n)
	if g < 0 {
		g = 0
	}
	return g
}

// InDegrees returns the in-degree of every vertex (used by the hot-subgraph
// selection, which keeps subgraphs with top in-degrees). The counts are
// made on first use and kept on the graph until ApplyMutations changes it;
// Clone shares them. Engines sharing one graph may call it concurrently:
// each may count, and all get the same counts. The slice is shared, so
// callers must not modify it.
func (g *Graph) InDegrees() []uint64 {
	if p := g.inDeg.Load(); p != nil {
		return *p
	}
	in := make([]uint64, g.NumVertices())
	for _, dst := range g.Edges {
		in[dst]++
	}
	g.inDeg.Store(&in)
	return in
}

// TextSizeEstimate estimates an edge-list text representation size, mirroring
// Table IV's "Text Size" column (src dst per line, ~decimal digits).
func TextSizeEstimate(g *Graph) int64 {
	if g.NumEdges() == 0 {
		return 0
	}
	digits := int64(math.Log10(float64(g.NumVertices()))) + 1
	// "src<space>dst\n" per edge.
	return int64(g.NumEdges()) * (2*digits + 2)
}
