package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestReadEdgeListBasic(t *testing.T) {
	in := `# comment
% also comment
0 1
1 2

2 0
`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
	if g.Weighted() {
		t.Fatal("unweighted input read as weighted")
	}
}

func TestReadEdgeListWeighted(t *testing.T) {
	in := "0 1 2.5\n1 0 0.5\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Weighted() {
		t.Fatal("weights lost")
	}
	if g.OutWeights(0)[0] != 2.5 {
		t.Fatalf("weight = %v", g.OutWeights(0)[0])
	}
}

func TestReadEdgeListSparseIDs(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 100\n100 7\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 101 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"",             // empty
		"0\n",          // one field
		"x 1\n",        // bad src
		"1 y\n",        // bad dst
		"1 2 notnum\n", // bad weight
		"1 2 -3\n",     // negative weight
	}
	for i, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g, _ := RMAT(DefaultRMAT(256, 2048, 1))
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("edges %d != %d", g2.NumEdges(), g.NumEdges())
	}
	for v := VertexID(0); uint64(v) < g.NumVertices(); v++ {
		a, b := g.OutEdges(v), g2.OutEdges(v)
		if len(a) != len(b) {
			t.Fatalf("vertex %d degree changed", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d adjacency changed", v)
			}
		}
	}
}

func TestEdgeListWeightedRoundTrip(t *testing.T) {
	cfg := DefaultRMAT(128, 512, 2)
	cfg.Weighted = true
	g, _ := RMAT(cfg)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.Weighted() {
		t.Fatal("weights lost in text round trip")
	}
}

func TestReverse(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(3, 0)
	g, _ := b.Build()
	r := Reverse(g)
	if r.NumEdges() != 3 {
		t.Fatal("edge count changed")
	}
	if r.OutDegree(1) != 1 || r.OutEdges(1)[0] != 0 {
		t.Fatal("reverse edge 1->0 missing")
	}
	if r.OutDegree(0) != 1 || r.OutEdges(0)[0] != 3 {
		t.Fatal("reverse edge 0->3 missing")
	}
	// Double reverse is the original.
	rr := Reverse(r)
	for v := VertexID(0); v < 4; v++ {
		a, b := g.OutEdges(v), rr.OutEdges(v)
		if len(a) != len(b) {
			t.Fatal("double reverse changed degrees")
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("double reverse changed edges")
			}
		}
	}
}

func TestReverseWeighted(t *testing.T) {
	b := NewBuilder(2)
	b.AddWeightedEdge(0, 1, 7)
	g, _ := b.Build()
	r := Reverse(g)
	if !r.Weighted() || r.OutWeights(1)[0] != 7 {
		t.Fatal("weight not carried through reverse")
	}
}

func TestReverseInOutDegreeDuality(t *testing.T) {
	g, _ := RMAT(DefaultRMAT(512, 4096, 3))
	r := Reverse(g)
	in := g.InDegrees()
	for v := VertexID(0); uint64(v) < g.NumVertices(); v++ {
		if r.OutDegree(v) != in[v] {
			t.Fatalf("vertex %d: reverse out-degree %d != in-degree %d", v, r.OutDegree(v), in[v])
		}
	}
}
