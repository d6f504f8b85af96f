package walk

import (
	"math"
	"testing"

	"flashwalker/internal/graph"
)

func TestTopK(t *testing.T) {
	scores := []float64{0.1, 0.5, 0, 0.3, 0.5}
	top := TopK(scores, 3)
	if len(top) != 3 || top[0] != 1 || top[1] != 4 || top[2] != 3 {
		t.Fatalf("TopK = %v", top)
	}
	if got := TopK(scores, 100); len(got) != 4 { // zero excluded
		t.Fatalf("TopK over-ask = %v", got)
	}
}

func TestSimRankIdentity(t *testing.T) {
	g := graph.Ring(10)
	s, err := SimRank(g, 3, 3, 100, 5, 0.6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s != 1 {
		t.Fatalf("SimRank(v,v) = %v", s)
	}
}

func TestSimRankRingNeverMeets(t *testing.T) {
	// Walks on a directed ring keep their initial separation, so distinct
	// vertices never meet.
	g := graph.Ring(10)
	s, err := SimRank(g, 0, 5, 2000, 8, 0.6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s != 0 {
		t.Fatalf("ring SimRank = %v, want 0", s)
	}
}

func TestSimRankMeetingOnFunnel(t *testing.T) {
	// Both u and v point only at w: the pair meets at step 1 with
	// probability 1, so SimRank = C.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	g, _ := b.Build()
	s, err := SimRank(g, 0, 1, 5000, 5, 0.6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-0.6) > 1e-9 {
		t.Fatalf("funnel SimRank = %v, want 0.6", s)
	}
}

func TestSimRankComplete(t *testing.T) {
	// On K_n the per-step meeting probability is ~1/n; SimRank is
	// positive and below C.
	g := graph.Complete(10)
	s, err := SimRank(g, 0, 1, 20000, 20, 0.6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s <= 0 || s >= 0.6 {
		t.Fatalf("K10 SimRank = %v", s)
	}
}

func TestSimRankRejectsBadInputs(t *testing.T) {
	g := graph.Ring(4)
	if _, err := SimRank(g, 9, 0, 10, 5, 0.6, 1); err == nil {
		t.Fatal("bad vertex accepted")
	}
	if _, err := SimRank(g, 0, 1, 0, 5, 0.6, 1); err == nil {
		t.Fatal("zero pairs accepted")
	}
	if _, err := SimRank(g, 0, 1, 10, 0, 0.6, 1); err == nil {
		t.Fatal("zero length accepted")
	}
	if _, err := SimRank(g, 0, 1, 10, 5, 1.5, 1); err == nil {
		t.Fatal("bad decay accepted")
	}
}

func TestContainsSorted(t *testing.T) {
	adj := []graph.VertexID{2, 5, 7, 11}
	for _, v := range adj {
		if !containsSorted(adj, v) {
			t.Fatalf("missing %d", v)
		}
	}
	for _, v := range []graph.VertexID{0, 3, 12} {
		if containsSorted(adj, v) {
			t.Fatalf("false member %d", v)
		}
	}
	if containsSorted(nil, 1) {
		t.Fatal("empty list member")
	}
}
