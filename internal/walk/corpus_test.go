package walk

import (
	"bytes"
	"strings"
	"testing"

	"flashwalker/internal/graph"
)

func TestCorpusRoundTrip(t *testing.T) {
	corpus := [][]graph.VertexID{
		{0, 1, 2},
		{5},
		{9, 8, 7, 6},
	}
	var buf bytes.Buffer
	if err := WriteCorpus(&buf, corpus); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCorpus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(corpus) {
		t.Fatalf("%d walks", len(got))
	}
	for i := range corpus {
		if len(got[i]) != len(corpus[i]) {
			t.Fatalf("walk %d length changed", i)
		}
		for j := range corpus[i] {
			if got[i][j] != corpus[i][j] {
				t.Fatalf("walk %d token %d changed", i, j)
			}
		}
	}
}

func TestCorpusFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCorpus(&buf, [][]graph.VertexID{{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "1 2 3\n" {
		t.Fatalf("format %q", buf.String())
	}
}

func TestReadCorpusSkipsBlankLines(t *testing.T) {
	got, err := ReadCorpus(strings.NewReader("1 2\n\n3 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("%d walks", len(got))
	}
}

// TestReadCorpusLongLine is the regression test for the scanner token cap:
// a single walk whose line exceeds 1 MiB (the old Buffer max, which made
// ReadCorpus fail with bufio.ErrTooLong) must round-trip intact.
func TestReadCorpusLongLine(t *testing.T) {
	// ~160k tokens of 10-digit IDs ≈ 1.7 MiB on one line.
	long := make([]graph.VertexID, 160_000)
	for i := range long {
		long[i] = 4_200_000_000 + graph.VertexID(i)
	}
	corpus := [][]graph.VertexID{{1, 2}, long, {3}}
	var buf bytes.Buffer
	if err := WriteCorpus(&buf, corpus); err != nil {
		t.Fatal(err)
	}
	if buf.Len() <= 1<<20 {
		t.Fatalf("test corpus too small to exceed the old cap: %d bytes", buf.Len())
	}
	got, err := ReadCorpus(&buf)
	if err != nil {
		t.Fatalf("ReadCorpus on >1MiB line: %v", err)
	}
	if len(got) != 3 || len(got[1]) != len(long) {
		t.Fatalf("round trip lost walks: %d walks, long walk %d tokens", len(got), len(got[1]))
	}
	for i := range long {
		if got[1][i] != long[i] {
			t.Fatalf("long walk token %d changed", i)
		}
	}
}

func TestReadCorpusRejectsGarbage(t *testing.T) {
	if _, err := ReadCorpus(strings.NewReader("1 x 3\n")); err == nil {
		t.Fatal("garbage token accepted")
	}
}

// TestReadCorpusVertexRange: the largest vertex ID reads back; every token
// past it is an error, never a smaller vertex.
func TestReadCorpusVertexRange(t *testing.T) {
	got, err := ReadCorpus(strings.NewReader("1 4294967294\n"))
	if err != nil || len(got) != 1 || got[0][1] != 1<<32-2 {
		t.Fatalf("largest ID: %v, %v", got, err)
	}
	for _, tok := range []string{"4294967295", "4294967296", "4294967297", "18446744073709551615"} {
		if got, err := ReadCorpus(strings.NewReader("1 " + tok + "\n")); err == nil {
			t.Errorf("token %s read as %v", tok, got)
		}
	}
}

func TestCorpusStats(t *testing.T) {
	walks, tokens, mean := CorpusStats([][]graph.VertexID{{1, 2, 3}, {4, 5}})
	if walks != 2 || tokens != 5 || mean != 1.5 {
		t.Fatalf("stats %d %d %v", walks, tokens, mean)
	}
	w, tk, m := CorpusStats(nil)
	if w != 0 || tk != 0 || m != 0 {
		t.Fatal("empty stats")
	}
}

func TestCorpusFromDeepWalk(t *testing.T) {
	corpus := ringCorpus(t, 32, 4, 1)
	var buf bytes.Buffer
	if err := WriteCorpus(&buf, corpus); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCorpus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 32 {
		t.Fatalf("%d walks", len(back))
	}
}
