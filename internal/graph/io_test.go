package graph

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"runtime"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	g, err := RMAT(DefaultRMAT(512, 4096, 1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("shape changed in round trip")
	}
	for i := range g.Offsets {
		if g.Offsets[i] != g2.Offsets[i] {
			t.Fatal("offsets changed")
		}
	}
	for i := range g.Edges {
		if g.Edges[i] != g2.Edges[i] {
			t.Fatal("edges changed")
		}
	}
	if g2.Weighted() {
		t.Fatal("unweighted graph read back weighted")
	}
}

func TestWeightedRoundTrip(t *testing.T) {
	cfg := DefaultRMAT(128, 512, 2)
	cfg.Weighted = true
	g, err := RMAT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.Weighted() {
		t.Fatal("weights lost")
	}
	for i := range g.Weights {
		if g.Weights[i] != g2.Weights[i] {
			t.Fatal("weights changed")
		}
	}
	// Cumulative weights must be rebuilt on read.
	if g2.CumWeights == nil {
		t.Fatal("cumulative weights not rebuilt")
	}
	for i := range g.CumWeights {
		if g.CumWeights[i] != g2.CumWeights[i] {
			t.Fatal("cumulative weights differ")
		}
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOTMAGIC-------"))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestReadRejectsTruncated(t *testing.T) {
	g := Ring(16)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{4, 10, 30, len(full) - 3} {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestReadRejectsImplausibleHeader(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(magic)
	// flags=0, V=huge, E=0.
	buf.Write(make([]byte, 8)) // flags
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	buf.Write(make([]byte, 8))
	if _, err := Read(&buf); err == nil {
		t.Fatal("implausible header accepted")
	}
}

func TestSaveLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.bin")
	g := Ring(64)
	if err := Save(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != 64 {
		t.Fatalf("loaded %d edges", g2.NumEdges())
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestReadHugeHeaderAllocatesLittle: a header claiming the most vertices
// and edges a file may hold, followed by nothing, fails at the end of the
// input having allocated about what the input held, not the claim (32 GiB
// of offsets and as much of edges).
func TestReadHugeHeaderAllocatesLittle(t *testing.T) {
	for _, body := range [][]byte{nil, make([]byte, 4096)} {
		var b bytes.Buffer
		b.WriteString(magic)
		for _, v := range []uint64{1, MaxVertices, 1 << 33} {
			binary.Write(&b, binary.LittleEndian, v)
		}
		b.Write(body)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Read(&b)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatal("a truncated file was read")
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
			t.Errorf("%d-byte body: Read allocated %d bytes", len(body), got)
		}
	}
}
