package graph

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// FuzzReadEdgeList hardens the text parser: arbitrary input must either
// parse into a valid graph or return an error — never panic, never yield a
// graph failing Validate, never read an ID past MaxVertices-1 (as a
// smaller one or at all).
//
// A parse naming a vertex past maxFuzzVertices is checked but not built:
// sparse IDs are legal, and a graph of up to 2^32-1 vertices takes 8
// bytes of offsets per vertex.
func FuzzReadEdgeList(f *testing.F) {
	const maxFuzzVertices = 1 << 20
	f.Add("0 1\n1 2\n")
	f.Add("# comment\n5 6 0.5\n")
	f.Add("")
	f.Add("0 1 2 3 4\n")
	f.Add("9999999999999999999999 1\n")
	f.Add("1 2 -1\n")
	f.Add("0 0\n0 0\n")
	for _, id := range []string{"4294967294", "4294967295", "4294967296", "4294967297"} {
		f.Add(id + " 0\n")
		f.Add("1 " + id + " 0.5\n")
	}
	f.Fuzz(func(t *testing.T, input string) {
		edges, n, _, err := parseEdgeList(strings.NewReader(input))
		if err != nil {
			return
		}
		if n > MaxVertices {
			t.Fatalf("parsed %d vertices, more than %d", n, MaxVertices)
		}
		for _, e := range edges {
			if uint64(e.Src) >= n || uint64(e.Dst) >= n {
				t.Fatalf("edge (%d,%d) outside %d vertices", e.Src, e.Dst, n)
			}
		}
		if n > maxFuzzVertices {
			return
		}
		g, err := ReadEdgeList(strings.NewReader(input))
		if err != nil {
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("parsed graph fails validation: %v", verr)
		}
	})
}

// FuzzRead hardens the binary decoder against corrupt files.
func FuzzRead(f *testing.F) {
	// Seed with a genuine file and mutations of it.
	var buf bytes.Buffer
	if err := Write(&buf, Ring(16)); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("FWGRAPH1garbage"))
	f.Add([]byte{})
	corrupt := append([]byte(nil), valid...)
	if len(corrupt) > 20 {
		corrupt[18] ^= 0xff
	}
	f.Add(corrupt)
	// The first edge past the largest vertex, at it and at the sentinel.
	firstEdge := len(magic) + 3*8 + 17*8
	for _, id := range []uint64{1<<32 - 2, 1<<32 - 1, 1 << 32, 1<<32 + 1} {
		wide := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint64(wide[firstEdge:], id)
		f.Add(wide)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("decoded graph fails validation: %v", verr)
		}
	})
}
