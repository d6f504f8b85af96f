package graph

import (
	"bytes"
	"encoding/binary"
	"testing"
)

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
