package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"flashwalker/internal/errs"
)

func TestGeneratorErrorsWrapInvalidConfig(t *testing.T) {
	cases := map[string]func() error{
		"rmat zero vertices": func() error {
			_, err := RMAT(RMATConfig{NumEdges: 8})
			return err
		},
		"rmat bad probabilities": func() error {
			cfg := DefaultRMAT(16, 64, 1)
			cfg.A, cfg.B, cfg.C, cfg.D = 0.9, 0.9, 0.9, 0.9
			_, err := RMAT(cfg)
			return err
		},
		"rmat past 2^32 vertices": func() error {
			_, err := RMAT(DefaultRMAT(1<<32+1, 8, 1))
			return err
		},
		"rmat 2^32 vertices": func() error {
			_, err := RMAT(DefaultRMAT(1<<32, 8, 1))
			return err
		},
		"weighted rmat 2^32 vertices": func() error {
			cfg := DefaultRMAT(1<<32, 8, 1)
			cfg.Weighted = true
			_, err := RMAT(cfg)
			return err
		},
		"rmat with duplicates 2^32 vertices": func() error {
			cfg := DefaultRMAT(1<<32, 8, 1)
			cfg.RemoveDuplicates = false
			_, err := RMAT(cfg)
			return err
		},
		"powerlaw 2^32 vertices": func() error {
			_, err := PowerLaw(PowerLawConfig{NumVertices: 1 << 32, NumEdges: 8, Alpha: 0.8})
			return err
		},
		"uniform 2^32 vertices": func() error {
			_, err := Uniform(1<<32, 8, 1)
			return err
		},
		"build 2^32 vertices": func() error {
			_, err := NewBuilder(1 << 32).Build()
			return err
		},
		"from edges 2^32 vertices": func() error {
			_, err := FromEdges(1<<32, []Edge{{Src: 0, Dst: 1}})
			return err
		},
		"read a header of 2^32 vertices": func() error {
			var b bytes.Buffer
			b.WriteString(magic)
			for _, v := range []uint64{0, 1 << 32, 0} {
				binary.Write(&b, binary.LittleEndian, v)
			}
			_, err := Read(&b)
			return err
		},
		"powerlaw zero vertices": func() error {
			_, err := PowerLaw(PowerLawConfig{NumEdges: 8, Alpha: 0.8})
			return err
		},
		"uniform zero vertices": func() error {
			_, err := Uniform(0, 8, 1)
			return err
		},
	}
	for name, gen := range cases {
		err := gen()
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !errors.Is(err, errs.ErrInvalidConfig) {
			t.Errorf("%s: error %v does not wrap ErrInvalidConfig", name, err)
		}
	}
}

// TestGeneratorsPanicPastMaxVertices: the generators that return no error
// refuse more than MaxVertices vertices by panicking, before they allocate.
func TestGeneratorsPanicPastMaxVertices(t *testing.T) {
	for name, gen := range map[string]func(){
		"ring":                  func() { Ring(1 << 32) },
		"complete":              func() { Complete(1 << 32) },
		"star":                  func() { Star(MaxVertices) }, // a hub and MaxVertices spokes
		"star of 2^64-1 spokes": func() { Star(1<<64 - 1) },
	} {
		func() {
			defer func() {
				if err, ok := recover().(error); !ok || !errors.Is(err, errs.ErrInvalidConfig) {
					t.Errorf("%s: recovered %v, want an ErrInvalidConfig panic", name, err)
				}
			}()
			gen()
		}()
	}
}

// TestLoadersRefuseWideIDs: an edge naming a vertex past the largest is an
// error from the binary loader, never a smaller vertex.
func TestLoadersRefuseWideIDs(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, Ring(16)); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	firstEdge := len(magic) + 3*8 + 17*8
	for _, id := range []uint64{16, 1<<32 - 2, 1<<32 - 1, 1 << 32, 1<<32 + 1} {
		data := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint64(data[firstEdge:], id)
		if g, err := Read(bytes.NewReader(data)); err == nil {
			t.Errorf("Read: edge to %d loaded as %d", id, g.Edges[0])
		}
	}
}
