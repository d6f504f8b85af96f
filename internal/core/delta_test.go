package core

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"flashwalker/internal/graph"
	"flashwalker/internal/walk"
)

// TestSnapshotDeltaSelf pins two delta-layer basics: diffing a snapshot
// against itself dirties nothing, and applying that empty delta
// reconstructs the identical image (clean stores shared with the base).
func TestSnapshotDeltaSelf(t *testing.T) {
	g := testGraph(t)
	s := interruptCore(t, g, goldenConfig(), 2)

	var sha [32]byte
	d := DiffSnapshot(s, s, sha, 1)
	if n := dirtyStores(d); n != 0 {
		t.Fatalf("self-diff dirtied %d stores, want none", n)
	}
	if d.Chain != 1 {
		t.Fatalf("Chain = %d, want 1", d.Chain)
	}
	full, err := ApplyDelta(s, d)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if !reflect.DeepEqual(s, full) {
		t.Fatal("empty delta did not reconstruct the identical snapshot")
	}
}

// TestApplyDeltaRejectsMismatch guards the shape checks: a delta built for
// one layout must not silently apply to a base with a different one.
func TestApplyDeltaRejectsMismatch(t *testing.T) {
	g := testGraph(t)
	s := interruptCore(t, g, goldenConfig(), 1)

	if _, err := ApplyDelta(nil, &SnapshotDelta{}); err == nil {
		t.Fatal("ApplyDelta accepted a nil base")
	}
	if _, err := ApplyDelta(s, nil); err == nil {
		t.Fatal("ApplyDelta accepted a nil delta")
	}

	d := DiffSnapshot(s, s, [32]byte{}, 1)
	short := *s
	short.Boards = slices.Clone(s.Boards)
	short.Boards[0].PWB = short.Boards[0].PWB[:len(short.Boards[0].PWB)-1]
	if _, err := ApplyDelta(&short, d); err == nil || !strings.Contains(err.Error(), "blocks") {
		t.Fatalf("ApplyDelta over mis-sized base: %v, want block-count error", err)
	}

	bad := *d
	bad.Stores = []StoreDelta{{Blocks: []int{len(s.Boards[0].PWB)}, PWB: []WalkRecords{nil}, FLS: []WalkRecords{nil}}}
	if _, err := ApplyDelta(s, &bad); err == nil {
		t.Fatal("ApplyDelta accepted an out-of-range block index")
	}
}

// Shape of the synthetic base FuzzApplyDelta diffs against.
const (
	fuzzBoards = 2
	fuzzBlocks = 3
	fuzzParts  = 2
)

// fuzzBase is a small multi-board snapshot whose every store holds one
// distinct walk, so a misplaced store is visible.
func fuzzBase() *Snapshot {
	store := func(b, i int) WalkRecords {
		return new(packer).walks([]wstate{{w: walk.Walk{Src: 1, Cur: graph.VertexID(100*b + i)}}}, []int32{0})
	}
	s := &Snapshot{Boards: make([]BoardImage, fuzzBoards)}
	for b := range s.Boards {
		img := &s.Boards[b]
		img.PWBBytes, img.FlushMark = make([]int64, fuzzBlocks), make([]int, fuzzParts)
		for i := 0; i < fuzzBlocks; i++ {
			img.PWB = append(img.PWB, store(b, i))
			img.FLS = append(img.FLS, store(b, 10+i))
		}
		for p := 0; p < fuzzParts; p++ {
			img.PendingMem = append(img.PendingMem, store(b, 20+p))
			img.PendingFlash = append(img.PendingFlash, store(b, 30+p))
		}
	}
	return s
}

// FuzzApplyDelta drives the multi-board delta reconstruction with hostile
// shapes: a body whose board count differs from the base, out-of-range
// board, block and partition indices, and index and store lists of
// different lengths. ApplyDelta must reject what does not fit with an
// error — never panic — must leave its base untouched, and whatever it
// accepts must be a full image of the base's shape.
func FuzzApplyDelta(f *testing.F) {
	f.Fuzz(func(t *testing.T, bodyBoards, board, block, part, nBlocks, nPWB, nFLS, nParts, nMem, nFlash int) {
		small := func(v int) int {
			if v < 0 {
				v = -v
			}
			return v % 4
		}
		base, pristine := fuzzBase(), fuzzBase()
		d := &SnapshotDelta{Body: Snapshot{Boards: make([]BoardImage, small(bodyBoards))}}
		for b := range d.Body.Boards {
			d.Body.Boards[b] = BoardImage{PWBBytes: make([]int64, fuzzBlocks), FlushMark: make([]int, fuzzParts)}
		}
		walks := new(packer).walks([]wstate{{w: walk.Walk{Src: 7, Cur: 7}}}, []int32{0})
		sd := StoreDelta{Board: board}
		for i := 0; i < small(nBlocks); i++ {
			sd.Blocks = append(sd.Blocks, block+i)
		}
		for i := 0; i < small(nPWB); i++ {
			sd.PWB = append(sd.PWB, walks)
		}
		for i := 0; i < small(nFLS); i++ {
			sd.FLS = append(sd.FLS, walks)
		}
		for i := 0; i < small(nParts); i++ {
			sd.Parts = append(sd.Parts, part+i)
		}
		for i := 0; i < small(nMem); i++ {
			sd.PendingMem = append(sd.PendingMem, walks)
		}
		for i := 0; i < small(nFlash); i++ {
			sd.PendingFlash = append(sd.PendingFlash, walks)
		}
		d.Stores = []StoreDelta{sd}

		full, err := ApplyDelta(base, d)
		if !reflect.DeepEqual(base, pristine) {
			t.Fatal("ApplyDelta modified its base")
		}
		if err != nil {
			return
		}
		if len(full.Boards) != fuzzBoards {
			t.Fatalf("accepted delta rebuilt %d boards, base has %d", len(full.Boards), fuzzBoards)
		}
		for b, img := range full.Boards {
			if len(img.PWB) != fuzzBlocks || len(img.FLS) != fuzzBlocks ||
				len(img.PendingMem) != fuzzParts || len(img.PendingFlash) != fuzzParts {
				t.Fatalf("board %d rebuilt with %d/%d block and %d/%d partition stores",
					b, len(img.PWB), len(img.FLS), len(img.PendingMem), len(img.PendingFlash))
			}
		}
	})
}
