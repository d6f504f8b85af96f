package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"flashwalker/internal/graph"
	"flashwalker/internal/snapshot"
)

const fuzzSnapKind = "core-engine"

// BuildSnapshot exposes buildSnapshot to the package's external benchmark
// (snapcut_test.go).
func (e *Engine) BuildSnapshot() (*Snapshot, error) { return e.buildSnapshot() }

// midRunCut is a cut of the golden workload on nb boards, past the time-0
// preload, so every walk store and pool is in use.
func midRunCut(t testing.TB, nb int) *Snapshot {
	t.Helper()
	return interruptWhen(t, testGraph(t), arrayConfig(nb), 4, func(s *Snapshot) bool { return !s.Preloading() })
}

// carryingCut is the first cut of the golden workload on nb boards whose
// pending events carry a walk and a roving batch and, on more than one
// board, a fabric transfer.
func carryingCut(t testing.TB, nb int) *Snapshot {
	t.Helper()
	return interruptWhen(t, testGraph(t), arrayConfig(nb), 1, func(s *Snapshot) bool {
		w, b, x := carriedRecords(t, s)
		return w > 0 && b > 0 && (nb == 1 || x > 0)
	})
}

// containerPayload is the gob payload of an encoded container.
func containerPayload(data []byte, kind string) []byte {
	return data[8+4+2+len(kind)+8 : len(data)-sha256.Size]
}

// sealPayload wraps payload in a current-version container under kind with
// a fresh SHA-256 trailer, so Decode gets past the checksum to the payload.
func sealPayload(kind string, payload []byte) []byte {
	b := append([]byte(nil), "FWSNAP1\n"...)
	b = binary.BigEndian.AppendUint32(b, snapshot.Version)
	b = binary.BigEndian.AppendUint16(b, uint16(len(kind)))
	b = append(b, kind...)
	b = binary.BigEndian.AppendUint64(b, uint64(len(payload)))
	b = append(b, payload...)
	sum := sha256.Sum256(b)
	return append(b, sum[:]...)
}

// records is a cut's record stream split by carrier: events[i] is the
// record Sim.Events[i] carries and ops[b][i] the one board b's op i
// completion carries, nil where none.
type records struct {
	events [][]byte
	ops    [][][]byte
}

// splitRecords splits s's record stream; err is the first record that does
// not decode, or trailing bytes.
func splitRecords(s *Snapshot) (rs *records, err error) {
	r := recReader{b: s.Carried}
	take := func(target int32, kind uint16) []byte {
		if !carriesRecord(target, kind, len(s.Boards)) || r.err != nil {
			return nil
		}
		start := r.b
		if target == targetDriver {
			r.fabricBatch()
		} else {
			r.walks(new(boardEngine))
		}
		return start[:len(start)-len(r.b)]
	}
	rs = &records{events: make([][]byte, len(s.Sim.Events)), ops: make([][][]byte, len(s.Boards))}
	for i, ev := range s.Sim.Events {
		rs.events[i] = take(ev.Target, ev.Kind)
	}
	for b := range s.Boards {
		rs.ops[b] = make([][]byte, len(s.Boards[b].Flash.Ops))
		for i, op := range s.Boards[b].Flash.Ops {
			if op.Remaining > 0 && !op.Done.None() {
				rs.ops[b][i] = take(op.Done.Target, op.Done.Kind)
			}
		}
	}
	return rs, r.done()
}

// mustSplit is splitRecords for a cut whose stream decodes.
func mustSplit(t testing.TB, s *Snapshot) *records {
	t.Helper()
	rs, err := splitRecords(s)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// join writes the records back into s's stream, in stream order.
func (rs *records) join(s *Snapshot) {
	s.Carried = nil
	for _, rec := range rs.events {
		s.Carried = append(s.Carried, rec...)
	}
	for _, ops := range rs.ops {
		for _, rec := range ops {
			s.Carried = append(s.Carried, rec...)
		}
	}
}

// eachRecord calls fn with each record a cut's carrying events name, in
// stream order: the kernel's events as exported, then each board's live
// flash op completions in op order.
func eachRecord(t testing.TB, s *Snapshot, fn func(target int32, kind uint16, rec []byte)) {
	rs := mustSplit(t, s)
	for i, rec := range rs.events {
		if rec != nil {
			fn(s.Sim.Events[i].Target, s.Sim.Events[i].Kind, rec)
		}
	}
	for b, ops := range rs.ops {
		for i, rec := range ops {
			if rec != nil {
				fn(s.Boards[b].Flash.Ops[i].Done.Target, s.Boards[b].Flash.Ops[i].Done.Kind, rec)
			}
		}
	}
}

// carriedRecords counts the walks, roving batches and fabric transfers a
// cut's pending events carry.
func carriedRecords(t testing.TB, s *Snapshot) (walks, batches, transfers int) {
	eachRecord(t, s, func(target int32, kind uint16, _ []byte) {
		switch {
		case target == targetDriver:
			transfers++
		case eventPayload[kind]&payWalk != 0:
			walks++
		default:
			batches++
		}
	})
	return walks, batches, transfers
}

// unpackImage runs every packed decoder restore runs on s, filing the
// walks in a scratch board's table, and returns the first error.
func unpackImage(s *Snapshot) error {
	u := unpacker{be: new(boardEngine)}
	for b := range s.Boards {
		img := &s.Boards[b]
		for _, stores := range [][]WalkRecords{img.PWB, img.FLS, img.PendingMem, img.PendingFlash} {
			for _, rec := range stores {
				u.walks(rec)
			}
		}
		u.walks(img.SwitchWalks)
		for _, c := range img.Chips {
			u.walks(c.Roving)
			for _, sl := range c.Slots {
				u.walks(sl.LoadWalks)
			}
		}
	}
	for _, row := range s.Egress {
		for _, es := range row {
			u.fabricWalks(es.Walks)
		}
	}
	if _, err := splitRecords(s); u.err == nil {
		u.err = err
	}
	return u.err
}

// goldenCuts returns every cut the golden workload takes on nb boards at
// interruptWhen's cadence, each encoded in a container.
func goldenCuts(t *testing.T, g *graph.Graph, nb int) [][]byte {
	t.Helper()
	rc := arrayConfig(nb)
	rc.CheckpointEvery = 64
	rc.SnapshotEvery = 1
	var cuts [][]byte
	rc.OnSnapshot = func(s *Snapshot) {
		data, err := snapshot.Encode(fuzzSnapKind, s)
		if err != nil {
			t.Fatal(err)
		}
		cuts = append(cuts, data)
	}
	runEngine(t, g, rc)
	return cuts
}

// TestPackedImageRoundTrip: every cut of the golden workload, on one board
// and two, restores an engine whose next cut packs to the identical image,
// record stream included, and every packed store and record decodes
// cleanly.
// The identity covers the kernel's event list, which ExportState lists in
// an order that depends only on the pending set. Restore must leave the
// image it is handed as decoded.
func TestPackedImageRoundTrip(t *testing.T) {
	g := testGraph(t)
	for _, nb := range []int{1, 2} {
		cuts := goldenCuts(t, g, nb)
		var walks, batches, transfers int
		for i, data := range cuts {
			snap, orig := new(Snapshot), new(Snapshot)
			if err := snapshot.Decode(data, fuzzSnapKind, snap); err != nil {
				t.Fatal(err)
			}
			if err := snapshot.Decode(data, fuzzSnapKind, orig); err != nil {
				t.Fatal(err)
			}
			if err := unpackImage(snap); err != nil {
				t.Fatalf("boards=%d cut %d: %v", nb, i, err)
			}
			w, b, x := carriedRecords(t, snap)
			walks, batches, transfers = walks+w, batches+b, transfers+x
			e, err := ResumeEngine(g, snap, Observers{})
			if err != nil {
				t.Fatalf("boards=%d cut %d: %v", nb, i, err)
			}
			if !reflect.DeepEqual(snap, orig) {
				t.Fatalf("boards=%d cut %d: restore edited the image it was handed", nb, i)
			}
			again, err := e.buildSnapshot()
			if err != nil {
				t.Fatalf("boards=%d cut %d: %v", nb, i, err)
			}
			if !reflect.DeepEqual(again, snap) {
				t.Fatalf("boards=%d: cut %d of %d: a restored engine re-packs to a different image", nb, i, len(cuts))
			}
		}
		if walks == 0 || batches == 0 || nb > 1 && transfers == 0 {
			t.Fatalf("boards=%d: %d cuts carry %d walks, %d roving batches and %d fabric transfers",
				nb, len(cuts), walks, batches, transfers)
		}
	}
}

// TestPackedRecordsRejectMalformed: truncations, trailing bytes and
// overlong counts are errors, never a panic.
func TestPackedRecordsRejectMalformed(t *testing.T) {
	ws := []wstate{{denseBlock: -1, rangeTag: -1, prev: noPrev}, {denseBlock: 3, denseEdge: 9, rangeTag: 2, prev: 5}}
	ws[1].w.Src, ws[1].w.Cur, ws[1].w.Hop = 1<<32-2, 7, 80
	ws[1].rng.SetState([4]uint64{1, 2, 3, 4})
	rec := new(packer).walks(ws, []int32{1, 0})
	u := unpacker{be: new(boardEngine)}
	if got := u.walks(rec); u.err != nil || !reflect.DeepEqual(got, []int32{0, 1}) ||
		!reflect.DeepEqual(u.be.wtab, []wstate{ws[1], ws[0]}) {
		t.Fatalf("round trip: %v into %+v, %v", got, u.be.wtab, u.err)
	}
	bad := map[string][]byte{
		"truncated":     rec[:len(rec)-1],
		"trailing":      append(append([]byte(nil), rec...), 0),
		"count-overrun": append([]byte{0xff, 0x01}, rec[1:]...),
		"overlong":      append([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, rec[1:]...),
	}
	for name, b := range bad {
		u := unpacker{be: new(boardEngine)}
		if u.walks(b); !errors.Is(u.err, errPacked) {
			t.Errorf("%s: err %v, want errPacked", name, u.err)
		}
	}
}

// FuzzSnapshotDecode feeds hostile payloads to the snapshot codec: mutated
// gob payloads of real 1-board and 2-board mid-run cuts, re-sealed so
// Decode gets past the checksum. Decode into a Snapshot must fail or yield
// an image that survives an Encode/Decode round trip unchanged, and every
// packed store and the record stream of a decoded image must decode or
// fail cleanly — never panic. The seed cuts carry a walk and a roving batch in
// pending events, and on two boards a fabric transfer. The 1-board cut
// also seeds with one parked walk at vertex 2^32-2 (the largest ID),
// 2^32-1 (no vertex), 2^32 and 2^32+1.
func FuzzSnapshotDecode(f *testing.F) {
	for _, nb := range []int{1, 2} {
		cut := carryingCut(f, nb)
		data, err := snapshot.Encode(fuzzSnapKind, cut)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(containerPayload(data, fuzzSnapKind))
		if nb > 1 {
			continue
		}
		for _, id := range []uint64{1<<32 - 2, 1<<32 - 1, 1 << 32, 1<<32 + 1} {
			s := cloneSnapshot(f, cut)
			editFirstPWBWalk(f, &s.Boards[0], func(w *wideWalk) { w.cur, w.prev = id, id+1 })
			data, err := snapshot.Encode(fuzzSnapKind, s)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(containerPayload(data, fuzzSnapKind))
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var s Snapshot
		if snapshot.Decode(sealPayload(fuzzSnapKind, payload), fuzzSnapKind, &s) != nil {
			return
		}
		enc, err := snapshot.Encode(fuzzSnapKind, &s)
		if err != nil {
			t.Fatalf("re-encoding a decoded image: %v", err)
		}
		var back Snapshot
		if err := snapshot.Decode(enc, fuzzSnapKind, &back); err != nil {
			t.Fatalf("decoding a re-encoded image: %v", err)
		}
		if again, err := snapshot.Encode(fuzzSnapKind, &back); err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("image changed across an Encode/Decode round trip (err %v)", err)
		}
		_ = unpackImage(&s)
	})
}
