package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

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

// unpackImage runs every packed decoder restore runs on s, filing the
// walks in a scratch board's table, and returns the first error.
func unpackImage(s *Snapshot) error {
	be := new(boardEngine)
	u := unpacker{be: be}
	var firstErr error
	keep := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	for b := range s.Boards {
		img := &s.Boards[b]
		u.walks(img.Held)
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
		var batches []walkBatch
		_, err := img.Batches.load(minBatchBytes,
			func(n int) { batches = make([]walkBatch, n) },
			func(i, next int32) { batches[i].free = next },
			func(i int32, r *recReader) { batches[i].walks = r.walks(be) })
		keep(err)
	}
	for _, row := range s.Egress {
		for _, es := range row {
			u.fabricWalks(es.Walks)
		}
	}
	var fb []fabricBatch
	_, err := s.FBatches.load(minFBatchBytes,
		func(n int) { fb = make([]fabricBatch, n) },
		func(i, next int32) { fb[i].free = next },
		func(i int32, r *recReader) { fb[i] = r.fabricBatch() })
	keep(err)
	keep(u.err)
	return firstErr
}

// TestPackedImageRoundTrip: a mid-run cut's packed stores, live-only pools
// and carried walks restore an engine whose next cut packs to the identical
// image, on one and two boards, and every packed store decodes cleanly.
// The identity covers Held: restore files each carried walk at the
// position its event names. It holds at this cut only because the
// restored kernel exports its pending events in the cut's order, which
// about a third of the golden workload's cuts do not (sim.ImportState
// refiles far-wheel events in time order).
func TestPackedImageRoundTrip(t *testing.T) {
	g := testGraph(t)
	for _, nb := range []int{1, 2} {
		snap := midRunCut(t, nb)
		if err := unpackImage(snap); err != nil {
			t.Fatalf("boards=%d: %v", nb, err)
		}
		if len(snap.Boards[0].Held) == 0 {
			t.Fatalf("boards=%d: cut carries no walk in a pending event", nb)
		}
		e, err := ResumeEngine(g, snap, ResumeOptions{})
		if err != nil {
			t.Fatalf("boards=%d: %v", nb, err)
		}
		again, err := e.buildSnapshot()
		if err != nil {
			t.Fatalf("boards=%d: %v", nb, err)
		}
		if !reflect.DeepEqual(again, snap) {
			t.Fatalf("boards=%d: a restored engine re-packs to a different image", nb)
		}
	}
}

// TestPackedRecordsRejectMalformed: truncations, trailing bytes, overlong
// counts and pool indices outside the pool, repeated or out of order are
// errors, never a panic.
func TestPackedRecordsRejectMalformed(t *testing.T) {
	ws := []wstate{{denseBlock: -1, rangeTag: -1, prev: noPrev}, {denseBlock: 3, denseEdge: 9, rangeTag: 2, prev: 5}}
	ws[1].w.Src, ws[1].w.Cur, ws[1].w.Hop = 1<<40, 7, 80
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

	live := func(idx ...uint64) []byte {
		var b []byte
		for _, i := range idx {
			b = binary.AppendUvarint(b, i)
			b = appendWalks(b, nil, nil)
		}
		return b
	}
	pools := map[string]PoolImage{
		"negative-length":   {Len: -1},
		"length-overrun":    {Len: 1 << 40, Live: live(0)},
		"free-out-of-range": {Len: 2, Free: []int32{5}, Live: live(0)},
		"free-repeated":     {Len: 3, Free: []int32{1, 1}, Live: live(0)},
		"live-out-of-order": {Len: 2, Live: live(1, 0)},
		"live-is-free":      {Len: 2, Free: []int32{0}, Live: live(0)},
		"live-out-of-range": {Len: 1, Live: live(3)},
		"trailing":          {Len: 1, Live: append(live(0), 0)},
	}
	for name, img := range pools {
		var batches []walkBatch
		_, err := img.load(minBatchBytes,
			func(n int) { batches = make([]walkBatch, n) },
			func(i, next int32) { batches[i].free = next },
			func(i int32, r *recReader) { batches[i].walks = r.walks(new(boardEngine)) })
		if !errors.Is(err, errPacked) {
			t.Errorf("%s: err %v, want errPacked", name, err)
		}
	}
}

// FuzzSnapshotDecode feeds hostile payloads to the snapshot codec: mutated
// gob payloads of real 1-board and 2-board mid-run cuts, re-sealed so
// Decode gets past the checksum. Decode into a Snapshot must fail or yield
// an image that survives an Encode/Decode round trip unchanged, and every
// packed store of a decoded image must decode or fail cleanly — never
// panic.
func FuzzSnapshotDecode(f *testing.F) {
	for _, nb := range []int{1, 2} {
		data, err := snapshot.Encode(fuzzSnapKind, midRunCut(f, nb))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(containerPayload(data, fuzzSnapKind))
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
