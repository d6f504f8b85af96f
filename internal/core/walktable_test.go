package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"
	"unsafe"

	"flashwalker/internal/graph"
	"flashwalker/internal/sim"
)

// packedStoreDigest hashes every packed walk store and pool image of a cut
// in a fixed order: per board the PWB, FLS and both pending lists, the
// switch read-back, each chip's roving buffer and slot loads, the walks
// pending events carry and the roving-batch pool; then the fabric's egress
// batches and its transfer pool. Every byte string is length-prefixed, so
// a byte moving between two stores changes the digest too.
func packedStoreDigest(s *Snapshot) string {
	h := sha256.New()
	put := func(b []byte) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	for b := range s.Boards {
		img := &s.Boards[b]
		for _, stores := range [][]WalkRecords{img.PWB, img.FLS, img.PendingMem, img.PendingFlash} {
			for _, rec := range stores {
				put(rec)
			}
		}
		put(img.SwitchWalks)
		for _, c := range img.Chips {
			put(c.Roving)
			for _, sl := range c.Slots {
				put(sl.LoadWalks)
			}
		}
		put(img.Held)
		hashPool(h, &img.Batches, put)
	}
	for _, row := range s.Egress {
		for _, es := range row {
			put(es.Walks)
		}
	}
	hashPool(h, &s.FBatches, put)
	return hex.EncodeToString(h.Sum(nil))
}

func hashPool(h hash.Hash, img *PoolImage, put func([]byte)) {
	b := binary.AppendVarint(nil, int64(img.Len))
	for _, i := range img.Free {
		b = binary.AppendVarint(b, int64(i))
	}
	put(b)
	put(img.Live)
}

// TestWalkStateSize pins the walk-table record at one 64-byte cache line
// and a walk at 12 bytes: 4-byte vertex IDs, int32 block and range tags,
// no padding.
func TestWalkStateSize(t *testing.T) {
	if got := unsafe.Sizeof(wstate{}); got != 64 {
		t.Errorf("wstate is %d bytes, want 64", got)
	}
	if got := unsafe.Sizeof(wstate{}.w); got != 12 {
		t.Errorf("walk.Walk is %d bytes, want 12", got)
	}
}

// TestPackedStoreDigest pins the packed walk stores and pool images of
// golden-workload cuts early, mid-run and late, on one board and two. The
// engine's in-memory walk layout is free to change; the records a cut
// packs are not, because resume reads them.
func TestPackedStoreDigest(t *testing.T) {
	want := map[string]string{
		"boards=1/cut=1":  "013befc72ac37f678a3e780756b348c3568cd9cb992ca702e91b420f8f7ba9da",
		"boards=1/cut=5":  "42f325caac21a7d5615800ef06b822b0cd0de00bab8da30e9bcb6d1166623cb1",
		"boards=1/cut=20": "79df15a9c6459927f3db6da1dd535d4c31393430fd371219a5d2ccfc14422d08",
		"boards=2/cut=1":  "b3061b8b78bcaf268a46892e73d51f9c5b005ed4c7ea96faa40f62848aceeac0",
		"boards=2/cut=5":  "53e8abd20915cc87675049e30043e724af14a61406ec8ffa5dda269281102849",
		"boards=2/cut=20": "4fe4951a1671f955d6a6bcca7a22719d25e8bf9dd4b404f19f0b49309b196fdf",
	}
	g := testGraph(t)
	for _, nb := range []int{1, 2} {
		for _, cut := range []int{1, 5, 20} {
			name := fmt.Sprintf("boards=%d/cut=%d", nb, cut)
			s := interruptCore(t, g, arrayConfig(nb), cut)
			if got := packedStoreDigest(s); got != want[name] {
				t.Errorf("%s: packed stores digest %s, want %s", name, got, want[name])
			}
		}
	}
}

// TestWalkTableDrains runs the golden workload with the conservation audit
// on — which checks every board's walk table against its stores and tiers
// at each partition switch — on one, two and four boards, with faults, a
// board kill and a timed mutation stream, and requires every table to end
// the run empty: each finished walk freed its index and each walk that
// left over the fabric was copied out.
func TestWalkTableDrains(t *testing.T) {
	g := testGraph(t)
	mg, edges := mutTestGraph(t, false)
	mutated := func(nb int) RunConfig {
		rc := mutConfig(false)
		rc.Cfg.Boards = nb
		ms := mutStream(edges, false)
		rc.Mutations = timedStream(ms, midStreamTimes(t, len(ms), probeClocks(t, mg, rc)))
		return rc
	}
	faulty := func(nb int) RunConfig {
		rc := arrayConfig(nb)
		rc.Cfg.Faults = resumeFaultConfig()
		return rc
	}
	cases := []struct {
		name string
		g    *graph.Graph
		rc   RunConfig
	}{
		{"boards=1", g, arrayConfig(1)},
		{"boards=1/faults", g, faulty(1)},
		{"boards=2", g, arrayConfig(2)},
		{"boards=2/faults", g, faulty(2)},
		{"boards=4/kill", g, killConfig(4, 1, 200*sim.Microsecond)},
		{"boards=4/mutations", mg, mutated(4)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.rc.Audit {
				t.Fatal("workload runs without the conservation audit")
			}
			x, err := NewEngine(tc.g, tc.rc)
			if err != nil {
				t.Fatal(err)
			}
			res, err := x.RunContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if tc.rc.Cfg.Faults.KillBoardAt > 0 && res.BoardKills != 1 {
				t.Fatalf("%d board kills, want 1", res.BoardKills)
			}
			if n := len(tc.rc.Mutations); n > 0 && res.MutationsApplied != uint64(n) {
				t.Fatalf("%d of %d mutations applied", res.MutationsApplied, n)
			}
			for b, be := range x.boards {
				if n := be.liveWalks(); n != 0 {
					t.Errorf("board %d walk table holds %d live walks after the run", b, n)
				}
			}
		})
	}
}
