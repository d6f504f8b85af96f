package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"
	"unsafe"

	"flashwalker/internal/graph"
	"flashwalker/internal/sim"
)

// packedStoreDigest hashes every packed walk store of a cut and every
// record its pending events carry, in a fixed order: per board the PWB,
// FLS and both pending lists, the switch read-back, each chip's roving
// buffer and slot loads; then the fabric's egress batches; then the
// carried records in stream order (eachRecord). Every byte string is
// length-prefixed, so a byte moving between two stores changes the digest
// too.
func packedStoreDigest(t testing.TB, s *Snapshot) string {
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
	}
	for _, row := range s.Egress {
		for _, es := range row {
			put(es.Walks)
		}
	}
	eachRecord(t, s, func(_ int32, _ uint16, rec []byte) { put(rec) })
	return hex.EncodeToString(h.Sum(nil))
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

// TestPackedStoreDigest pins the packed walk stores and carried records of
// golden-workload cuts early, mid-run and late, on one board and two. The
// engine's in-memory walk layout is free to change; the records a cut
// packs are not, because resume reads them.
func TestPackedStoreDigest(t *testing.T) {
	want := map[string]string{
		"boards=1/cut=1":  "80aa50169e9e77a02ee8103fa1a8a31e00f162906a48b3d4ffe1f081e25a9e7c",
		"boards=1/cut=5":  "e1354ddf4e4e21c16e40cc95bb98f4e034e91f4855fe2673c60fb7fe8cd1eb96",
		"boards=1/cut=20": "0f6e07b97fb7b21c07f90444fb8ebcdaf1a74e975d5ed8b4ca6071bed117ed66",
		"boards=2/cut=1":  "e803e8ec0ba1f7d5c23b190f6673bb58d30903439b40446ab3721d35fc547417",
		"boards=2/cut=5":  "9005967c8d02c1937bd868ece89b1a465928cbb758563e9363f6a0f3691cfbe9",
		"boards=2/cut=20": "1a4ec07d07b8c40445ea0904c3cf3e278282b8a47d5e9999515bffb5099190d6",
	}
	g := testGraph(t)
	for _, nb := range []int{1, 2} {
		for _, cut := range []int{1, 5, 20} {
			name := fmt.Sprintf("boards=%d/cut=%d", nb, cut)
			s := interruptCore(t, g, arrayConfig(nb), cut)
			if got := packedStoreDigest(t, s); got != want[name] {
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
