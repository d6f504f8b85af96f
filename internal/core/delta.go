package core

import (
	"fmt"
	"slices"
)

// Delta snapshots. A full Snapshot is dominated by each board's per-block
// walk stores (PWB/FLS) and per-partition pending stores — and between two
// consecutive checkpoint cuts only the stores the schedulers actually
// touched change. A SnapshotDelta carries the full scalar state (cheap)
// plus only the dirtied store slices of every board, chained to the exact
// container it diffs against by that container's SHA-256 seal. Deltas are a
// storage-layer construct: resume reconstructs the full image with
// ApplyDelta and hands it to the unchanged ResumeEngine path, so the
// engine's restore logic and its bit-identical-resume invariant are
// untouched.

// SnapshotDelta is the difference between two consecutive snapshot cuts of
// the same run.
type SnapshotDelta struct {
	// BaseSHA is the container seal (snapshot.Seal) of the encoded image
	// this delta chains to: the preceding full snapshot container or the
	// preceding delta container. Application verifies it, so a delta can
	// never be applied to the wrong base.
	BaseSHA [32]byte
	// Chain is this delta's 1-based position in the chain since the last
	// full snapshot.
	Chain int
	// Body is the cut's complete snapshot minus every board's big store
	// slices (PWB, FLS, PendingMem, PendingFlash are nil'd out).
	Body Snapshot
	// Stores holds the dirtied stores of each board that has any.
	Stores []StoreDelta
}

// StoreDelta is one board's dirtied stores at a cut.
type StoreDelta struct {
	// Board indexes Body.Boards.
	Board int
	// Blocks lists the dirtied block indices; PWB[i] and FLS[i] are block
	// Blocks[i]'s stores at the cut.
	Blocks []int
	PWB    []WalkRecords
	FLS    []WalkRecords
	// Parts lists the dirtied partition indices; PendingMem[i] and
	// PendingFlash[i] are partition Parts[i]'s stores at the cut.
	Parts        []int
	PendingMem   []WalkRecords
	PendingFlash []WalkRecords
}

// DiffSnapshot builds the delta from base to cur, chained to the encoded
// base image's seal. Store slices are shared with cur, not copied:
// snapshots are built fresh per cut and treated as immutable afterwards.
func DiffSnapshot(base, cur *Snapshot, baseSHA [32]byte, chain int) *SnapshotDelta {
	d := &SnapshotDelta{BaseSHA: baseSHA, Chain: chain, Body: *cur}
	d.Body.Boards = make([]BoardImage, len(cur.Boards))
	for b := range cur.Boards {
		c := &cur.Boards[b]
		d.Body.Boards[b] = *c
		body := &d.Body.Boards[b]
		body.PWB, body.FLS, body.PendingMem, body.PendingFlash = nil, nil, nil, nil
		var old BoardImage
		if b < len(base.Boards) {
			old = base.Boards[b]
		}
		sd := StoreDelta{Board: b}
		for i := range c.PWB {
			if i < len(old.PWB) && i < len(old.FLS) &&
				slices.Equal(old.PWB[i], c.PWB[i]) && slices.Equal(old.FLS[i], c.FLS[i]) {
				continue
			}
			sd.Blocks = append(sd.Blocks, i)
			sd.PWB = append(sd.PWB, c.PWB[i])
			sd.FLS = append(sd.FLS, c.FLS[i])
		}
		for p := range c.PendingMem {
			if p < len(old.PendingMem) && p < len(old.PendingFlash) &&
				slices.Equal(old.PendingMem[p], c.PendingMem[p]) &&
				slices.Equal(old.PendingFlash[p], c.PendingFlash[p]) {
				continue
			}
			sd.Parts = append(sd.Parts, p)
			sd.PendingMem = append(sd.PendingMem, c.PendingMem[p])
			sd.PendingFlash = append(sd.PendingFlash, c.PendingFlash[p])
		}
		if len(sd.Blocks) > 0 || len(sd.Parts) > 0 {
			d.Stores = append(d.Stores, sd)
		}
	}
	return d
}

// ApplyDelta reconstructs the full snapshot a delta describes: the delta's
// body plus the base's store slices with the dirtied entries replaced.
// Clean stores are shared with base (snapshots are immutable), so chain
// application allocates only the per-cut bookkeeping and never writes into
// base. The caller verifies BaseSHA against the actual base container
// before calling. A delta that does not fit its base — another board
// count, other store sizes, indices out of range, index and store lists of
// different lengths — is an error: deltas cross a trust boundary on
// recovery.
func ApplyDelta(base *Snapshot, d *SnapshotDelta) (*Snapshot, error) {
	if base == nil || d == nil {
		return nil, fmt.Errorf("core: apply delta: nil base or delta")
	}
	if len(d.Body.Boards) != len(base.Boards) {
		return nil, fmt.Errorf("core: delta covers %d boards, base has %d", len(d.Body.Boards), len(base.Boards))
	}
	full := d.Body
	full.Boards = slices.Clone(d.Body.Boards)
	for b := range full.Boards {
		fb, bb := &full.Boards[b], &base.Boards[b]
		nb, np := len(fb.PWBBytes), len(fb.FlushMark)
		if len(bb.PWB) != nb || len(bb.FLS) != nb {
			return nil, fmt.Errorf("core: delta board %d sized for %d blocks, base has %d", b, nb, len(bb.PWB))
		}
		if len(bb.PendingMem) != np || len(bb.PendingFlash) != np {
			return nil, fmt.Errorf("core: delta board %d sized for %d partitions, base has %d", b, np, len(bb.PendingMem))
		}
		fb.PWB, fb.FLS = slices.Clone(bb.PWB), slices.Clone(bb.FLS)
		fb.PendingMem, fb.PendingFlash = slices.Clone(bb.PendingMem), slices.Clone(bb.PendingFlash)
	}
	for _, sd := range d.Stores {
		if sd.Board < 0 || sd.Board >= len(full.Boards) {
			return nil, fmt.Errorf("core: delta board index %d outside [0, %d)", sd.Board, len(full.Boards))
		}
		if len(sd.PWB) != len(sd.Blocks) || len(sd.FLS) != len(sd.Blocks) {
			return nil, fmt.Errorf("core: delta block stores (%d/%d) disagree with index list (%d)",
				len(sd.PWB), len(sd.FLS), len(sd.Blocks))
		}
		if len(sd.PendingMem) != len(sd.Parts) || len(sd.PendingFlash) != len(sd.Parts) {
			return nil, fmt.Errorf("core: delta partition stores (%d/%d) disagree with index list (%d)",
				len(sd.PendingMem), len(sd.PendingFlash), len(sd.Parts))
		}
		fb := &full.Boards[sd.Board]
		for i, blk := range sd.Blocks {
			if blk < 0 || blk >= len(fb.PWB) {
				return nil, fmt.Errorf("core: delta block index %d outside [0, %d)", blk, len(fb.PWB))
			}
			fb.PWB[blk], fb.FLS[blk] = sd.PWB[i], sd.FLS[i]
		}
		for i, p := range sd.Parts {
			if p < 0 || p >= len(fb.PendingMem) {
				return nil, fmt.Errorf("core: delta partition index %d outside [0, %d)", p, len(fb.PendingMem))
			}
			fb.PendingMem[p], fb.PendingFlash[p] = sd.PendingMem[i], sd.PendingFlash[i]
		}
	}
	return &full, nil
}
