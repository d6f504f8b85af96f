package core

import "slices"

// Delta snapshots. Between two consecutive checkpoint cuts only the walk
// stores the schedulers touched change, so a SnapshotDelta carries the
// cut's scalar state plus only the dirtied store slices of every board.
// No run path writes or reads one: at the walk service's cadence nearly
// every store changes between cuts, so a delta is the full image plus a
// header, and each checkpoint the service keeps is a full image.
// DiffSnapshot, SnapshotDelta and StoreDelta stay only for the benchmark's
// snapshot probe (bench/layers.go), which times a delta encode beside the
// full one.

// SnapshotDelta is the difference between two consecutive snapshot cuts of
// the same run.
type SnapshotDelta struct {
	// BaseSHA is the container seal (snapshot.Seal) of the encoded image
	// this delta was diffed against.
	BaseSHA [32]byte
	// Chain is this delta's 1-based position after its full image.
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

// DiffSnapshot builds the delta from base to cur, naming the encoded base
// image by its seal. Store slices are shared with cur, not copied:
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
