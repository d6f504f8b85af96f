package core

import "testing"

// TestSnapshotDeltaSelf pins the delta layer's basic: diffing a snapshot
// against itself dirties nothing.
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
}

// dirtyStores counts the store entries a delta carries, across boards.
func dirtyStores(d *SnapshotDelta) int {
	n := 0
	for _, sd := range d.Stores {
		n += len(sd.Blocks) + len(sd.Parts)
	}
	return n
}
