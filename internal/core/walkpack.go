package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"flashwalker/internal/graph"
)

// Packed snapshot records. A snapshot carries every walk it holds — the
// per-block and per-partition stores, slot loads, the fabric's egress
// batches, and the walk, roving batch or fabric transfer each pending event
// carries — as packed binary records rather than one gob struct per walk,
// the way the board moves a walk as a fixed record (walk.StateBytes).
// Building a cut appends the stores to one arena and the records events
// carry to one stream (Snapshot.Carried); the container codec then ships
// each store, and the stream, as a single byte string, and DiffSnapshot
// compares stores byte for byte.
//
// In memory a board's stores, batches and events hold indices into its
// walk table; the packer resolves each index and writes the walk itself,
// and restore files every decoded walk in its board's table. Table, batch
// and transfer indices never reach an image.
//
// One walk record is, in order: Src, Cur and Hop as uvarints, the dense
// block as a zigzag varint, the dense edge as a uvarint, the range tag as a
// zigzag varint, the previous vertex plus one as a uvarint (noPrev packs as
// 0), and the walk's raw 32-byte RNG state, little-endian. A run is a
// uvarint count and that many records: a store, a roving batch, or the one
// walk an event carries. A fabric walk record prefixes its destination
// partition as a zigzag varint, and a fabric transfer is its destination
// board as a zigzag varint and a run of fabric walks. The record stream is
// the carried runs and transfers back to back.
//
// Restore reads records through recReader, which bounds-checks every
// count, index, varint and value: a snapshot crosses a trust boundary on
// recovery, so a malformed image is an error, never a panic or an
// allocation the input does not pay for. A vertex ID past
// graph.MaxVertices-1 is refused, never narrowed to a smaller vertex.

// WalkRecords is a run of packed walk records after a uvarint count; nil
// holds no walks.
type WalkRecords []byte

// Minimum packed sizes, for bounding counts by the bytes that carry them:
// seven one-byte varints and the RNG state make the smallest walk.
const (
	rngBytes       = 32
	minWalkBytes   = 7 + rngBytes
	minFabricBytes = 1 + minWalkBytes
)

// packer appends one snapshot's packed records to a shared arena and hands
// each store out as a capacity-capped window of it, so a cut costs one
// growing allocation instead of one per store. A window stays valid when
// the arena grows: growth copies the arena and never writes the old array.
type packer struct{ buf []byte }

// cut returns the window appended since start (nil if empty).
func (p *packer) cut(start int) []byte {
	if len(p.buf) == start {
		return nil
	}
	return p.buf[start:len(p.buf):len(p.buf)]
}

// walks packs a store of indices into the walk table tab; an empty store
// packs as nil.
func (p *packer) walks(tab []wstate, ws []int32) WalkRecords {
	if len(ws) == 0 {
		return nil
	}
	start := len(p.buf)
	p.buf = appendWalks(p.buf, tab, ws)
	return p.cut(start)
}

func (p *packer) fabricWalks(ws []fabricWalk) WalkRecords {
	if len(ws) == 0 {
		return nil
	}
	start := len(p.buf)
	p.buf = appendFabricWalks(p.buf, ws)
	return p.cut(start)
}

func appendWalk(b []byte, st *wstate) []byte {
	b = binary.AppendUvarint(b, uint64(st.w.Src))
	b = binary.AppendUvarint(b, uint64(st.w.Cur))
	b = binary.AppendUvarint(b, uint64(st.w.Hop))
	b = binary.AppendVarint(b, int64(st.denseBlock))
	b = binary.AppendUvarint(b, st.denseEdge)
	b = binary.AppendVarint(b, int64(st.rangeTag))
	// st.prev+1 wraps noPrev to 0 at the ID's own width.
	b = binary.AppendUvarint(b, uint64(st.prev+1))
	for _, w := range st.rng.State() {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// appendWalks appends a count-prefixed run of the walks ws names in tab.
func appendWalks(b []byte, tab []wstate, ws []int32) []byte {
	b = binary.AppendUvarint(b, uint64(len(ws)))
	for _, w := range ws {
		b = appendWalk(b, &tab[w])
	}
	return b
}

func appendFabricWalks(b []byte, ws []fabricWalk) []byte {
	b = binary.AppendUvarint(b, uint64(len(ws)))
	for i := range ws {
		b = binary.AppendVarint(b, int64(ws[i].p))
		b = appendWalk(b, &ws[i].st)
	}
	return b
}

// appendFabricBatch appends an in-flight fabric transfer.
func appendFabricBatch(b []byte, fb *fabricBatch) []byte {
	b = binary.AppendVarint(b, int64(fb.dst))
	return appendFabricWalks(b, fb.walks)
}

// --- Decoding. ---

var errPacked = errors.New("core: malformed packed snapshot record")

// recReader is a bounds-checked cursor over packed records. The first
// overrun, malformed varint or out-of-range value latches err, after which
// every read returns zero.
type recReader struct {
	b   []byte
	err error
}

func (r *recReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", errPacked, what)
	}
	r.b = nil
}

func (r *recReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated or overlong varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *recReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("truncated or overlong varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *recReader) int32() int32 {
	v := r.varint()
	if v < math.MinInt32 || v > math.MaxInt32 {
		r.fail("value overflows int32")
		return 0
	}
	return int32(v)
}

// count reads a record count and checks that the remaining bytes can hold
// that many records of at least min bytes each.
func (r *recReader) count(min int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/min) {
		r.fail(fmt.Sprintf("count %d overruns %d bytes", n, len(r.b)))
		return 0
	}
	return int(n)
}

// done fails on trailing bytes and returns the latched error.
func (r *recReader) done() error {
	if r.err == nil && len(r.b) != 0 {
		r.fail(fmt.Sprintf("%d trailing bytes", len(r.b)))
	}
	return r.err
}

// vertex reads a vertex ID, which is below graph.MaxVertices.
func (r *recReader) vertex() graph.VertexID {
	v := r.uvarint()
	if v >= graph.MaxVertices {
		r.fail(fmt.Sprintf("vertex %d past %d", v, graph.MaxVertices-1))
		return 0
	}
	return graph.VertexID(v)
}

func (r *recReader) walk(st *wstate) {
	st.w.Src = r.vertex()
	st.w.Cur = r.vertex()
	hop := r.uvarint()
	if hop > math.MaxUint32 {
		r.fail("hop count overflows uint32")
	}
	st.w.Hop = uint32(hop)
	st.denseBlock = r.int32()
	st.denseEdge = r.uvarint()
	st.rangeTag = r.int32()
	// 0 is noPrev and v+1 the vertex v, so the largest is MaxVertices.
	if prev := r.uvarint(); prev > graph.MaxVertices {
		r.fail(fmt.Sprintf("previous vertex %d past %d", prev-1, graph.MaxVertices-1))
	} else {
		st.prev = graph.VertexID(prev) - 1
	}
	if len(r.b) < rngBytes {
		r.fail("truncated RNG state")
		return
	}
	var s [4]uint64
	for i := range s {
		s[i] = binary.LittleEndian.Uint64(r.b[8*i:])
	}
	r.b = r.b[rngBytes:]
	st.rng.SetState(s)
}

// walks reads a count-prefixed run into be's walk table and returns the
// indices; a zero count is a nil run.
func (r *recReader) walks(be *boardEngine) []int32 {
	n := r.count(minWalkBytes)
	if n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = r.tableWalk(be)
	}
	return out
}

// tableWalk reads one walk record into be's walk table.
func (r *recReader) tableWalk(be *boardEngine) int32 {
	var st wstate
	r.walk(&st)
	return be.addWalk(st)
}

func (r *recReader) fabricWalks() []fabricWalk {
	n := r.count(minFabricBytes)
	if n == 0 {
		return nil
	}
	out := make([]fabricWalk, n)
	for i := range out {
		out[i].p = r.int32()
		r.walk(&out[i].st)
	}
	return out
}

// fabricBatch reads a fabric transfer: its destination board and walks.
func (r *recReader) fabricBatch() fabricBatch {
	dst := r.int32()
	return fabricBatch{walks: r.fabricWalks(), dst: dst, free: -1}
}

// unpacker decodes a snapshot's packed walk stores, filing board walks in
// board be's walk table and latching the first malformed store's error.
type unpacker struct {
	be  *boardEngine
	err error
}

func (u *unpacker) walks(rec WalkRecords) []int32 {
	if rec == nil || u.err != nil {
		return nil
	}
	r := recReader{b: rec}
	out := r.walks(u.be)
	u.err = r.done()
	return out
}

func (u *unpacker) fabricWalks(rec WalkRecords) []fabricWalk {
	if rec == nil || u.err != nil {
		return nil
	}
	r := recReader{b: rec}
	out := r.fabricWalks()
	u.err = r.done()
	return out
}
