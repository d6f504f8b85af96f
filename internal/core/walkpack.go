package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"flashwalker/internal/graph"
)

// Packed snapshot records. A snapshot carries every walk it holds — the
// per-block and per-partition stores, roving batches, slot loads, the walks
// pending events carry, the fabric's egress batches and transfers — as
// packed binary records rather than one gob struct per walk, the way the
// board moves a walk as a fixed record (walk.StateBytes). Building a cut
// appends them to one arena; the container codec then ships each store as
// a single byte string, and DiffSnapshot compares stores byte for byte.
//
// In memory a board's stores hold indices into its walk table; the packer
// resolves each index and writes the walk itself, and restore files every
// decoded walk in its board's table. Table indices never reach an image:
// a pending event that carries a walk names its position in the board's
// Held run instead, and restore files Held first, so that position is the
// walk's new index.
//
// One walk record is, in order: Src, Cur and Hop as uvarints, the dense
// block as a zigzag varint, the dense edge as a uvarint, the range tag as a
// zigzag varint, the previous vertex plus one as a uvarint (noPrev packs as
// 0), and the walk's raw 32-byte RNG state, little-endian. A fabric walk
// record prefixes its destination partition as a zigzag varint.
//
// Restore reads records through recReader, which bounds-checks every
// count, index, varint and value: a snapshot crosses a trust boundary on
// recovery, so a malformed image is an error, never a panic or an
// allocation the input does not pay for. A vertex ID past
// graph.MaxVertices-1 is refused, never narrowed to a smaller vertex.

// WalkRecords is a run of packed walk records after a uvarint count; nil
// holds no walks.
type WalkRecords []byte

// PoolImage is a pooled record array (roving batches, fabric transfers)
// exported live-only. A free record holds nothing but its free-list link,
// so the pool's length, its free list in order from the head, and the live
// records restore the pool exactly.
type PoolImage struct {
	// Len is the pool length, live and free records together.
	Len int
	// Free lists the free records, from the head of the free list.
	Free []int32
	// Live packs each of the Len-len(Free) live records, in ascending
	// index order, as its uvarint index followed by the record.
	Live []byte
}

// Minimum packed sizes, for bounding counts by the bytes that carry them:
// seven one-byte varints and the RNG state make the smallest walk.
const (
	rngBytes       = 32
	minWalkBytes   = 7 + rngBytes
	minFabricBytes = 1 + minWalkBytes
	minBatchBytes  = 1 // an empty walk run
	minFBatchBytes = 2 // destination and walk count
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

// pool exports a pool of n records whose free list starts at head and
// follows link, appending each live record i with put. It fails only on a
// free list that revisits a record.
func (p *packer) pool(n int, head int32, link func(int32) int32, put func([]byte, int32) []byte) (PoolImage, error) {
	img := PoolImage{Len: n}
	free := make([]bool, n)
	for i := head; i >= 0; i = link(i) {
		if free[i] {
			return img, fmt.Errorf("core: snapshot: free list revisits record %d", i)
		}
		free[i] = true
		img.Free = append(img.Free, i)
	}
	start := len(p.buf)
	for i := int32(0); int(i) < n; i++ {
		if !free[i] {
			p.buf = binary.AppendUvarint(p.buf, uint64(i))
			p.buf = put(p.buf, i)
		}
	}
	img.Live = p.cut(start)
	return img, nil
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

// load validates a pool image whose live records take at least min bytes
// each. It calls alloc once with the pool length (bounded by the image's
// bytes), then free(i, next) for every free record in list order and
// live(i, r) to read every live record, and returns the free-list head.
func (img *PoolImage) load(min int, alloc func(n int), free func(i, next int32), live func(i int32, r *recReader)) (int32, error) {
	nLive := img.Len - len(img.Free)
	if img.Len < 0 || nLive < 0 || nLive > len(img.Live)/(1+min) {
		return -1, fmt.Errorf("%w: pool of %d records with %d free and %d live bytes",
			errPacked, img.Len, len(img.Free), len(img.Live))
	}
	alloc(img.Len)
	seen := make([]bool, img.Len)
	for k, i := range img.Free {
		if i < 0 || int(i) >= img.Len || seen[i] {
			return -1, fmt.Errorf("%w: free-list entry %d outside the pool or repeated", errPacked, i)
		}
		seen[i] = true
		next := int32(-1)
		if k+1 < len(img.Free) {
			next = img.Free[k+1]
		}
		free(i, next)
	}
	r := recReader{b: img.Live}
	prev := int64(-1)
	for k := 0; k < nLive && r.err == nil; k++ {
		i := r.uvarint()
		if int64(i) <= prev || i >= uint64(img.Len) || seen[i] {
			r.fail(fmt.Sprintf("live index %d out of order, outside the pool or free", i))
			break
		}
		prev = int64(i)
		live(int32(i), &r)
	}
	if err := r.done(); err != nil {
		return -1, err
	}
	if len(img.Free) == 0 {
		return -1, nil
	}
	return img.Free[0], nil
}
