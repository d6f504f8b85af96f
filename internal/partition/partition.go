// Package partition splits a graph into fixed-size graph blocks (the
// paper's subgraphs), builds the subgraph mapping table, the subgraph
// range table used by the approximate walk search, and the dense-vertices
// mapping table used by pre-walking, and assigns blocks to flash chips.
//
// Terminology follows the paper (§III-D):
//
//   - A *graph block* stores a run of consecutive vertices and all their
//     out-edges in CSR form within a fixed byte budget. Because vertices
//     have varying degree, blocks hold varying numbers of vertices.
//   - A *dense vertex* has more out-edges than fit in one block; its edges
//     are split across several consecutive dense blocks, each holding a
//     contiguous slice of the edge list.
//   - A *partition* is a fixed-length run of consecutive blocks. The
//     engine processes one partition at a time; walks leaving the current
//     partition are "foreigners".
//   - A *range* is a fixed-length run of consecutive blocks used by
//     channel-level accelerators to answer approximate (range-granular)
//     walk queries against a table RangeSize× smaller than the full
//     mapping table.
package partition

import (
	"fmt"
	"math"

	"flashwalker/internal/bloom"
	"flashwalker/internal/errs"
	"flashwalker/internal/graph"
)

// Config controls partitioning.
type Config struct {
	// BlockBytes is the graph-block payload capacity (the paper uses
	// 256 KB, 512 KB for ClueWeb; the scaled defaults here are smaller).
	BlockBytes int64
	// IDBytes is the on-flash width of a vertex ID (4 or 8, Table IV).
	IDBytes int
	// SubgraphsPerPartition is the number of blocks per graph partition.
	SubgraphsPerPartition int
	// RangeSize is the number of blocks per subgraph range (paper example:
	// 256).
	RangeSize int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.BlockBytes <= 0 {
		return fmt.Errorf("partition: BlockBytes %d <= 0", c.BlockBytes)
	}
	if c.IDBytes != 4 && c.IDBytes != 8 {
		return fmt.Errorf("partition: IDBytes %d not 4 or 8", c.IDBytes)
	}
	if c.SubgraphsPerPartition <= 0 {
		return fmt.Errorf("partition: SubgraphsPerPartition %d <= 0", c.SubgraphsPerPartition)
	}
	if c.RangeSize <= 0 {
		return fmt.Errorf("partition: RangeSize %d <= 0", c.RangeSize)
	}
	return nil
}

// EdgeBytes reports the per-edge storage cost for a graph (ID plus a float32
// weight when weighted).
func (c Config) EdgeBytes(weighted bool) int64 {
	b := int64(c.IDBytes)
	if weighted {
		b += 4
	}
	return b
}

// EdgesPerBlock reports the dense-vertex threshold: the largest out-degree
// that still fits one block alongside its vertex header. A vertex above it
// is dense, and a mutation stream must keep every touched vertex at or
// below it so the frozen partition skeleton stays valid (no density flips,
// no block overflow).
func (c Config) EdgesPerBlock(weighted bool) uint64 {
	return uint64((c.BlockBytes - int64(c.IDBytes)) / c.EdgeBytes(weighted))
}

// Block describes one graph block (one subgraph mapping table entry: the two
// end vertices, the flash address — assigned by Placement — and the summed
// out-degree, per paper §III-D).
type Block struct {
	ID int
	// LowVertex..HighVertex is the inclusive vertex range stored here. For
	// a dense block both equal the dense vertex.
	LowVertex, HighVertex graph.VertexID
	// SumOutDeg is the number of edges stored in this block.
	SumOutDeg uint64
	// Bytes is the payload size.
	Bytes int64
	// Dense marks a block holding a slice of a dense vertex's edges.
	Dense bool
	// DenseEdgeStart is the offset of this block's first edge within the
	// dense vertex's edge list (0 for non-dense blocks).
	DenseEdgeStart uint64
}

// DenseMeta is the dense-vertices mapping table payload (paper §III-D): the
// number of graph blocks of the vertex, the ID of its first block, and the
// out-degree stored in the last block.
type DenseMeta struct {
	Vertex       graph.VertexID
	NumBlocks    int
	FirstBlockID int
	LastBlockDeg uint64
	// EdgesPerBlock is size(gb) in the pre-walking formula: every block of
	// the vertex except the last holds exactly this many edges.
	EdgesPerBlock uint64
	OutDegree     uint64
}

// DenseTable is the bloom filter + hash table combination of §III-D. The
// filter's answer for every vertex of the graph, false positives included,
// is recorded once when the table is built, one bit per vertex, so the
// guider's membership check reads a bit instead of hashing; the modelled
// check is still the filter's.
type DenseTable struct {
	filter  *bloom.Filter
	answers []uint64 // bit v%64 of word v/64: the filter's answer for v
	meta    map[graph.VertexID]DenseMeta
}

// Contains returns the bloom filter's membership answer for v, a vertex of
// the graph. False is authoritative.
func (d *DenseTable) Contains(v graph.VertexID) bool { return d.answers[v>>6]>>(v&63)&1 != 0 }

// Lookup returns the metadata for v; ok is false on a bloom false positive
// (the hash table misses, so the caller falls back to the normal mapping
// table — the correctness argument in the paper).
func (d *DenseTable) Lookup(v graph.VertexID) (DenseMeta, bool) {
	m, ok := d.meta[v]
	return m, ok
}

// Len reports the number of dense vertices.
func (d *DenseTable) Len() int { return len(d.meta) }

// FilterBytes reports the bloom filter size.
func (d *DenseTable) FilterBytes() int { return d.filter.SizeBytes() }

// Range is one subgraph-range mapping table entry: the low-end and high-end
// vertex of a run of RangeSize consecutive blocks.
type Range struct {
	ID                    int
	LowVertex, HighVertex graph.VertexID
	FirstBlock, LastBlock int // inclusive block span
}

// Partitioned is the partitioning result.
type Partitioned struct {
	G      *graph.Graph
	Cfg    Config
	Blocks []Block
	// table holds IDs of non-dense blocks in vertex order; it is the
	// subgraph mapping table the board-level guider binary-searches.
	table []int
	// tabLow/tabHigh/tabID are the mapping table's boundary columns in
	// flat struct-of-arrays form: a search probe reads two adjacent vertex
	// IDs instead of dereferencing a full Block record, so the hot binary
	// searches stay inside a handful of cache lines. Parallel to table.
	tabLow, tabHigh []graph.VertexID
	tabID           []int32
	// rngLow/rngHigh mirror Ranges the same way for RangeOf.
	rngLow, rngHigh []graph.VertexID
	Dense           *DenseTable
	Ranges          []Range
	// NumPartitions is ceil(len(Blocks)/SubgraphsPerPartition).
	NumPartitions int
	// vertexBlock maps each vertex to the non-dense block holding it, -1
	// for a dense vertex (see VertexBlocks).
	vertexBlock []int32
}

// Partition splits g according to cfg.
func Partition(g *graph.Graph, cfg Config) (*Partitioned, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	edgeBytes := cfg.EdgeBytes(g.Weighted())
	vertexHeader := int64(cfg.IDBytes) // per-vertex offset entry
	// Dense threshold: a vertex that cannot fit alone in one block.
	edgesPerBlock := uint64((cfg.BlockBytes - vertexHeader) / edgeBytes)
	if edgesPerBlock == 0 {
		return nil, fmt.Errorf("partition: BlockBytes %d cannot hold a single edge", cfg.BlockBytes)
	}

	p := &Partitioned{G: g, Cfg: cfg}
	denseMeta := map[graph.VertexID]DenseMeta{}

	var cur *Block
	var curBytes int64
	flush := func() {
		if cur != nil {
			cur.Bytes = curBytes
			p.Blocks = append(p.Blocks, *cur)
			p.table = append(p.table, cur.ID)
			cur = nil
			curBytes = 0
		}
	}
	n := g.NumVertices()
	for v := graph.VertexID(0); uint64(v) < n; v++ {
		deg := g.OutDegree(v)
		need := vertexHeader + int64(deg)*edgeBytes
		if need > cfg.BlockBytes {
			// Dense vertex: close the running block and emit dedicated
			// dense blocks.
			flush()
			numBlocks := int((deg + edgesPerBlock - 1) / edgesPerBlock)
			first := len(p.Blocks)
			remaining := deg
			var start uint64
			for b := 0; b < numBlocks; b++ {
				take := edgesPerBlock
				if remaining < take {
					take = remaining
				}
				p.Blocks = append(p.Blocks, Block{
					ID:             len(p.Blocks),
					LowVertex:      v,
					HighVertex:     v,
					SumOutDeg:      take,
					Bytes:          vertexHeader + int64(take)*edgeBytes,
					Dense:          true,
					DenseEdgeStart: start,
				})
				start += take
				remaining -= take
			}
			denseMeta[v] = DenseMeta{
				Vertex:        v,
				NumBlocks:     numBlocks,
				FirstBlockID:  first,
				LastBlockDeg:  deg - uint64(numBlocks-1)*edgesPerBlock,
				EdgesPerBlock: edgesPerBlock,
				OutDegree:     deg,
			}
			continue
		}
		if cur != nil && curBytes+need > cfg.BlockBytes {
			flush()
		}
		if cur == nil {
			cur = &Block{ID: len(p.Blocks), LowVertex: v, HighVertex: v}
		}
		cur.HighVertex = v
		cur.SumOutDeg += deg
		curBytes += need
	}
	flush()

	if len(p.Blocks) == 0 {
		// Degenerate zero-vertex graph: one empty block keeps downstream
		// bookkeeping uniform.
		p.Blocks = append(p.Blocks, Block{ID: 0})
		p.table = append(p.table, 0)
	}
	if err := checkBlocks(len(p.Blocks)); err != nil {
		return nil, err
	}

	// Dense table: bloom sized for the dense population.
	f := bloom.New(maxInt(len(denseMeta), 1), 0.001)
	for v := range denseMeta {
		f.Add(uint64(v))
	}
	answers := make([]uint64, (n+63)/64)
	for v := uint64(0); v < n; v++ {
		if f.Contains(v) {
			answers[v>>6] |= 1 << (v & 63)
		}
	}
	p.Dense = &DenseTable{filter: f, answers: answers, meta: denseMeta}

	// Ranges over all blocks.
	for first := 0; first < len(p.Blocks); first += cfg.RangeSize {
		last := first + cfg.RangeSize - 1
		if last >= len(p.Blocks) {
			last = len(p.Blocks) - 1
		}
		p.Ranges = append(p.Ranges, Range{
			ID:         len(p.Ranges),
			LowVertex:  p.Blocks[first].LowVertex,
			HighVertex: p.Blocks[last].HighVertex,
			FirstBlock: first,
			LastBlock:  last,
		})
	}

	p.NumPartitions = (len(p.Blocks) + cfg.SubgraphsPerPartition - 1) / cfg.SubgraphsPerPartition

	// Flatten the search columns (see the field comments).
	p.tabLow = make([]graph.VertexID, len(p.table))
	p.tabHigh = make([]graph.VertexID, len(p.table))
	p.tabID = make([]int32, len(p.table))
	for i, id := range p.table {
		b := &p.Blocks[id]
		p.tabLow[i], p.tabHigh[i], p.tabID[i] = b.LowVertex, b.HighVertex, int32(id)
	}
	p.rngLow = make([]graph.VertexID, len(p.Ranges))
	p.rngHigh = make([]graph.VertexID, len(p.Ranges))
	for i := range p.Ranges {
		p.rngLow[i], p.rngHigh[i] = p.Ranges[i].LowVertex, p.Ranges[i].HighVertex
	}
	p.vertexBlock = make([]int32, n)
	for i := range p.Blocks {
		b := &p.Blocks[i]
		if b.Dense {
			p.vertexBlock[b.LowVertex] = -1
			continue
		}
		for v := b.LowVertex; v <= b.HighVertex && uint64(v) < n; v++ {
			p.vertexBlock[v] = int32(i)
		}
	}
	return p, nil
}

// checkBlocks refuses more blocks than an int32 holds: the walk records,
// the mapping table's ID column and the vertex-to-block index keep block
// IDs as int32.
func checkBlocks(n int) error {
	if n > math.MaxInt32 {
		return fmt.Errorf("partition: %d blocks, at most %d: %w", n, math.MaxInt32, errs.ErrInvalidConfig)
	}
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// NumBlocks reports the total number of graph blocks.
func (p *Partitioned) NumBlocks() int { return len(p.Blocks) }

// TableLen reports the number of entries in the (non-dense) subgraph
// mapping table.
func (p *Partitioned) TableLen() int { return len(p.table) }

// TableEntry returns the i-th mapping-table block ID (entries are sorted by
// LowVertex by construction).
func (p *Partitioned) TableEntry(i int) int { return p.table[i] }

// PartitionOf reports the partition index of a block.
func (p *Partitioned) PartitionOf(blockID int) int {
	return blockID / p.Cfg.SubgraphsPerPartition
}

// PartitionSpan returns the inclusive block-ID span of partition pi.
func (p *Partitioned) PartitionSpan(pi int) (first, last int) {
	first = pi * p.Cfg.SubgraphsPerPartition
	last = first + p.Cfg.SubgraphsPerPartition - 1
	if last >= len(p.Blocks) {
		last = len(p.Blocks) - 1
	}
	return first, last
}

// VertexBlocks returns the vertex-to-block index: entry v is the non-dense
// block whose range holds v (the block BlockOf finds), or -1 when v is
// dense. The slice is shared by every user of the partitioning and must not
// be modified. The walk query caches answer a probe from it in O(1); the
// modelled mapping-table search still goes through BlockOf, whose step
// count the guider's cost model charges.
func (p *Partitioned) VertexBlocks() []int32 { return p.vertexBlock }

// BlockOf binary-searches the subgraph mapping table for the non-dense block
// containing v. It returns the block ID and the number of search steps the
// hardware would perform (for the guider cost model). It returns -1 when v
// is not covered by any non-dense block (i.e. v is dense — callers must
// consult the dense table first, as the board-level guider does).
func (p *Partitioned) BlockOf(v graph.VertexID) (blockID, steps int) {
	return p.searchTable(v, 0, len(p.table)-1)
}

// BlockOfInRange is BlockOf restricted to the table entries of range r —
// the reduced search a board-level guider performs on a walk tagged by a
// channel-level approximate query.
func (p *Partitioned) BlockOfInRange(v graph.VertexID, r Range) (blockID, steps int) {
	lo := p.lowerTableIndex(r.FirstBlock)
	hi := p.upperTableIndex(r.LastBlock)
	return p.searchTable(v, lo, hi)
}

// lowerTableIndex finds the first table index whose block ID >= blockID.
func (p *Partitioned) lowerTableIndex(blockID int) int {
	lo, hi := 0, len(p.table)
	for lo < hi {
		mid := (lo + hi) / 2
		if p.table[mid] < blockID {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperTableIndex finds the last table index whose block ID <= blockID.
func (p *Partitioned) upperTableIndex(blockID int) int {
	lo, hi := 0, len(p.table)
	for lo < hi {
		mid := (lo + hi) / 2
		if p.table[mid] <= blockID {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// searchTable runs the guider's binary search over the flattened boundary
// columns. The loop (and so the modelled step count) is identical to a
// search over the Block records; only the memory layout differs.
func (p *Partitioned) searchTable(v graph.VertexID, lo, hi int) (blockID, steps int) {
	low, high := p.tabLow, p.tabHigh
	for lo <= hi {
		steps++
		mid := (lo + hi) / 2
		switch {
		case v < low[mid]:
			hi = mid - 1
		case v > high[mid]:
			lo = mid + 1
		default:
			return int(p.tabID[mid]), steps
		}
	}
	return -1, steps
}

// RangeOf binary-searches the subgraph range table for the range containing
// v, returning the range index and search steps. Every vertex (dense or
// not) is covered by exactly one range.
func (p *Partitioned) RangeOf(v graph.VertexID) (rangeID, steps int) {
	low, high := p.rngLow, p.rngHigh
	lo, hi := 0, len(low)-1
	for lo <= hi {
		steps++
		mid := (lo + hi) / 2
		switch {
		case v < low[mid]:
			hi = mid - 1
		case v > high[mid]:
			lo = mid + 1
		default:
			return mid, steps
		}
	}
	return -1, steps
}

// DenseBlockFor implements pre-walking's block selection (paper §III-D):
// given a dense vertex's metadata and the raw random edge index rnd in
// [0, outDegree), it returns the block ID holding that edge and the offset
// of the edge within the block.
func DenseBlockFor(m DenseMeta, rnd uint64) (blockID int, edgeInBlock uint64) {
	b := rnd / m.EdgesPerBlock
	return m.FirstBlockID + int(b), rnd % m.EdgesPerBlock
}

// BlockEdges returns the global edge-index span [first, last) of the edges
// stored in block b.
func (p *Partitioned) BlockEdges(b *Block) (first, last uint64) {
	off := p.G.Offsets
	if b.Dense {
		first = off[b.LowVertex] + b.DenseEdgeStart
		return first, first + b.SumOutDeg
	}
	return off[b.LowVertex], off[b.HighVertex+1]
}

// Pages reports the number of flash pages of size pageBytes block b
// occupies.
func (p *Partitioned) Pages(b *Block, pageBytes int64) int {
	if b.Bytes == 0 {
		return 1
	}
	return int((b.Bytes + pageBytes - 1) / pageBytes)
}

// EdgeKey combines a directed edge's endpoints into one filter key. Both
// IDs are widened to 64 bits before they are mixed.
func EdgeKey(src, dst graph.VertexID) uint64 {
	return uint64(src)*0x100000001b3 ^ uint64(dst)
}

// EdgeFilter builds a Bloom filter over the graph's directed edges. The
// in-storage second-order walk sampler keeps it in on-board DRAM to answer
// "is x a neighbor of the walk's previous vertex" without loading that
// vertex's subgraph; false positives slightly overweight the
// common-neighbor class, which rejection sampling tolerates.
func EdgeFilter(g *graph.Graph, fp float64) *bloom.Filter {
	f := bloom.New(int(g.NumEdges())+1, fp)
	for v := graph.VertexID(0); uint64(v) < g.NumVertices(); v++ {
		for _, d := range g.OutEdges(v) {
			f.Add(EdgeKey(v, d))
		}
	}
	return f
}

// EdgeFilterCounting is EdgeFilter's delete-capable variant for dynamic
// runs: sized for `capacity` keys (the edge count after the whole mutation
// stream, so the geometry matches the plain filter a from-scratch build of
// the final graph would use) and populated with the graph's current edges.
// Counts are additive over the edge multiset, so incremental Add/Remove
// keeps the bit array — and every probe answer — identical to rebuilding.
func EdgeFilterCounting(g *graph.Graph, fp float64, capacity int) *bloom.Counting {
	f := bloom.NewCounting(capacity, fp)
	for v := graph.VertexID(0); uint64(v) < g.NumVertices(); v++ {
		for _, d := range g.OutEdges(v) {
			f.Add(EdgeKey(v, d))
		}
	}
	return f
}

// ApplyEdgeDelta patches the frozen skeleton's per-block stats for a
// mutation on src's out-edges: SumOutDeg and Bytes move by delta edges.
// The skeleton itself — block boundaries, mapping and range tables, the
// dense set — never changes; stream validation already rejected mutations
// that would move it (dense vertices, block overflow, density flips).
func (p *Partitioned) ApplyEdgeDelta(src graph.VertexID, delta int64) error {
	id, _ := p.BlockOf(src)
	if id < 0 || id >= len(p.Blocks) {
		return fmt.Errorf("partition: no block for mutated vertex %d", src)
	}
	b := &p.Blocks[id]
	if b.Dense {
		return fmt.Errorf("partition: mutation touches dense vertex %d", src)
	}
	newDeg := int64(b.SumOutDeg) + delta
	newBytes := b.Bytes + delta*p.Cfg.EdgeBytes(p.G.Weighted())
	if newDeg < 0 || newBytes < 0 || newBytes > p.Cfg.BlockBytes {
		return fmt.Errorf("partition: mutation on vertex %d leaves block %d at %d edges / %d bytes",
			src, id, newDeg, newBytes)
	}
	b.SumOutDeg = uint64(newDeg)
	b.Bytes = newBytes
	return nil
}

// InDegreeSums computes, per block, the total in-degree of the vertices it
// stores, given every vertex's in-degree (dense blocks share their
// vertex's in-degree proportionally to the edge slice they hold).
// Hot-subgraph selection keeps the top-K by this metric (paper §III-C).
// The caller supplies the counts so that a run with a mutation stream can
// rank blocks over its mutated graph, while p.G stays the graph it was
// cut from.
func (p *Partitioned) InDegreeSums(in []uint64) []uint64 {
	sums := make([]uint64, len(p.Blocks))
	for i := range p.Blocks {
		b := &p.Blocks[i]
		if b.Dense {
			total := in[b.LowVertex]
			deg := p.G.OutDegree(b.LowVertex)
			if deg > 0 {
				sums[i] = total * b.SumOutDeg / deg
			}
			continue
		}
		var s uint64
		for v := b.LowVertex; v <= b.HighVertex; v++ {
			s += in[v]
		}
		sums[i] = s
	}
	return sums
}
