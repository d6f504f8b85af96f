package partition

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"flashwalker/internal/errs"
	"flashwalker/internal/graph"
	"flashwalker/internal/rng"
)

func cfg4k() Config {
	return Config{BlockBytes: 4096, IDBytes: 4, SubgraphsPerPartition: 8, RangeSize: 4}
}

func mustPartition(t *testing.T, g *graph.Graph, cfg Config) *Partitioned {
	t.Helper()
	p, err := Partition(g, cfg)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	return p
}

func TestConfigValidate(t *testing.T) {
	good := cfg4k()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{BlockBytes: 0, IDBytes: 4, SubgraphsPerPartition: 1, RangeSize: 1},
		{BlockBytes: 100, IDBytes: 3, SubgraphsPerPartition: 1, RangeSize: 1},
		{BlockBytes: 100, IDBytes: 4, SubgraphsPerPartition: 0, RangeSize: 1},
		{BlockBytes: 100, IDBytes: 4, SubgraphsPerPartition: 1, RangeSize: 0},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestEdgeBytes(t *testing.T) {
	c := cfg4k()
	if c.EdgeBytes(false) != 4 {
		t.Fatal("unweighted edge bytes")
	}
	if c.EdgeBytes(true) != 8 {
		t.Fatal("weighted edge bytes")
	}
}

func TestBlocksCoverAllVerticesOnce(t *testing.T) {
	g, _ := graph.RMAT(graph.DefaultRMAT(2048, 16384, 1))
	p := mustPartition(t, g, cfg4k())
	covered := make([]int, g.NumVertices())
	for _, b := range p.Blocks {
		if b.Dense {
			continue
		}
		for v := b.LowVertex; v <= b.HighVertex; v++ {
			covered[v]++
		}
	}
	for v, c := range covered {
		dense := p.Dense.Contains(graph.VertexID(v))
		if _, isDense := p.Dense.Lookup(graph.VertexID(v)); isDense {
			if c != 0 {
				t.Fatalf("dense vertex %d also in non-dense block", v)
			}
			continue
		}
		_ = dense
		if c != 1 {
			t.Fatalf("vertex %d covered %d times", v, c)
		}
	}
}

func TestBlocksCoverAllEdges(t *testing.T) {
	g, _ := graph.RMAT(graph.DefaultRMAT(1024, 8192, 2))
	p := mustPartition(t, g, cfg4k())
	var total uint64
	for _, b := range p.Blocks {
		total += b.SumOutDeg
	}
	if total != g.NumEdges() {
		t.Fatalf("blocks hold %d edges, graph has %d", total, g.NumEdges())
	}
}

func TestBlockByteBudgetRespected(t *testing.T) {
	g, _ := graph.RMAT(graph.DefaultRMAT(1024, 8192, 3))
	c := cfg4k()
	p := mustPartition(t, g, c)
	for _, b := range p.Blocks {
		if b.Bytes > c.BlockBytes {
			t.Fatalf("block %d is %d bytes > budget %d", b.ID, b.Bytes, c.BlockBytes)
		}
	}
}

func TestDenseVertexSplit(t *testing.T) {
	// Star hub has 3000 out-edges; with 4 KB blocks and 4-byte IDs
	// edgesPerBlock = (4096-4)/4 = 1023, so the hub needs 3 blocks.
	g := graph.Star(3000)
	p := mustPartition(t, g, cfg4k())
	m, ok := p.Dense.Lookup(0)
	if !ok {
		t.Fatal("hub not in dense table")
	}
	if m.NumBlocks != 3 {
		t.Fatalf("NumBlocks = %d, want 3", m.NumBlocks)
	}
	if m.EdgesPerBlock != 1023 {
		t.Fatalf("EdgesPerBlock = %d, want 1023", m.EdgesPerBlock)
	}
	if m.LastBlockDeg != 3000-2*1023 {
		t.Fatalf("LastBlockDeg = %d", m.LastBlockDeg)
	}
	if m.OutDegree != 3000 {
		t.Fatalf("OutDegree = %d", m.OutDegree)
	}
	// Dense blocks must be consecutive, flagged, and partition the edge list.
	var sum uint64
	for i := 0; i < m.NumBlocks; i++ {
		b := p.Blocks[m.FirstBlockID+i]
		if !b.Dense || b.LowVertex != 0 || b.HighVertex != 0 {
			t.Fatalf("dense block %d malformed: %+v", i, b)
		}
		if b.DenseEdgeStart != uint64(i)*m.EdgesPerBlock {
			t.Fatalf("dense block %d starts at %d", i, b.DenseEdgeStart)
		}
		sum += b.SumOutDeg
	}
	if sum != 3000 {
		t.Fatalf("dense blocks hold %d edges", sum)
	}
}

func TestDenseBlockForPreWalking(t *testing.T) {
	m := DenseMeta{FirstBlockID: 10, NumBlocks: 3, EdgesPerBlock: 100, OutDegree: 250}
	cases := []struct {
		rnd   uint64
		block int
		off   uint64
	}{
		{0, 10, 0}, {99, 10, 99}, {100, 11, 0}, {199, 11, 99}, {200, 12, 0}, {249, 12, 49},
	}
	for _, c := range cases {
		b, off := DenseBlockFor(m, c.rnd)
		if b != c.block || off != c.off {
			t.Errorf("DenseBlockFor(%d) = (%d,%d), want (%d,%d)", c.rnd, b, off, c.block, c.off)
		}
	}
}

func TestBlockOfFindsEveryNonDenseVertex(t *testing.T) {
	g, _ := graph.RMAT(graph.DefaultRMAT(2048, 8192, 4))
	p := mustPartition(t, g, cfg4k())
	for v := graph.VertexID(0); uint64(v) < g.NumVertices(); v++ {
		if _, isDense := p.Dense.Lookup(v); isDense {
			if id, _ := p.BlockOf(v); id != -1 {
				t.Fatalf("dense vertex %d found in non-dense table (block %d)", v, id)
			}
			continue
		}
		id, steps := p.BlockOf(v)
		if id < 0 {
			t.Fatalf("vertex %d not found", v)
		}
		b := p.Blocks[id]
		if v < b.LowVertex || v > b.HighVertex || b.Dense {
			t.Fatalf("vertex %d mapped to wrong block %+v", v, b)
		}
		if steps < 1 {
			t.Fatal("zero search steps reported")
		}
	}
}

// TestVertexBlocksMatchesBlockOf pins the query caches' probe index to the
// mapping-table search: every vertex maps to the block BlockOf finds, and
// every dense vertex to -1, on graphs with and without dense vertices.
func TestVertexBlocksMatchesBlockOf(t *testing.T) {
	rmat, _ := graph.RMAT(graph.DefaultRMAT(2048, 8192, 4))
	hub := graph.Star(3000)
	empty, _ := graph.NewBuilder(0).Build()
	for _, g := range []*graph.Graph{rmat, hub, empty} {
		p := mustPartition(t, g, cfg4k())
		idx := p.VertexBlocks()
		if uint64(len(idx)) != g.NumVertices() {
			t.Fatalf("index has %d entries for %d vertices", len(idx), g.NumVertices())
		}
		for v := graph.VertexID(0); uint64(v) < g.NumVertices(); v++ {
			if id, _ := p.BlockOf(v); int(idx[v]) != id {
				t.Fatalf("VertexBlocks()[%d] = %d, BlockOf = %d", v, idx[v], id)
			}
		}
	}
}

func TestBlockOfSearchStepsLogarithmic(t *testing.T) {
	g, _ := graph.Uniform(4096, 32768, 5)
	p := mustPartition(t, g, cfg4k())
	maxSteps := 0
	for v := graph.VertexID(0); uint64(v) < g.NumVertices(); v += 17 {
		if _, steps := p.BlockOf(v); steps > maxSteps {
			maxSteps = steps
		}
	}
	// log2(TableLen) + 1 bound.
	bound := 1
	for n := p.TableLen(); n > 0; n >>= 1 {
		bound++
	}
	if maxSteps > bound {
		t.Fatalf("max steps %d exceeds log bound %d (table %d)", maxSteps, bound, p.TableLen())
	}
}

func TestBlockOfInRangeMatchesGlobal(t *testing.T) {
	g, _ := graph.RMAT(graph.DefaultRMAT(2048, 16384, 6))
	p := mustPartition(t, g, cfg4k())
	for v := graph.VertexID(0); uint64(v) < g.NumVertices(); v += 3 {
		global, globalSteps := p.BlockOf(v)
		ri, _ := p.RangeOf(v)
		if ri < 0 {
			t.Fatalf("vertex %d not in any range", v)
		}
		local, localSteps := p.BlockOfInRange(v, p.Ranges[ri])
		if local != global {
			t.Fatalf("vertex %d: range search %d != global %d", v, local, global)
		}
		if global >= 0 && localSteps > globalSteps {
			t.Fatalf("vertex %d: range search took %d steps > global %d", v, localSteps, globalSteps)
		}
	}
}

func TestRangeOfCoversAllVertices(t *testing.T) {
	g := graph.Star(3000) // includes a dense vertex
	p := mustPartition(t, g, cfg4k())
	for v := graph.VertexID(0); uint64(v) < g.NumVertices(); v++ {
		ri, steps := p.RangeOf(v)
		if ri < 0 {
			t.Fatalf("vertex %d not in any range", v)
		}
		r := p.Ranges[ri]
		if v < r.LowVertex || v > r.HighVertex {
			t.Fatalf("vertex %d outside its range %+v", v, r)
		}
		if steps < 1 {
			t.Fatal("no steps counted")
		}
	}
}

func TestRangesTileBlocks(t *testing.T) {
	g, _ := graph.RMAT(graph.DefaultRMAT(2048, 16384, 7))
	c := cfg4k()
	p := mustPartition(t, g, c)
	next := 0
	for i, r := range p.Ranges {
		if r.ID != i || r.FirstBlock != next {
			t.Fatalf("range %d misaligned: %+v", i, r)
		}
		if r.LastBlock-r.FirstBlock+1 > c.RangeSize {
			t.Fatalf("range %d too large", i)
		}
		next = r.LastBlock + 1
	}
	if next != len(p.Blocks) {
		t.Fatalf("ranges cover %d of %d blocks", next, len(p.Blocks))
	}
}

func TestPartitionSpans(t *testing.T) {
	g, _ := graph.RMAT(graph.DefaultRMAT(2048, 16384, 8))
	c := cfg4k()
	p := mustPartition(t, g, c)
	if p.NumPartitions != (len(p.Blocks)+c.SubgraphsPerPartition-1)/c.SubgraphsPerPartition {
		t.Fatal("NumPartitions wrong")
	}
	seen := 0
	for pi := 0; pi < p.NumPartitions; pi++ {
		first, last := p.PartitionSpan(pi)
		for b := first; b <= last; b++ {
			if p.PartitionOf(b) != pi {
				t.Fatalf("block %d: PartitionOf = %d, want %d", b, p.PartitionOf(b), pi)
			}
			seen++
		}
	}
	if seen != len(p.Blocks) {
		t.Fatalf("partitions cover %d of %d blocks", seen, len(p.Blocks))
	}
}

func TestBlockEdgesSpans(t *testing.T) {
	g := graph.Star(3000)
	p := mustPartition(t, g, cfg4k())
	// Union of all block edge spans must cover [0, E) exactly once.
	covered := make([]int, g.NumEdges())
	for i := range p.Blocks {
		first, last := p.BlockEdges(&p.Blocks[i])
		if last < first || last > g.NumEdges() {
			t.Fatalf("block %d span [%d,%d)", i, first, last)
		}
		for e := first; e < last; e++ {
			covered[e]++
		}
	}
	for e, c := range covered {
		if c != 1 {
			t.Fatalf("edge %d covered %d times", e, c)
		}
	}
}

func TestPages(t *testing.T) {
	p := &Partitioned{}
	b := &Block{Bytes: 4096}
	if p.Pages(b, 4096) != 1 {
		t.Fatal("exact page")
	}
	b.Bytes = 4097
	if p.Pages(b, 4096) != 2 {
		t.Fatal("page round up")
	}
	b.Bytes = 0
	if p.Pages(b, 4096) != 1 {
		t.Fatal("empty block should still cost one page")
	}
}

func TestDenseTableNoFalseNegatives(t *testing.T) {
	g := graph.Star(5000)
	p := mustPartition(t, g, cfg4k())
	if !p.Dense.Contains(0) {
		t.Fatal("bloom misses a dense vertex")
	}
	if p.Dense.Len() != 1 {
		t.Fatalf("dense count %d", p.Dense.Len())
	}
	if p.Dense.FilterBytes() <= 0 {
		t.Fatal("filter has no size")
	}
}

func TestInDegreeSums(t *testing.T) {
	g := graph.Star(3000)
	p := mustPartition(t, g, cfg4k())
	sums := p.InDegreeSums(g.InDegrees())
	var denseSum, rest uint64
	for i, b := range p.Blocks {
		if b.Dense {
			denseSum += sums[i]
		} else {
			rest += sums[i]
		}
	}
	// Hub in-degree = 3000 shared across dense blocks; spokes have 1 each.
	if denseSum == 0 || denseSum > 3000 {
		t.Fatalf("dense in-degree share %d", denseSum)
	}
	if rest != 3000 {
		t.Fatalf("spoke in-degrees %d, want 3000", rest)
	}
}

func TestTinyBlockRejected(t *testing.T) {
	g := graph.Ring(4)
	_, err := Partition(g, Config{BlockBytes: 4, IDBytes: 4, SubgraphsPerPartition: 1, RangeSize: 1})
	if err == nil {
		t.Fatal("block too small for one edge accepted")
	}
}

func TestEmptyGraphPartition(t *testing.T) {
	b := graph.NewBuilder(0)
	g, _ := b.Build()
	p := mustPartition(t, g, cfg4k())
	if p.NumBlocks() != 1 || p.NumPartitions != 1 {
		t.Fatalf("empty graph: %d blocks %d partitions", p.NumBlocks(), p.NumPartitions)
	}
}

func TestZeroDegreeVerticesCovered(t *testing.T) {
	b := graph.NewBuilder(100)
	b.AddEdge(0, 99)
	g, _ := b.Build()
	p := mustPartition(t, g, cfg4k())
	for v := graph.VertexID(0); v < 100; v++ {
		if id, _ := p.BlockOf(v); id < 0 {
			t.Fatalf("zero-degree vertex %d unmapped", v)
		}
	}
}

func TestPlacementRoundRobin(t *testing.T) {
	g, _ := graph.RMAT(graph.DefaultRMAT(2048, 16384, 9))
	p := mustPartition(t, g, cfg4k())
	pl, err := NewPlacement(p, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pl.NumChips() != 8 {
		t.Fatal("chip count")
	}
	counts := make([]int, 8)
	for id := range p.Blocks {
		chip := pl.ChipOf(id)
		counts[chip]++
		if pl.ChannelOf(id) != chip/2 || pl.ChipWithinChannel(id) != chip%2 {
			t.Fatal("channel/chip decomposition inconsistent")
		}
	}
	// Round-robin: max-min difference <= 1.
	mn, mx := counts[0], counts[0]
	for _, c := range counts {
		if c < mn {
			mn = c
		}
		if c > mx {
			mx = c
		}
	}
	if mx-mn > 1 {
		t.Fatalf("unbalanced placement: %v", counts)
	}
	// BlocksOnChip / BlocksOnChannel consistency.
	total := 0
	for chip := 0; chip < 8; chip++ {
		for _, id := range pl.BlocksOnChip(chip) {
			if pl.ChipOf(id) != chip {
				t.Fatal("BlocksOnChip inconsistent")
			}
			total++
		}
	}
	if total != len(p.Blocks) {
		t.Fatal("blocks lost in placement")
	}
	if len(pl.BlocksOnChannel(0)) != counts[0]+counts[1] {
		t.Fatal("BlocksOnChannel inconsistent")
	}
}

func TestPlacementRejectsBadGeometry(t *testing.T) {
	g := graph.Ring(8)
	p := mustPartition(t, g, cfg4k())
	if _, err := NewPlacement(p, 0, 4); err == nil {
		t.Fatal("zero channels accepted")
	}
	if _, err := NewPlacement(p, 4, 0); err == nil {
		t.Fatal("zero chips accepted")
	}
}

func TestEdgeFilterMembership(t *testing.T) {
	g, _ := graph.RMAT(graph.DefaultRMAT(512, 4096, 11))
	f := EdgeFilter(g, 0.01)
	// Every real edge must be present (no false negatives).
	for v := graph.VertexID(0); uint64(v) < g.NumVertices(); v++ {
		for _, d := range g.OutEdges(v) {
			if !f.Contains(EdgeKey(v, d)) {
				t.Fatalf("edge (%d,%d) missing from filter", v, d)
			}
		}
	}
	// Random non-edges are mostly absent.
	r := rng.New(1)
	fp := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		s := graph.VertexID(r.Uint64n(g.NumVertices()))
		d := graph.VertexID(r.Uint64n(g.NumVertices()))
		real := false
		for _, e := range g.OutEdges(s) {
			if e == d {
				real = true
				break
			}
		}
		if !real && f.Contains(EdgeKey(s, d)) {
			fp++
		}
	}
	if rate := float64(fp) / probes; rate > 0.03 {
		t.Fatalf("edge filter false positive rate %.4f", rate)
	}
}

func TestEdgeKeyDirectionality(t *testing.T) {
	if EdgeKey(1, 2) == EdgeKey(2, 1) {
		t.Fatal("edge key is symmetric; directed edges would collide")
	}
}

// Property: partitioning a random graph preserves edge count, respects the
// byte budget, and every non-dense vertex is findable.
func TestPartitionInvariantsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		v := uint64(r.Intn(500) + 2)
		e := uint64(r.Intn(4000))
		g, err := graph.Uniform(v, e, seed)
		if err != nil {
			return false
		}
		c := Config{BlockBytes: 256, IDBytes: 4, SubgraphsPerPartition: 4, RangeSize: 4}
		p, err := Partition(g, c)
		if err != nil {
			return false
		}
		var total uint64
		for _, b := range p.Blocks {
			if b.Bytes > c.BlockBytes {
				return false
			}
			total += b.SumOutDeg
		}
		if total != g.NumEdges() {
			return false
		}
		for vv := graph.VertexID(0); uint64(vv) < v; vv++ {
			if _, dense := p.Dense.Lookup(vv); dense {
				continue
			}
			if id, _ := p.BlockOf(vv); id < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestCheckBlocksFitsInt32: walk records and the block indexes hold block
// IDs as int32, so a partitioning of more blocks is refused.
func TestCheckBlocksFitsInt32(t *testing.T) {
	if err := checkBlocks(math.MaxInt32); err != nil {
		t.Fatalf("MaxInt32 blocks refused: %v", err)
	}
	if err := checkBlocks(math.MaxInt32 + 1); !errors.Is(err, errs.ErrInvalidConfig) {
		t.Fatalf("MaxInt32+1 blocks: %v", err)
	}
}
