package graph

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"flashwalker/internal/errs"
	"flashwalker/internal/rng"
)

// RMATConfig parameterizes the R-MAT generator (the model PaRMAT
// implements, used for the paper's R2B/R8B synthetic graphs).
type RMATConfig struct {
	// NumVertices is rounded up to a power of two internally; generated IDs
	// are then mapped back into [0, NumVertices).
	NumVertices uint64
	NumEdges    uint64
	// Quadrant probabilities; must sum to ~1. PaRMAT defaults: 0.45, 0.22,
	// 0.22, 0.11.
	A, B, C, D float64
	// Noise perturbs the quadrant probabilities per level, as PaRMAT's
	// smoothing does, preventing degenerate diagonal artifacts.
	Noise float64
	// RemoveDuplicates drops exact duplicate edges (PaRMAT's
	// -noDuplicateEdges).
	RemoveDuplicates bool
	// Weighted assigns uniform random weights in (0, 1].
	Weighted bool
	Seed     uint64
}

// DefaultRMAT returns PaRMAT-default parameters for the given size.
func DefaultRMAT(v, e uint64, seed uint64) RMATConfig {
	return RMATConfig{
		NumVertices: v, NumEdges: e,
		A: 0.45, B: 0.22, C: 0.22, D: 0.11,
		Noise: 0.05, RemoveDuplicates: true, Seed: seed,
	}
}

// RMAT generates a directed graph with the recursive-matrix model.
//
// Unweighted graphs are generated on runtime.GOMAXPROCS(0) goroutines, the
// way PaRMAT generates in parallel; the result is the same graph, byte for
// byte, at any setting (see parallel). Weighted graphs are generated on the
// calling goroutine (see sequential).
//
// With RemoveDuplicates an edge's dedup key is src<<levels | dst, levels
// being log2 of NumVertices rounded up to a power of two, so a key takes
// 2·levels bits: the set stores uint32 keys up to 65,536 vertices and
// uint64 keys beyond. An unweighted graph's set is its edge list: the
// generator counts each kept edge's source as it keeps it, and the CSR is
// built from the set and those counts (keySet.csr) without an edge slice.
func RMAT(cfg RMATConfig) (*Graph, error) {
	if cfg.NumVertices == 0 {
		return nil, fmt.Errorf("graph: RMAT with zero vertices: %w", errs.ErrInvalidConfig)
	}
	if err := checkVertices("RMAT", cfg.NumVertices); err != nil {
		return nil, err
	}
	sum := cfg.A + cfg.B + cfg.C + cfg.D
	if sum < 0.99 || sum > 1.01 {
		return nil, fmt.Errorf("graph: RMAT probabilities sum to %v, want 1: %w", sum, errs.ErrInvalidConfig)
	}
	levels := bits.Len64(cfg.NumVertices - 1)
	if cfg.RemoveDuplicates && 2*levels <= 32 {
		return generate[uint32](cfg, levels)
	}
	return generate[uint64](cfg, levels)
}

// generate runs one RMAT call with dedup keys of type K.
func generate[K uint32 | uint64](cfg RMATConfig, levels int) (*Graph, error) {
	p := &rmat[K]{
		cfg:         cfg,
		levels:      levels,
		maxAttempts: cfg.NumEdges*20 + 1000,
		divFree:     cfg.Noise < 1 && cfg.A >= 0 && cfg.B >= 0 && cfg.C >= 0 && cfg.D >= 0,
	}
	// Dedup accepts at most NumVertices² distinct edges.
	size := cfg.NumEdges
	if cfg.RemoveDuplicates {
		size = min(size, cfg.NumVertices*cfg.NumVertices)
		p.seen = newKeySet[K](size)
		if !cfg.Weighted {
			offsets := make([]uint64, cfg.NumVertices+1)
			p.parallel(nil, offsets)
			return p.seen.csr(offsets, levels), nil
		}
	}
	b := &Builder{numVertices: cfg.NumVertices, edges: make([]Edge, 0, size)}
	if cfg.Weighted {
		p.sequential(b)
	} else {
		p.parallel(b, nil)
	}
	return b.Build()
}

// rmat is one RMAT call's generator: the descent kernel and accept step
// both of its paths share.
type rmat[K uint32 | uint64] struct {
	cfg    RMATConfig
	levels int // log2 of NumVertices rounded up to a power of two
	// maxAttempts bounds the attempts: in a dense, duplicate-heavy corner
	// RMAT keeps what it has rather than loop forever.
	maxAttempts uint64
	// divFree lets quadrant decide without dividing. It holds when every
	// probability is ≥ 0 and Noise < 1, so every perturbed weight is ≥ 0
	// and their total positive and finite (the bound in quadrant needs
	// both; Noise ≥ 1 can make a weight negative and the total ≤ 0).
	divFree bool
	seen    *keySet[K] // accepted src<<levels | dst keys; nil without dedup
}

// kernel descends len(out) consecutive attempts from the xoshiro256**
// state s, writes each one's endpoints, folded into [0, NumVertices), to
// out, and returns the state after them. An attempt consumes levels × 5
// draws with noise and levels without.
//
// The state lives in four locals, which next steps as rng.RNG.Uint64
// does, so no draw loads or stores it. Only 1−Noise and 2·Noise are
// hoisted: every other floating-point operation keeps its operands and
// order, so each weight and quadrant is the one the reference loop
// computes, bit for bit.
func (p *rmat[K]) kernel(s [4]uint64, out [][2]VertexID) [4]uint64 {
	s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
	a, b, c, d, n := p.cfg.A, p.cfg.B, p.cfg.C, p.cfg.D, p.cfg.NumVertices
	noise, lo, span := p.cfg.Noise > 0, 1-p.cfg.Noise, 2*p.cfg.Noise
	levels, divFree := p.levels, p.divFree
	for i := range out {
		var src, dst uint64
		for l := 0; l < levels; l++ {
			var q uint64 // quadrant: bit 1 sets src's bit l, bit 0 sets dst's
			var u float64
			if noise {
				// Symmetric per-level perturbation, renormalized.
				var fa, fb, fc, fd float64
				fa, s0, s1, s2, s3 = next(s0, s1, s2, s3)
				fb, s0, s1, s2, s3 = next(s0, s1, s2, s3)
				fc, s0, s1, s2, s3 = next(s0, s1, s2, s3)
				fd, s0, s1, s2, s3 = next(s0, s1, s2, s3)
				u, s0, s1, s2, s3 = next(s0, s1, s2, s3)
				q = quadrant(a*(lo+span*fa), b*(lo+span*fb), c*(lo+span*fc), d*(lo+span*fd), u, divFree)
			} else {
				u, s0, s1, s2, s3 = next(s0, s1, s2, s3)
				switch {
				case u < a:
				case u < a+b:
					q = 1
				case u < a+b+c:
					q = 2
				default:
					q = 3
				}
			}
			src |= (q >> 1) << l
			dst |= (q & 1) << l
		}
		// src, dst < 2^levels < 2·NumVertices, so one subtraction folds.
		if src >= n {
			src -= n
		}
		if dst >= n {
			dst -= n
		}
		out[i] = [2]VertexID{VertexID(src), VertexID(dst)}
	}
	return [4]uint64{s0, s1, s2, s3}
}

// next returns the draw rng.RNG.Float64 makes from xoshiro256** state s0..s3
// and the state after it.
func next(s0, s1, s2, s3 uint64) (float64, uint64, uint64, uint64, uint64) {
	x := bits.RotateLeft64(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = bits.RotateLeft64(s3, 45)
	return float64(x>>11) / (1 << 53), s0, s1, s2, s3
}

// quadrant picks the quadrant for perturbed weights na..nd and a uniform u
// exactly as comparing u in turn with the renormalized cumulative
// probabilities na/tot, na/tot+nb/tot and na/tot+nb/tot+nc/tot does.
//
// With divFree it compares x = u·tot with t1 = na, t2 = na+nb and t3 =
// na+nb+nc instead, and needs no division. Every weight being ≥ 0 and tot
// > 0, each quotient-side threshold times tot lies within 6ε·tot of its
// t (ε = 2^-53: a few roundings of terms no larger than tot), x lies
// within ε·tot of u·tot, and x−t is formed to within ε|x−t|. So when x is
// farther than m = 1e-9·tot from all three, u falls on the same side of
// each quotient as x of its t, and as the thresholds ascend the quadrant
// is how many lie below x. Which quadrant comes up is random, so that
// count takes no branch: x ≠ t there, and x > t exactly when x−t has a
// clear sign bit. Only inside the margin are the quotients formed.
func quadrant(na, nb, nc, nd, u float64, divFree bool) uint64 {
	t2 := na + nb
	t3 := t2 + nc
	tot := t3 + nd
	x, m := u*tot, 1e-9*tot
	d1, d2, d3 := x-na, x-t2, x-t3
	if divFree && math.Abs(d1) > m && math.Abs(d2) > m && math.Abs(d3) > m {
		return 3 - (math.Float64bits(d1)>>63 + math.Float64bits(d2)>>63 + math.Float64bits(d3)>>63)
	}
	a, bb, c := na/tot, nb/tot, nc/tot
	switch {
	case u < a:
		return 0
	case u < a+bb:
		return 1
	case u < a+bb+c:
		return 2
	}
	return 3
}

// accept reports whether an attempt's edge is kept: always without dedup,
// otherwise only on the first occurrence of its (src, dst).
func (p *rmat[K]) accept(src, dst VertexID) bool {
	return p.seen == nil || p.seen.insert(K(uint64(src)<<p.levels|uint64(dst)))
}

// sequential generates a weighted graph on the calling goroutine. A weight
// draw follows only an accepted edge, so where an attempt's draws start in
// the stream depends on every earlier dedup outcome, and the attempts
// cannot be split up the way parallel splits them.
func (p *rmat[K]) sequential(b *Builder) {
	r := rng.New(p.cfg.Seed)
	var e [1][2]VertexID
	for attempts := uint64(0); uint64(len(b.edges)) < p.cfg.NumEdges && attempts < p.maxAttempts; attempts++ {
		r.SetState(p.kernel(r.State(), e[:]))
		if src, dst := e[0][0], e[0][1]; p.accept(src, dst) {
			b.AddWeightedEdge(src, dst, float32(r.Float64())+1e-6)
		}
	}
}

// rmatChunk is one run of consecutive attempts a worker descends.
type rmatChunk struct {
	first uint64        // index of the chunk's first attempt
	pairs [][2]VertexID // each attempt's (src, dst)
	done  chan struct{} // capacity 1: pairs is filled
}

// parallel generates an unweighted graph. Every attempt consumes exactly
// draws values, so attempt i's draws start draws·i into the seed's stream,
// and a worker can descend any chunk of attempts from a copy of the seed
// state advanced by one rng Jump. This goroutine hands out chunks
// in attempt order and takes their results back in the same order; it
// alone does everything order-dependent — the attempt budget, dedup, the
// count of kept edges and the stop at NumEdges — so the graph is the
// sequential one. Kept edges are appended to b; with dedup b is nil, as
// the set holds them, and each one's source is counted into
// offsets[src+1] instead.
func (p *rmat[K]) parallel(b *Builder, offsets []uint64) {
	// Attempts per chunk: enough that a chunk's Jump and hand-off vanish
	// beside its descents, few enough that a small graph still spreads
	// over the workers and little is thrown away at the stop.
	k := min(max(p.cfg.NumEdges/8, 256), 8192)
	workers := runtime.GOMAXPROCS(0)
	// The chunks in flight, oldest at head: two per worker, so a worker
	// finds its next chunk queued while this goroutine drains the last.
	ring := make([]rmatChunk, 2*workers)
	jobs := make(chan *rmatChunk, len(ring))
	seed := rng.New(p.cfg.Seed).State()
	draws := uint64(p.levels)
	if p.cfg.Noise > 0 {
		draws *= 5
	}
	var stop atomic.Bool // set once the graph is done: skip queued chunks
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range jobs {
				if !stop.Load() {
					r := rng.FromState(seed)
					r.Jump(c.first * draws)
					p.kernel(r.State(), c.pairs)
				}
				c.done <- struct{}{}
			}
		}()
	}
	defer func() {
		stop.Store(true)
		close(jobs)
		wg.Wait()
	}()

	var dispatched, consumed, kept uint64 // attempts handed out and taken back; edges kept
	head, queued := 0, 0
	for {
		need := p.cfg.NumEdges - kept
		// Each attempt adds at most one edge, so at least need more are
		// coming; dispatching only while fewer than that are in flight
		// keeps at most one chunk beyond them.
		for queued < len(ring) && dispatched < p.maxAttempts && dispatched-consumed < need {
			c := &ring[(head+queued)%len(ring)]
			if c.done == nil {
				c.pairs, c.done = make([][2]VertexID, k), make(chan struct{}, 1)
			}
			c.first = dispatched
			c.pairs = c.pairs[:min(k, p.maxAttempts-dispatched)]
			jobs <- c
			dispatched += uint64(len(c.pairs))
			queued++
		}
		if queued == 0 {
			return // attempt budget spent (or nothing needed): keep what we have
		}
		c := &ring[head]
		<-c.done
		head, queued = (head+1)%len(ring), queued-1
		consumed += uint64(len(c.pairs))
		for _, e := range c.pairs {
			if !p.accept(e[0], e[1]) {
				continue
			}
			if b != nil {
				b.AddEdge(e[0], e[1])
			} else {
				offsets[e[0]+1]++
			}
			if kept++; kept == p.cfg.NumEdges {
				return
			}
		}
	}
}

// keySet is an insert-only set of dedup keys: open addressing with linear
// probing over a power-of-two table kept at most half full, multiplicative
// hashing. A slot holds key+1, so 0 marks it empty; the one key whose
// successor wraps to 0, ^K(0), is tracked apart.
type keySet[K uint32 | uint64] struct {
	slots  []K
	shift  uint // 64 - log2(len(slots))
	hasMax bool // holds ^K(0)
}

// newKeySet returns a set sized for n keys.
func newKeySet[K uint32 | uint64](n uint64) *keySet[K] {
	lg := 1
	for uint64(1)<<lg < 2*n {
		lg++
	}
	return &keySet[K]{slots: make([]K, 1<<lg), shift: uint(64 - lg)}
}

// insert adds k and reports whether it was absent.
func (s *keySet[K]) insert(k K) bool {
	if k == ^K(0) {
		added := !s.hasMax
		s.hasMax = true
		return added
	}
	mask := uint64(len(s.slots) - 1)
	for i := (uint64(k) * 0x9e3779b97f4a7c15) >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = k + 1
			return true
		case k + 1:
			return false
		}
	}
}

// csr returns the unweighted graph whose edges are the set's keys, each
// src<<levels | dst, given each source's count of them in offsets[src+1]
// (offsets has one entry per vertex and one more). That is the graph
// Builder.Build returns for the same edges in any order, since Build sorts
// each adjacency run and the set holds no duplicate.
//
// offsets doubles as the fill cursor: prefix-summed, offsets[src] is where
// src's run starts; each placement advances it, which leaves it at the
// next run's start, and moving every entry up one index restores the
// offsets.
func (s *keySet[K]) csr(offsets []uint64, levels int) *Graph {
	mask := K(1)<<levels - 1
	numVertices := uint64(len(offsets) - 1)
	for v := 1; v < len(offsets); v++ {
		offsets[v] += offsets[v-1]
	}
	edges := make([]VertexID, offsets[numVertices])
	place := func(k K) {
		src := k >> levels
		edges[offsets[src]] = VertexID(k & mask)
		offsets[src]++
	}
	for _, k := range s.slots {
		if k != 0 {
			place(k - 1)
		}
	}
	if s.hasMax {
		place(^K(0))
	}
	copy(offsets[1:], offsets[:numVertices])
	offsets[0] = 0
	sortRuns(offsets, edges)
	return &Graph{Offsets: offsets, Edges: edges}
}

// sortRuns sorts every vertex's adjacency run. It splits the vertices into
// runtime.GOMAXPROCS(0) consecutive ranges holding about as many edges
// each and sorts the ranges on as many goroutines, this one sorting the
// last; the ranges are disjoint, so the result does not depend on the
// split.
func sortRuns(offsets []uint64, edges []VertexID) {
	sortRange := func(lo, hi int) {
		for v := lo; v < hi; v++ {
			slices.Sort(edges[offsets[v]:offsets[v+1]])
		}
	}
	n, workers := len(offsets)-1, uint64(runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	lo := 0
	for w := uint64(1); w < workers; w++ {
		// The first vertex whose run starts at or past w/workers of the
		// edges ends this range.
		hi, _ := slices.BinarySearch(offsets[:n], uint64(len(edges))/workers*w)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			sortRange(lo, hi)
		}(lo, hi)
		lo = hi
	}
	sortRange(lo, n)
	wg.Wait()
}

// PowerLawConfig parameterizes a Chung-Lu style power-law generator: vertex
// v's expected out-degree is proportional to (v+1)^(-alpha), then vertex IDs
// are shuffled so degree does not correlate with ID.
type PowerLawConfig struct {
	NumVertices uint64
	NumEdges    uint64
	Alpha       float64 // skew exponent; 0.6-0.9 resembles social graphs
	Weighted    bool
	Seed        uint64
}

// PowerLaw generates a directed power-law graph.
func PowerLaw(cfg PowerLawConfig) (*Graph, error) {
	if cfg.NumVertices == 0 {
		return nil, fmt.Errorf("graph: PowerLaw with zero vertices: %w", errs.ErrInvalidConfig)
	}
	if err := checkVertices("PowerLaw", cfg.NumVertices); err != nil {
		return nil, err
	}
	if cfg.Alpha <= 0 {
		cfg.Alpha = 0.7
	}
	r := rng.New(cfg.Seed)
	n := cfg.NumVertices
	// Build the cumulative degree-weight table.
	cum := make([]float64, n)
	acc := 0.0
	for i := uint64(0); i < n; i++ {
		acc += math.Pow(float64(i+1), -cfg.Alpha)
		cum[i] = acc
	}
	total := acc
	// Random relabeling so hot vertices are spread over the ID space.
	label := make([]int, n)
	r.Perm(label)
	sample := func() VertexID {
		u := r.Float64() * total
		lo, hi := 0, int(n)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return VertexID(label[lo])
	}
	b := NewBuilder(n)
	for uint64(b.NumEdges()) < cfg.NumEdges {
		src := sample()
		dst := VertexID(r.Uint64n(n))
		if cfg.Weighted {
			b.AddWeightedEdge(src, dst, float32(r.Float64())+1e-6)
		} else {
			b.AddEdge(src, dst)
		}
	}
	return b.Build()
}

// Uniform generates an Erdős–Rényi-style directed graph with exactly
// numEdges uniformly random edges.
func Uniform(numVertices, numEdges, seed uint64) (*Graph, error) {
	if numVertices == 0 {
		return nil, fmt.Errorf("graph: Uniform with zero vertices: %w", errs.ErrInvalidConfig)
	}
	if err := checkVertices("Uniform", numVertices); err != nil {
		return nil, err
	}
	r := rng.New(seed)
	b := NewBuilder(numVertices)
	for uint64(b.NumEdges()) < numEdges {
		b.AddEdge(VertexID(r.Uint64n(numVertices)), VertexID(r.Uint64n(numVertices)))
	}
	return b.Build()
}

// Ring generates a cycle graph: v -> (v+1) mod n. Useful in tests because
// every walk's trajectory is fully determined. It panics past MaxVertices
// vertices.
func Ring(numVertices uint64) *Graph {
	mustFit("Ring", numVertices)
	b := NewBuilder(numVertices)
	for v := uint64(0); v < numVertices; v++ {
		b.AddEdge(VertexID(v), VertexID((v+1)%numVertices))
	}
	g, err := b.Build()
	if err != nil {
		panic(err) // cannot fail: all endpoints in range
	}
	return g
}

// Complete generates a complete directed graph without self-loops. It
// panics past MaxVertices vertices.
func Complete(numVertices uint64) *Graph {
	mustFit("Complete", numVertices)
	b := NewBuilder(numVertices)
	for u := uint64(0); u < numVertices; u++ {
		for v := uint64(0); v < numVertices; v++ {
			if u != v {
				b.AddEdge(VertexID(u), VertexID(v))
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// Star generates a hub-and-spoke graph: the hub (vertex 0) points at every
// spoke and every spoke points back. Vertex 0 is a guaranteed dense vertex,
// which exercises the pre-walking path. It panics past MaxVertices
// vertices.
func Star(numSpokes uint64) *Graph {
	mustFit("Star", min(numSpokes, MaxVertices)+1) // the hub and the spokes, without wrapping
	b := NewBuilder(numSpokes + 1)
	for v := VertexID(1); uint64(v) <= numSpokes; v++ {
		b.AddEdge(0, v)
		b.AddEdge(v, 0)
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
