package graph

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// refApplyMutation is the per-mutation tail splice ApplyMutations
// replaced, kept as the reference it must match: every mutation shifts
// the whole edge-array tail and every later Offsets entry.
func refApplyMutation(g *Graph, m Mutation) error {
	n := g.NumVertices()
	if uint64(m.Src) >= n || uint64(m.Dst) >= n {
		return fmt.Errorf("graph: mutation edge (%d,%d) outside %d vertices", m.Src, m.Dst, n)
	}
	switch m.Op {
	case OpInsertEdge:
		if g.Weighted() == (m.Weight == 0) {
			return fmt.Errorf("graph: insert weight %v does not match weighted=%v", m.Weight, g.Weighted())
		}
		adj := g.OutEdges(m.Src)
		at := g.Offsets[m.Src] + uint64(sort.Search(len(adj), func(i int) bool { return adj[i] > m.Dst }))
		g.Edges = spliceIn(g.Edges, at, m.Dst)
		if g.Weighted() {
			g.Weights = spliceIn(g.Weights, at, m.Weight)
			g.CumWeights = spliceIn(g.CumWeights, at, 0)
		}
		for v := uint64(m.Src) + 1; v <= n; v++ {
			g.Offsets[v]++
		}
	case OpDeleteEdge:
		adj := g.OutEdges(m.Src)
		hi := sort.Search(len(adj), func(i int) bool { return adj[i] > m.Dst })
		if hi == 0 || adj[hi-1] != m.Dst {
			return fmt.Errorf("graph: delete of missing edge (%d,%d)", m.Src, m.Dst)
		}
		at := g.Offsets[m.Src] + uint64(hi-1)
		g.Edges = spliceOut(g.Edges, at)
		if g.Weighted() {
			g.Weights = spliceOut(g.Weights, at)
			g.CumWeights = spliceOut(g.CumWeights, at)
		}
		for v := uint64(m.Src) + 1; v <= n; v++ {
			g.Offsets[v]--
		}
	default:
		return fmt.Errorf("graph: unknown mutation op %q", m.Op)
	}
	if g.Weighted() {
		var acc float32
		for i := g.Offsets[m.Src]; i < g.Offsets[m.Src+1]; i++ {
			acc += g.Weights[i]
			g.CumWeights[i] = acc
		}
	}
	return nil
}

func spliceIn[T any](s []T, at uint64, v T) []T {
	var zero T
	s = append(s, zero)
	copy(s[at+1:], s[at:])
	s[at] = v
	return s
}

func spliceOut[T any](s []T, at uint64) []T {
	copy(s[at:], s[at+1:])
	return s[:len(s)-1]
}

// sameBits reports whether two graphs hold byte-identical CSR arrays
// (float32s compared by bit pattern).
func sameBits(a, b *Graph) bool {
	f32 := func(x, y []float32) bool {
		return (x == nil) == (y == nil) && slices.EqualFunc(x, y, func(p, q float32) bool {
			return math.Float32bits(p) == math.Float32bits(q)
		})
	}
	return slices.Equal(a.Offsets, b.Offsets) && slices.Equal(a.Edges, b.Edges) &&
		f32(a.Weights, b.Weights) && f32(a.CumWeights, b.CumWeights)
}

// mutatedRebuild applies ms to a fresh Builder edge list (the "full
// rebuild" leg the incremental path must match bit for bit).
func mutatedRebuild(t *testing.T, numVertices uint64, edges []Edge, ms MutationStream, weighted bool) *Graph {
	t.Helper()
	list := append([]Edge(nil), edges...)
	for _, m := range ms {
		switch m.Op {
		case OpInsertEdge:
			w := m.Weight
			if !weighted {
				w = 1
			}
			list = append(list, Edge{Src: m.Src, Dst: m.Dst, Weight: w})
		case OpDeleteEdge:
			// Remove one (src, dst) instance; which one is irrelevant for
			// identical-weight duplicates, and the tests avoid
			// distinct-weight duplicates (Builder's sort is unstable there).
			for i := len(list) - 1; i >= 0; i-- {
				if list[i].Src == m.Src && list[i].Dst == m.Dst {
					list = append(list[:i], list[i+1:]...)
					break
				}
			}
		}
	}
	b := NewBuilder(numVertices)
	for _, e := range list {
		if weighted {
			b.AddWeightedEdge(e.Src, e.Dst, e.Weight)
		} else {
			b.AddEdge(e.Src, e.Dst)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	return g
}

func graphsEqual(t *testing.T, got, want *Graph) {
	t.Helper()
	if len(got.Offsets) != len(want.Offsets) {
		t.Fatalf("offsets length %d != %d", len(got.Offsets), len(want.Offsets))
	}
	for i := range got.Offsets {
		if got.Offsets[i] != want.Offsets[i] {
			t.Fatalf("offsets[%d] = %d, want %d", i, got.Offsets[i], want.Offsets[i])
		}
	}
	if len(got.Edges) != len(want.Edges) {
		t.Fatalf("edges length %d != %d", len(got.Edges), len(want.Edges))
	}
	for i := range got.Edges {
		if got.Edges[i] != want.Edges[i] {
			t.Fatalf("edges[%d] = %d, want %d", i, got.Edges[i], want.Edges[i])
		}
	}
	if (got.Weights == nil) != (want.Weights == nil) {
		t.Fatalf("weighted mismatch")
	}
	for i := range got.Weights {
		if got.Weights[i] != want.Weights[i] {
			t.Fatalf("weights[%d] = %v, want %v", i, got.Weights[i], want.Weights[i])
		}
		if got.CumWeights[i] != want.CumWeights[i] {
			t.Fatalf("cumweights[%d] = %v, want %v", i, got.CumWeights[i], want.CumWeights[i])
		}
	}
}

func testEdgesUnweighted() (uint64, []Edge) {
	return 8, []Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 3}, {Src: 0, Dst: 5},
		{Src: 1, Dst: 2}, {Src: 1, Dst: 2}, // parallel pair
		{Src: 2, Dst: 0}, {Src: 2, Dst: 7},
		{Src: 3, Dst: 4}, {Src: 4, Dst: 5}, {Src: 5, Dst: 6},
		{Src: 6, Dst: 7}, {Src: 7, Dst: 0},
	}
}

// TestApplyMutationMatchesRebuild is the package-level half of the
// metamorphic proof: applying a stream in place must produce the same CSR
// arrays as rebuilding the mutated edge list with Builder.
func TestApplyMutationMatchesRebuild(t *testing.T) {
	nv, edges := testEdgesUnweighted()
	ms := MutationStream{
		{At: 0, Op: OpInsertEdge, Src: 0, Dst: 7},
		{At: 0, Op: OpDeleteEdge, Src: 1, Dst: 2},
		{At: 5, Op: OpInsertEdge, Src: 4, Dst: 0},
		{At: 5, Op: OpInsertEdge, Src: 4, Dst: 2},
		{At: 9, Op: OpDeleteEdge, Src: 0, Dst: 3},
		{At: 12, Op: OpInsertEdge, Src: 7, Dst: 3},
		{At: 12, Op: OpDeleteEdge, Src: 7, Dst: 3},
	}
	base, err := FromEdges(nv, edges)
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.Validate(base, 0); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	got := base.Clone()
	for _, m := range ms {
		if err := got.ApplyMutation(m); err != nil {
			t.Fatalf("ApplyMutation(%+v): %v", m, err)
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("mutated graph invalid: %v", err)
	}
	graphsEqual(t, got, mutatedRebuild(t, nv, edges, ms, false))
	// The clone protected the original.
	orig, _ := FromEdges(nv, edges)
	graphsEqual(t, base, orig)
}

func TestApplyMutationMatchesRebuildWeighted(t *testing.T) {
	nv := uint64(6)
	b := NewBuilder(nv)
	edges := []Edge{
		{Src: 0, Dst: 1, Weight: 2}, {Src: 0, Dst: 2, Weight: 0.5},
		{Src: 1, Dst: 3, Weight: 1.25}, {Src: 2, Dst: 4, Weight: 3},
		{Src: 3, Dst: 5, Weight: 0.75}, {Src: 4, Dst: 0, Weight: 1},
		{Src: 5, Dst: 1, Weight: 2.5},
	}
	for _, e := range edges {
		b.AddWeightedEdge(e.Src, e.Dst, e.Weight)
	}
	base, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ms := MutationStream{
		{At: 0, Op: OpInsertEdge, Src: 0, Dst: 4, Weight: 1.5},
		{At: 3, Op: OpDeleteEdge, Src: 0, Dst: 2},
		{At: 3, Op: OpInsertEdge, Src: 5, Dst: 0, Weight: 0.25},
		{At: 7, Op: OpInsertEdge, Src: 2, Dst: 1, Weight: 4},
	}
	if err := ms.Validate(base, 0); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	got := base.Clone()
	for _, m := range ms {
		if err := got.ApplyMutation(m); err != nil {
			t.Fatalf("ApplyMutation(%+v): %v", m, err)
		}
	}
	graphsEqual(t, got, mutatedRebuild(t, nv, edges, ms, true))
}

// TestValidateMutationsRejects is the table of submission-time rejections:
// every bad stream must fail validation up front, never crash an apply.
func TestValidateMutationsRejects(t *testing.T) {
	nv, edges := testEdgesUnweighted()
	g, err := FromEdges(nv, edges)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		ms   MutationStream
		deg  uint64
	}{
		{"negative time", MutationStream{{At: -1, Op: OpInsertEdge, Src: 0, Dst: 1}}, 0},
		{"unsorted", MutationStream{{At: 5, Op: OpInsertEdge, Src: 0, Dst: 1}, {At: 4, Op: OpInsertEdge, Src: 0, Dst: 2}}, 0},
		{"unknown op", MutationStream{{At: 0, Op: "upsert", Src: 0, Dst: 1}}, 0},
		{"src out of range", MutationStream{{At: 0, Op: OpInsertEdge, Src: VertexID(nv), Dst: 1}}, 0},
		{"dst out of range", MutationStream{{At: 0, Op: OpInsertEdge, Src: 0, Dst: VertexID(nv)}}, 0},
		{"weight on unweighted", MutationStream{{At: 0, Op: OpInsertEdge, Src: 0, Dst: 1, Weight: 2}}, 0},
		{"weight on delete", MutationStream{{At: 0, Op: OpDeleteEdge, Src: 0, Dst: 1, Weight: 1}}, 0},
		{"delete missing edge", MutationStream{{At: 0, Op: OpDeleteEdge, Src: 0, Dst: 2}}, 0},
		{"delete beyond multiplicity", MutationStream{
			{At: 0, Op: OpDeleteEdge, Src: 1, Dst: 2},
			{At: 1, Op: OpDeleteEdge, Src: 1, Dst: 2},
			{At: 2, Op: OpDeleteEdge, Src: 1, Dst: 2},
		}, 0},
		{"degree cap", MutationStream{
			{At: 0, Op: OpInsertEdge, Src: 0, Dst: 6},
			{At: 0, Op: OpInsertEdge, Src: 0, Dst: 7},
		}, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.ms.Validate(g, tc.deg); err == nil {
				t.Fatalf("stream validated but should not have: %+v", tc.ms)
			}
		})
	}
	// Sanity: delete-then-reinsert of the parallel pair is legal, as is a
	// delete made possible by an earlier insert in the same stream.
	ok := MutationStream{
		{At: 0, Op: OpDeleteEdge, Src: 1, Dst: 2},
		{At: 0, Op: OpDeleteEdge, Src: 1, Dst: 2},
		{At: 1, Op: OpInsertEdge, Src: 1, Dst: 4},
		{At: 1, Op: OpDeleteEdge, Src: 1, Dst: 4},
	}
	if err := ok.Validate(g, 0); err != nil {
		t.Fatalf("legal stream rejected: %v", err)
	}
}

func TestMutationStreamHash(t *testing.T) {
	var empty MutationStream
	if empty.Hash() != (MutationStream{}).Hash() {
		t.Fatal("empty-stream hashes differ")
	}
	if empty.Hash() != [32]byte{} {
		t.Fatal("empty stream must hash to the zero array (cache-key compatibility)")
	}
	a := MutationStream{{At: 1, Op: OpInsertEdge, Src: 2, Dst: 3}}
	b := MutationStream{{At: 1, Op: OpInsertEdge, Src: 2, Dst: 3}}
	if a.Hash() != b.Hash() {
		t.Fatal("identical streams hash differently")
	}
	c := MutationStream{{At: 1, Op: OpDeleteEdge, Src: 2, Dst: 3}}
	d := MutationStream{{At: 2, Op: OpInsertEdge, Src: 2, Dst: 3}}
	if a.Hash() == c.Hash() || a.Hash() == d.Hash() {
		t.Fatal("distinct streams collide")
	}
	if a.Hash() == empty.Hash() {
		t.Fatal("non-empty stream hashed to the zero array")
	}
}

func TestNetEdges(t *testing.T) {
	ms := MutationStream{
		{At: 0, Op: OpInsertEdge, Src: 0, Dst: 1},
		{At: 1, Op: OpInsertEdge, Src: 0, Dst: 2},
		{At: 2, Op: OpDeleteEdge, Src: 0, Dst: 1},
	}
	if got := ms.NetEdges(0); got != 1 {
		t.Fatalf("NetEdges(0) = %d, want 1", got)
	}
	if got := ms.NetEdges(2); got != -1 {
		t.Fatalf("NetEdges(2) = %d, want -1", got)
	}
}

// TestApplyMutationsBatchMatchesPerMutation applies a batch that touches
// several sources with mixed-sign net deltas — so untouched segments move
// both left and right — on a weighted graph, and checks it against the
// per-mutation reference and the Builder rebuild. A rejected batch must
// leave the graph byte-identical.
func TestApplyMutationsBatchMatchesPerMutation(t *testing.T) {
	nv := uint64(8)
	edges := []Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 0.5}, {Src: 1, Dst: 5, Weight: 2},
		{Src: 2, Dst: 2, Weight: 1.5}, {Src: 3, Dst: 0, Weight: 1}, {Src: 4, Dst: 6, Weight: 3},
		{Src: 5, Dst: 7, Weight: 0.25}, {Src: 6, Dst: 1, Weight: 1}, {Src: 7, Dst: 4, Weight: 2},
	}
	b := NewBuilder(nv)
	for _, e := range edges {
		b.AddWeightedEdge(e.Src, e.Dst, e.Weight)
	}
	base, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ms := MutationStream{
		{Op: OpInsertEdge, Src: 6, Dst: 3, Weight: 2.5}, // +2 on 6: right move
		{Op: OpDeleteEdge, Src: 1, Dst: 5},              // -2 on 1: left move
		{Op: OpInsertEdge, Src: 6, Dst: 0, Weight: 0.75},
		{Op: OpDeleteEdge, Src: 1, Dst: 2},
		{Op: OpInsertEdge, Src: 4, Dst: 4, Weight: 1}, // rewire on 4
		{Op: OpDeleteEdge, Src: 4, Dst: 6},
		{Op: OpInsertEdge, Src: 7, Dst: 7, Weight: 4}, // insert-then-delete on 7
		{Op: OpDeleteEdge, Src: 7, Dst: 7},
	}
	ref := base.Clone()
	for _, m := range ms {
		if err := refApplyMutation(ref, m); err != nil {
			t.Fatalf("reference %+v: %v", m, err)
		}
	}
	got := base.Clone()
	if err := got.ApplyMutations(ms); err != nil {
		t.Fatalf("ApplyMutations: %v", err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("batched graph invalid: %v", err)
	}
	if !sameBits(got, ref) {
		t.Fatalf("batch diverged from the per-mutation reference:\n got %+v\nwant %+v", got, ref)
	}
	graphsEqual(t, got, mutatedRebuild(t, nv, edges, ms, true))

	bad := append(MutationStream{}, ms...)
	bad[5] = Mutation{Op: OpDeleteEdge, Src: 4, Dst: 2}
	rej := base.Clone()
	if err := rej.ApplyMutations(bad); err == nil || !strings.Contains(err.Error(), "mutation 5 ") {
		t.Fatalf("ApplyMutations with a missing delete at index 5: %v", err)
	}
	if !sameBits(rej, base) {
		t.Fatal("a rejected batch wrote the graph")
	}
}

// decodeMutationCase turns fuzz bytes into a graph of at most 16 vertices
// (weighted or not; parallel edges and self-loops allowed), its edge list,
// and a batch. Byte 0 picks the vertex count (low nibble) and weights (high
// bit); byte 1 the edge count; then 3 bytes per edge (src, dst, weight)
// and 3 per mutation (op, a, b). The op byte's low two bits choose an
// insert (0, 1), a delete of (a, b) that may be missing or out of range
// (2), or a delete of initial edge a, which an earlier delete may already
// have taken (3); its high bits pick the insert weight, including the
// invalid zero on weighted graphs and a non-zero one on unweighted graphs.
func decodeMutationCase(data []byte) (nv uint64, weighted bool, edges []Edge, ms MutationStream) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	h := next()
	nv, weighted = 1+uint64(h&15), h&0x80 != 0
	for ne := int(next() % 48); ne > 0 && len(data) > 0; ne-- {
		e := Edge{Src: VertexID(uint64(next()) % nv), Dst: VertexID(uint64(next()) % nv), Weight: 1}
		if wb := next(); weighted {
			e.Weight = 0.5 * float32(1+wb%4)
		}
		edges = append(edges, e)
	}
	for len(data) > 0 && len(ms) < 32 {
		op, a, b := next(), uint64(next()), uint64(next())
		switch op & 3 {
		case 0, 1:
			m := Mutation{Op: OpInsertEdge, Src: VertexID(a % nv), Dst: VertexID(b % nv)}
			if weighted {
				m.Weight = 0.5 * float32((op>>2)%5)
			} else if op>>2 == 63 {
				m.Weight = 1
			}
			ms = append(ms, m)
		case 2:
			ms = append(ms, Mutation{Op: OpDeleteEdge, Src: VertexID(a % (nv + 1)), Dst: VertexID(b % nv)})
		case 3:
			m := Mutation{Op: OpDeleteEdge}
			if len(edges) > 0 {
				e := edges[a%uint64(len(edges))]
				m.Src, m.Dst = e.Src, e.Dst
			}
			ms = append(ms, m)
		}
	}
	return nv, weighted, edges, ms
}

// distinctWeightParallels reports whether a weighted edge list plus a
// batch's inserts ever hold two (src, dst) edges of different weights —
// the one case where Builder's unstable sort leaves the order unspecified.
func distinctWeightParallels(edges []Edge, ms MutationStream) bool {
	seen := map[[2]VertexID]float32{}
	check := func(s, d VertexID, w float32) bool {
		k := [2]VertexID{s, d}
		if old, ok := seen[k]; ok && old != w {
			return true
		}
		seen[k] = w
		return false
	}
	for _, e := range edges {
		if check(e.Src, e.Dst, e.Weight) {
			return true
		}
	}
	for _, m := range ms {
		if m.Op == OpInsertEdge && check(m.Src, m.Dst, m.Weight) {
			return true
		}
	}
	return false
}

// FuzzApplyMutations checks the batched splice against the per-mutation
// reference on arbitrary small graphs and batches: the same acceptance,
// byte-identical arrays on success (also when the batch is split in two,
// which reuses the scratch), an untouched graph on rejection, a graph that
// passes Validate, and — where the order is defined — the Builder
// rebuild of the mutated edge list. Seeds live in
// testdata/fuzz/FuzzApplyMutations.
func FuzzApplyMutations(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		nv, weighted, edges, ms := decodeMutationCase(data)
		b := NewBuilder(nv)
		for _, e := range edges {
			if weighted {
				b.AddWeightedEdge(e.Src, e.Dst, e.Weight)
			} else {
				b.AddEdge(e.Src, e.Dst)
			}
		}
		base, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if weighted && base.Weights == nil {
			return // no edges: the Builder yields an unweighted graph
		}
		ref := base.Clone()
		var refErr error
		for _, m := range ms {
			if refErr = refApplyMutation(ref, m); refErr != nil {
				break
			}
		}
		got := base.Clone()
		err = got.ApplyMutations(ms)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("batch error %v, per-mutation reference error %v", err, refErr)
		}
		if err != nil {
			if !sameBits(got, base) {
				t.Fatalf("rejected batch (%v) wrote the graph", err)
			}
			return
		}
		if verr := got.Validate(); verr != nil {
			t.Fatalf("batched graph invalid: %v", verr)
		}
		if !sameBits(got, ref) {
			t.Fatalf("batch diverged from the per-mutation reference:\n got %+v\nwant %+v", got, ref)
		}
		split := base.Clone()
		half := len(ms) / 2
		if err := split.ApplyMutations(ms[:half]); err != nil {
			t.Fatalf("first half: %v", err)
		}
		if err := split.ApplyMutations(ms[half:]); err != nil {
			t.Fatalf("second half: %v", err)
		}
		if !sameBits(split, ref) {
			t.Fatal("two half batches diverged from the per-mutation reference")
		}
		// A rebuild of an emptied weighted graph comes out unweighted.
		if !weighted || (got.NumEdges() > 0 && !distinctWeightParallels(edges, ms)) {
			graphsEqual(t, got, mutatedRebuild(t, nv, edges, ms, weighted))
		}
	})
}

// FuzzOverlayMatchesApply checks the overlay against the CSR splice on
// FuzzApplyMutations' inputs (its generator and its seed corpus): an
// Overlay and a Clone take the same batch, whole, in thirds and one
// mutation per call, and after every call they agree on acceptance and
// on every vertex's edges, weights and cumulative weights, bit for bit,
// while the base graph stays untouched.
func FuzzOverlayMatchesApply(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzApplyMutations", "*"))
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range seeds {
		raw, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		_, arg, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(arg, "[]byte("), ")"))
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		f.Add([]byte(data))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		nv, weighted, edges, ms := decodeMutationCase(data)
		b := NewBuilder(nv)
		for _, e := range edges {
			if weighted {
				b.AddWeightedEdge(e.Src, e.Dst, e.Weight)
			} else {
				b.AddEdge(e.Src, e.Dst)
			}
		}
		base, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		pristine := base.Clone()
		for _, size := range []int{max(len(ms), 1), 3, 1} {
			o, ref := NewOverlay(base), base.Clone()
			for lo := 0; lo < len(ms); lo += size {
				batch := ms[lo:min(lo+size, len(ms))]
				oerr, rerr := o.Apply(batch), ref.ApplyMutations(batch)
				if (oerr == nil) != (rerr == nil) || (oerr != nil && oerr.Error() != rerr.Error()) {
					t.Fatalf("batch %v: overlay error %v, splice error %v", batch, oerr, rerr)
				}
				for v := VertexID(0); uint64(v) < nv; v++ {
					if !slices.Equal(o.OutEdges(v), ref.OutEdges(v)) ||
						!sameFloats(o.OutWeights(v), ref.OutWeights(v)) || !sameFloats(o.OutCumWeights(v), ref.OutCumWeights(v)) {
						t.Fatalf("after batch %v vertex %d: overlay %v %v %v, splice %v %v %v", batch, v,
							o.OutEdges(v), o.OutWeights(v), o.OutCumWeights(v),
							ref.OutEdges(v), ref.OutWeights(v), ref.OutCumWeights(v))
					}
				}
			}
		}
		if !sameBits(base, pristine) {
			t.Fatal("the overlay wrote its base graph")
		}
	})
}

// sameFloats compares two float32 runs by bit pattern; nil and empty are
// the same run.
func sameFloats(x, y []float32) bool {
	return slices.EqualFunc(x, y, func(p, q float32) bool { return math.Float32bits(p) == math.Float32bits(q) })
}

// benchCSR builds an MB-S-sized CSR directly — 65,536 vertices of
// out-degree 32, about 2M edges — rather than through the RMAT generator.
func benchCSR() *Graph {
	const nv, deg = 1 << 16, 32
	g := &Graph{Offsets: make([]uint64, nv+1), Edges: make([]VertexID, 0, nv*deg)}
	for v := uint64(0); v < nv; v++ {
		from := len(g.Edges)
		for i := uint64(0); i < deg; i++ {
			g.Edges = append(g.Edges, VertexID((v*2654435761+i*40503)%nv))
		}
		slices.Sort(g.Edges[from:])
		g.Offsets[v+1] = uint64(len(g.Edges))
	}
	return g
}

// BenchmarkApplyMutations times the graph layer of a mid-run rewire on an
// MB-S-sized CSR: a delete+insert on one source applied as two calls (each
// shifts the edge-array tail), as one degree-neutral batch (touches only
// the source's run) or as one batch into an Overlay over the CSR (copies
// the run into the overlay's arena), and a net +1 batch, which shifts the
// tail once.
func BenchmarkApplyMutations(b *testing.B) {
	g := benchCSR()
	nv := VertexID(g.NumVertices())
	rewire := func(r runReader, i int) (del, ins Mutation) {
		src := VertexID(i) * 40503 % nv
		del = Mutation{Op: OpDeleteEdge, Src: src, Dst: r.OutEdges(src)[0]}
		ins = Mutation{Op: OpInsertEdge, Src: src, Dst: VertexID(i) % nv}
		return del, ins
	}
	b.Run("rewire/per-call", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			del, ins := rewire(g, i)
			if err := g.ApplyMutation(del); err != nil {
				b.Fatal(err)
			}
			if err := g.ApplyMutation(ins); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rewire/batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			del, ins := rewire(g, i)
			if err := g.ApplyMutations([]Mutation{del, ins}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rewire/overlay", func(b *testing.B) {
		o := NewOverlay(g)
		for i := 0; i < b.N; i++ {
			del, ins := rewire(o, i)
			if err := o.Apply([]Mutation{del, ins}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("insert/batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			del, ins := rewire(g, i)
			grow := Mutation{Op: OpInsertEdge, Src: (del.Src + nv/2) % nv, Dst: del.Src}
			if err := g.ApplyMutations([]Mutation{del, ins, grow}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
