package walk

import (
	"math"
	"math/bits"
	"testing"

	"flashwalker/internal/graph"
	"flashwalker/internal/rng"
)

// refChooseSecondOrder is the second-order sampler as it was before the
// dart-first rule, the loop verbatim but for its last test, split in two
// so that darts can note each dart thrown at a proposal other than prev.
// The filter is asked about every such proposal.
func refChooseSecondOrder(s Spec, r *rng.RNG, edges []graph.VertexID, prev graph.VertexID,
	isNeighbor func(graph.VertexID) bool, darts *[]float64) (idx uint64, probes, rejects int) {
	wReturn, wCommon, wOut, wMax := s.SecondOrderWeights()
	deg := uint64(len(edges))
	for {
		i := r.Uint64n(deg)
		cand := edges[i]
		var w float64
		if cand == prev {
			w = wReturn
		} else {
			probes++
			if isNeighbor(cand) {
				w = wCommon
			} else {
				w = wOut
			}
		}
		if w >= wMax {
			if cand != prev {
				*darts = append(*darts, math.NaN())
			}
			return i, probes, rejects
		}
		u := r.Float64()
		if cand != prev {
			*darts = append(*darts, u)
		}
		if u < w/wMax {
			return i, probes, rejects
		}
		rejects++
	}
}

// secondOrderCase is one sampler input: the walk's spec, the candidate
// list, prev, the oracle's answers by vertex, and the RNG state.
type secondOrderCase struct {
	spec   Spec
	edges  []graph.VertexID
	prev   graph.VertexID
	common map[graph.VertexID]bool
	seed   uint64
	state  [4]uint64 // the RNG's raw state, used in place of seed when set
}

// checkSecondOrder runs the sampler and the reference on c and checks that
// they agree on the choice, both counts and the RNG state afterwards, and
// that the sampler asked the oracle about exactly the proposals whose
// outcome the answer decides: those where the two class weights differ in
// whether a dart is thrown, or where the dart the reference threw lies
// below one class's threshold and not the other's.
func checkSecondOrder(t *testing.T, c secondOrderCase) {
	t.Helper()
	var asked []graph.VertexID
	oracle := func(v graph.VertexID) bool { return c.common[v] }
	r, rr := rng.New(c.seed), rng.New(c.seed)
	if c.state != [4]uint64{} {
		r.SetState(c.state)
		rr.SetState(c.state)
	}
	idx, probes, rejects := c.spec.chooseSecondOrder(r, c.edges, c.prev, func(v graph.VertexID) bool {
		asked = append(asked, v)
		return oracle(v)
	})
	var darts []float64
	var proposals []graph.VertexID
	wIdx, wProbes, wRejects := refChooseSecondOrder(c.spec, rr, c.edges, c.prev, func(v graph.VertexID) bool {
		proposals = append(proposals, v)
		return oracle(v)
	}, &darts)
	if idx != wIdx || probes != wProbes || rejects != wRejects {
		t.Fatalf("p=%v q=%v: got (idx %d, probes %d, rejects %d), reference (%d, %d, %d)",
			c.spec.P, c.spec.Q, idx, probes, rejects, wIdx, wProbes, wRejects)
	}
	if *r != *rr {
		t.Fatalf("p=%v q=%v: RNG state after the call differs from the reference's", c.spec.P, c.spec.Q)
	}
	_, wCommon, wOut, wMax := c.spec.SecondOrderWeights()
	tCommon, tOut := wCommon/wMax, wOut/wMax
	var want []graph.VertexID
	for k, v := range proposals {
		u := darts[k]
		decides := (wCommon >= wMax) != (wOut >= wMax) ||
			wCommon < wMax && wOut < wMax && (u < tCommon) != (u < tOut)
		if decides {
			want = append(want, v)
		}
	}
	if len(asked) != len(want) {
		t.Fatalf("p=%v q=%v: oracle asked %d times, %d answers decide (of %d proposals)",
			c.spec.P, c.spec.Q, len(asked), len(want), len(proposals))
	}
	for k := range want {
		if asked[k] != want[k] {
			t.Fatalf("p=%v q=%v: oracle call %d asked about %d, want %d", c.spec.P, c.spec.Q, k, asked[k], want[k])
		}
	}
}

// randomSecondOrderCase draws a case from r: p and q from the three
// regimes (ties included) or uniform in [0.05, 20), 1 to 40 candidates over
// 64 vertices, prev among them half the time, and a random oracle.
func randomSecondOrderCase(r *rng.RNG) secondOrderCase {
	special := []float64{0.25, 0.5, 1, 2, 4}
	pick := func() float64 {
		if r.Bool(0.6) {
			return special[r.Intn(len(special))]
		}
		return 0.05 + 19.95*r.Float64()
	}
	c := secondOrderCase{
		spec:   Spec{Kind: SecondOrder, Length: 6, P: pick(), Q: pick()},
		common: map[graph.VertexID]bool{},
		seed:   r.Uint64(),
	}
	if r.Bool(0.2) {
		c.spec.Q = c.spec.P
	}
	n := 1 + r.Intn(40)
	for i := 0; i < n; i++ {
		c.edges = append(c.edges, graph.VertexID(r.Intn(64)))
	}
	c.prev = graph.VertexID(64 + r.Intn(64))
	if r.Bool(0.5) {
		c.prev = c.edges[r.Intn(n)]
	}
	for v := graph.VertexID(0); v < 64; v++ {
		c.common[v] = r.Bool(0.5)
	}
	return c
}

// TestChooseSecondOrderMatchesReference checks the dart-first sampler
// against the loop it replaced on random inputs from every regime.
func TestChooseSecondOrderMatchesReference(t *testing.T) {
	r := rng.New(31)
	regimes := map[string]int{}
	for i := 0; i < 20_000; i++ {
		c := randomSecondOrderCase(r)
		_, wCommon, wOut, wMax := c.spec.SecondOrderWeights()
		switch {
		case wCommon < wMax && wOut < wMax:
			regimes["darts"]++
		case wCommon >= wMax && wOut >= wMax:
			regimes["sure"]++
		default:
			regimes["probe first"]++
		}
		checkSecondOrder(t, c)
	}
	for _, k := range []string{"darts", "sure", "probe first"} {
		if regimes[k] < 500 {
			t.Fatalf("only %d cases in the %q regime: %v", regimes[k], k, regimes)
		}
	}
}

// stateAt returns a generator state whose first two Uint64 draws are a
// and b. xoshiro256** outputs rotl(s1*5, 7)*9 of its second word, which
// its first step turns into s1^s2^s0, so s0 = 0 and s2 = s1^s1' do.
func stateAt(a, b uint64) [4]uint64 {
	inv := func(x uint64) uint64 { // inverse of odd x mod 2^64, by Newton
		y := x
		for i := 0; i < 5; i++ {
			y *= 2 - x*y
		}
		return y
	}
	word := func(out uint64) uint64 { return bits.RotateLeft64(out*inv(9), -7) * inv(5) }
	return [4]uint64{0, word(a), word(a) ^ word(b), 0}
}

// TestChooseSecondOrderDartOnThreshold throws the first dart exactly at
// each class threshold and one step below it, at a first proposal that is
// and is not prev, under both oracle answers, in every regime p and q
// from {1/4, 1/2, 1, 2, 4} give. Random darts almost never land there.
func TestChooseSecondOrderDartOnThreshold(t *testing.T) {
	edges := []graph.VertexID{10, 11, 12, 13}
	const prev = 13
	vals := []float64{0.25, 0.5, 1, 2, 4}
	for _, p := range vals {
		for _, q := range vals {
			s := Spec{Kind: SecondOrder, Length: 6, P: p, Q: q}
			wReturn, wCommon, wOut, wMax := s.SecondOrderWeights()
			for _, th := range []float64{wReturn / wMax, wCommon / wMax, wOut / wMax} {
				for _, u := range []float64{th, th - 0x1p-53} {
					if u >= 1 {
						continue
					}
					for first := uint64(0); first < 4; first += 3 { // cand 10, then prev
						st := stateAt(first, uint64(u*0x1p53)<<11)
						var r rng.RNG
						if r.SetState(st); r.Uint64n(4) != first || r.Float64() != u {
							t.Fatalf("stateAt(%d, dart %v) draws something else", first, u)
						}
						for _, common := range []bool{false, true} {
							checkSecondOrder(t, secondOrderCase{spec: s, edges: edges, prev: prev,
								common: map[graph.VertexID]bool{10: common}, state: st})
						}
					}
				}
			}
		}
	}
}

// FuzzChooseSecondOrder makes the same checks on fuzzed p, q and
// candidate lists: each byte of adj is a candidate (prev is 255), and each
// bit of common answers the oracle for the vertex of its index.
func FuzzChooseSecondOrder(f *testing.F) {
	f.Add(0.5, 2.0, []byte{1, 2, 3, 255, 4}, uint64(0xa5a5), uint64(1))
	f.Add(2.0, 0.5, []byte{7, 255, 9}, uint64(0x3c), uint64(2))
	f.Add(1.0, 1.0, []byte{255, 3}, uint64(0), uint64(3))
	f.Add(1.0, 2.0, []byte{0, 1, 2, 3, 4, 5, 6, 7}, uint64(0xff), uint64(4))
	f.Add(0.25, 0.25, []byte{255, 255, 1}, uint64(2), uint64(5))
	f.Fuzz(func(t *testing.T, p, q float64, adj []byte, common, seed uint64) {
		if !(p >= 1.0/64 && p <= 64 && q >= 1.0/64 && q <= 64) || len(adj) == 0 || len(adj) > 256 {
			t.Skip()
		}
		c := secondOrderCase{
			spec:   Spec{Kind: SecondOrder, Length: 6, P: p, Q: q},
			prev:   255,
			common: map[graph.VertexID]bool{},
			seed:   seed,
		}
		for _, b := range adj {
			c.edges = append(c.edges, graph.VertexID(b))
		}
		for v := 0; v < 64; v++ {
			c.common[graph.VertexID(v)] = common>>v&1 == 1
		}
		checkSecondOrder(t, c)
	})
}
