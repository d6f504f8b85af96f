package rng

import (
	"math/bits"
	"sync"
)

// Jump advances the generator exactly as n calls to Uint64 would, in
// O(popcount(n)) matrix-vector products instead of n steps. It lets
// parallel consumers of one stream start at any known offset: a worker that
// needs draws [i, j) jumps a copy of the seed state by i.
func (r *RNG) Jump(n uint64) { r.s = powers.jump(r.s, n) }

// stepPowers holds T^(2^k) for k = 0..63, where T is xoshiro256**'s state
// transition. The transition is linear over GF(2) on the 256-bit state, so
// T is a 256×256 bit matrix; m[k][j] is column j of T^(2^k), the state that
// T^(2^k) makes of the state with only bit j set. The table is 512 KiB and
// built on first use.
type stepPowers struct {
	once sync.Once
	m    [64][256][4]uint64
}

// powers is the process-wide table behind Jump.
var powers stepPowers

// jump returns s advanced by n steps, building the table on first use.
func (p *stepPowers) jump(s [4]uint64, n uint64) [4]uint64 {
	if n == 0 {
		return s
	}
	p.once.Do(p.build)
	// Powers of one matrix commute, so the set bits apply in any order.
	for k := 0; n != 0; k, n = k+1, n>>1 {
		if n&1 != 0 {
			s = mulVec(&p.m[k], s)
		}
	}
	return s
}

func (p *stepPowers) build() {
	for j := range p.m[0] {
		var r RNG
		r.s[j/64] = 1 << (j % 64)
		r.Uint64()
		p.m[0][j] = r.s
	}
	for k := 1; k < len(p.m); k++ {
		for j := range p.m[k] {
			p.m[k][j] = mulVec(&p.m[k-1], p.m[k-1][j])
		}
	}
}

// mulVec returns m·s over GF(2): the XOR of the columns of m that the set
// bits of s select.
func mulVec(m *[256][4]uint64, s [4]uint64) [4]uint64 {
	var out [4]uint64
	for w, word := range s {
		for ; word != 0; word &= word - 1 {
			col := &m[w*64+bits.TrailingZeros64(word)]
			out[0] ^= col[0]
			out[1] ^= col[1]
			out[2] ^= col[2]
			out[3] ^= col[3]
		}
	}
	return out
}
