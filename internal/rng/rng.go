// Package rng provides the deterministic pseudo-random number generators
// used throughout the simulator.
//
// Every simulated component (each walk updater's hardware RNG, the graph
// generators, the workload builders) owns its own RNG stream so that a run
// is reproducible from a single root seed regardless of event interleaving.
// Streams are derived with SplitMix64 and generated with xoshiro256**,
// which is small, fast, and has no stdlib dependencies.
package rng

import "math"

// RNG is a xoshiro256** generator. The zero value is not valid; construct
// with New.
type RNG struct {
	s [4]uint64
}

// splitmix64 advances the seed-expansion state and returns the next value.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed via SplitMix64 expansion, so any
// seed (including 0) yields a well-mixed state.
func New(seed uint64) *RNG {
	r := &RNG{}
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	return r
}

// Derive returns an independent stream for the given sub-identifier. Two
// different ids on the same parent yield decorrelated streams; the parent
// is not advanced.
func (r *RNG) Derive(id uint64) *RNG {
	x := r.s[0] ^ (id * 0x9e3779b97f4a7c15)
	d := &RNG{}
	for i := range d.s {
		d.s[i] = splitmix64(&x)
	}
	return d
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Uint32 returns 32 random bits.
func (r *RNG) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// This is the operation the walk updater's ALU performs to turn the raw
// hardware random number rnd0 into the edge offset rnd1 (paper §III-B).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n) by modulo reduction with
// rejection (unbiased): a draw below 2^64 mod n is redrawn, so every
// residue is left with the same number of draws. It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	for {
		v := r.Uint64()
		// The threshold 2^64 mod n is below n, so a draw of at least n
		// passes without the division that computes it.
		if v >= n || v >= -n%n {
			return v % n
		}
	}
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Perm fills out with a uniform random permutation of [0, len(out)).
func (r *RNG) Perm(out []int) {
	for i := range out {
		out[i] = i
	}
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
}

// Shuffle randomly permutes n elements using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
