package rng

import (
	"sync"
	"testing"
)

// stepped returns New(seed) advanced by n calls to Uint64.
func stepped(seed, n uint64) *RNG {
	r := New(seed)
	for i := uint64(0); i < n; i++ {
		r.Uint64()
	}
	return r
}

func TestJumpMatchesSteps(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 0xdeadbeefcafe} {
		for _, n := range []uint64{0, 1, 2, 63, 64, 65, 4097, 655360} {
			r := New(seed)
			r.Jump(n)
			want := stepped(seed, n)
			if r.State() != want.State() {
				t.Fatalf("seed %d: Jump(%d) state %x, want %x", seed, n, r.State(), want.State())
			}
			// The jumped stream continues the stepped one.
			for i := 0; i < 8; i++ {
				if got, w := r.Uint64(), want.Uint64(); got != w {
					t.Fatalf("seed %d: draw %d after Jump(%d) = %x, want %x", seed, i, n, got, w)
				}
			}
		}
	}
}

func TestJumpComposes(t *testing.T) {
	pairs := [][2]uint64{
		{0, 1 << 40}, {1, 1<<40 - 1}, {1 << 39, 1 << 39}, {12345, 1<<40 - 12345},
		{1<<33 + 7, 1<<35 + 3}, {999_999_937, 1<<40 - 999_999_937},
	}
	for _, p := range pairs {
		a, b := p[0], p[1]
		two, one := New(a^b), New(a^b)
		two.Jump(a)
		two.Jump(b)
		one.Jump(a + b)
		if two.State() != one.State() {
			t.Fatalf("Jump(%d) then Jump(%d) != Jump(%d)", a, b, a+b)
		}
	}
}

// TestJumpConcurrentFirstUse hammers a fresh table from several goroutines
// at once, so its lazy build is what they race on (run under -race).
func TestJumpConcurrentFirstUse(t *testing.T) {
	p := new(stepPowers)
	const goroutines = 8
	got := make([][4]uint64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = p.jump(New(uint64(g)).State(), 4097+uint64(g))
		}(g)
	}
	wg.Wait()
	for g, s := range got {
		if want := stepped(uint64(g), 4097+uint64(g)).State(); s != want {
			t.Errorf("goroutine %d: state %x, want %x", g, s, want)
		}
	}
}

func FuzzJump(f *testing.F) {
	for _, c := range [][2]uint64{{0, 0}, {1, 1}, {7, 63}, {42, 64}, {9, 4097}, {65535, 65535}} {
		f.Add(uint16(c[0]), uint16(c[1]))
	}
	f.Fuzz(func(t *testing.T, seed, n uint16) {
		r := New(uint64(seed))
		r.Jump(uint64(n))
		if want := stepped(uint64(seed), uint64(n)); r.State() != want.State() {
			t.Fatalf("seed %d: Jump(%d) state %x, want %x", seed, n, r.State(), want.State())
		}
	})
}

func BenchmarkJump(b *testing.B) {
	r := New(1)
	r.Jump(1) // build the table outside the timed loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Jump(1<<40 - 1)
	}
}
