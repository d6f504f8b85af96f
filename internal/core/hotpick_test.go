package core

import (
	"slices"
	"testing"

	"flashwalker/internal/partition"
	"flashwalker/internal/rng"
)

// refPickHotBlocks is pickHotBlocks as a selection sort: each pick rescans
// every candidate for the hottest unused, non-dense block that fits the
// remaining budget, the first of equals in candidate order. It is the
// reference pickHotBlocks must match.
func refPickHotBlocks(blocks []partition.Block, sums []uint64, candidates []int, budget int64, used map[int]bool) []int {
	chosen := []int{}
	for {
		best, bestSum := -1, uint64(0)
		for _, id := range candidates {
			b := &blocks[id]
			if used[id] || b.Dense || b.Bytes > budget {
				continue
			}
			if best == -1 || sums[id] > bestSum {
				best, bestSum = id, sums[id]
			}
		}
		if best == -1 {
			break
		}
		used[best] = true
		budget -= blocks[best].Bytes
		chosen = append(chosen, best)
	}
	return chosen
}

// TestPickHotBlocksMatchesReference compares pickHotBlocks with the
// selection sort over random blocks: sums drawn from a few values so ties
// are common, some dense blocks, budgets from none to all of the bytes,
// candidate lists that are subsets in any order (repeats included), and
// blocks already marked used, as the degraded-chip failover passes them.
func TestPickHotBlocksMatchesReference(t *testing.T) {
	r := rng.New(24)
	for trial := 0; trial < 3000; trial++ {
		n := 1 + r.Intn(40)
		blocks := make([]partition.Block, n)
		sums := make([]uint64, n)
		var total int64
		for i := range blocks {
			blocks[i] = partition.Block{ID: i, Bytes: int64(1 + r.Intn(100)), Dense: r.Intn(6) == 0}
			sums[i] = r.Uint64n(uint64(1 + r.Intn(8)))
			total += blocks[i].Bytes
		}
		candidates := make([]int, r.Intn(n+5))
		for i := range candidates {
			candidates[i] = r.Intn(n)
		}
		budget := int64(r.Uint64n(uint64(total + 2)))
		used := make([]bool, n)
		refUsed := map[int]bool{}
		for i := range used {
			if r.Intn(5) == 0 {
				used[i], refUsed[i] = true, true
			}
		}
		want := refPickHotBlocks(blocks, sums, candidates, budget, refUsed)
		got := pickHotBlocks(blocks, sums, candidates, budget, used)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: picked %v, reference %v (candidates %v, budget %d)", trial, got, want, candidates, budget)
		}
		for i := range used {
			if used[i] != refUsed[i] {
				t.Fatalf("trial %d: block %d used %v after the pick, reference %v", trial, i, used[i], refUsed[i])
			}
		}
	}
}
