package partition_test

import (
	"testing"

	"flashwalker/internal/bloom"
	"flashwalker/internal/core"
	"flashwalker/internal/graph"
	"flashwalker/internal/harness"
	"flashwalker/internal/partition"
)

// TestDenseTableMatchesFilter checks the dense table's per-vertex answers
// against a Bloom filter built over the dense set, for every vertex of the
// TT-S, FS-S and MB-S partitionings the engine builds, false positives
// included.
func TestDenseTableMatchesFilter(t *testing.T) {
	for _, name := range []string{"TT-S", "FS-S", "MB-S"} {
		d, err := harness.DatasetByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := d.Graph()
		if err != nil {
			t.Fatal(err)
		}
		p, err := partition.Partition(g, harness.FlashWalkerConfig(d, core.AllOptions(), 1, 1).PartCfg)
		if err != nil {
			t.Fatal(err)
		}
		var dense []graph.VertexID
		for v := graph.VertexID(0); uint64(v) < g.NumVertices(); v++ {
			if _, ok := p.Dense.Lookup(v); ok {
				dense = append(dense, v)
			}
		}
		f := bloom.New(max(len(dense), 1), 0.001)
		for _, v := range dense {
			f.Add(uint64(v))
		}
		falsePos := 0
		for v := graph.VertexID(0); uint64(v) < g.NumVertices(); v++ {
			want := f.Contains(uint64(v))
			if got := p.Dense.Contains(v); got != want {
				t.Fatalf("%s: vertex %d: table answers %v, filter %v", name, v, got, want)
			}
			if _, ok := p.Dense.Lookup(v); want && !ok {
				falsePos++
			}
		}
		t.Logf("%s: %d vertices, %d dense, %d false positives", name, g.NumVertices(), len(dense), falsePos)
		if len(dense) == 0 || falsePos == 0 {
			t.Fatalf("%s: %d dense vertices and %d false positives; the check must cover both", name, len(dense), falsePos)
		}
	}
}
