package core_test

import (
	"testing"

	"flashwalker/internal/core"
	"flashwalker/internal/harness"
)

var engineSink *core.Engine

// BenchmarkNewEngine times engine construction on two of the benchmark's
// set-ups: TT-S with 100k walks on one board (tt-unbiased) and MB-S with
// 50k walks on four boards (mb-array-mutate, without its rewire stream).
// The graphs are generated once, outside the timed loop.
func BenchmarkNewEngine(b *testing.B) {
	for _, c := range []struct {
		name, dataset string
		walks, boards int
	}{
		{"TT-S", "TT-S", 100_000, 1},
		{"MB-S-4", "MB-S", 50_000, 4},
	} {
		b.Run(c.name, func(b *testing.B) {
			d, err := harness.DatasetByName(c.dataset)
			if err != nil {
				b.Fatal(err)
			}
			g, err := d.Graph()
			if err != nil {
				b.Fatal(err)
			}
			rc := harness.FlashWalkerConfig(d, core.AllOptions(), c.walks, 1)
			rc.Cfg.Boards = c.boards
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, err := core.NewEngine(g, rc)
				if err != nil {
					b.Fatal(err)
				}
				engineSink = e
			}
		})
	}
}
