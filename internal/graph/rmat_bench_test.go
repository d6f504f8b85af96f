package graph

import "testing"

var rmatSink *Graph

// BenchmarkRMAT times the generator: the small graph the tests use, the
// TT-S, FS-S and MB-S presets (the set-ups of the benchmark's tt-unbiased
// and daemon-jobs, fs-node2vec and mb-array-mutate workloads; the harness
// package defines them and imports this one, so they are repeated here),
// and the FS-S-weighted graph of the algorithms extension, which takes the
// sequential path.
func BenchmarkRMAT(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  RMATConfig
	}{
		{"small", DefaultRMAT(512, 4096, 1)},
		{"TT-S", RMATConfig{
			NumVertices: 10_156, NumEdges: 356_000,
			A: 0.57, B: 0.19, C: 0.19, D: 0.05,
			Noise: 0.05, RemoveDuplicates: true, Seed: 41,
		}},
		{"FS-S", RMATConfig{
			NumVertices: 16_016, NumEdges: 881_000,
			A: 0.48, B: 0.22, C: 0.22, D: 0.08,
			Noise: 0.05, RemoveDuplicates: true, Seed: 42,
		}},
		{"MB-S", DefaultRMAT(65_536, 2_000_000, 46)},
		{"weighted", RMATConfig{
			NumVertices: 16_016, NumEdges: 881_000,
			A: 0.48, B: 0.22, C: 0.22, D: 0.08,
			Noise: 0.05, RemoveDuplicates: true, Weighted: true, Seed: 42,
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, err := RMAT(c.cfg)
				if err != nil {
					b.Fatal(err)
				}
				rmatSink = g
			}
		})
	}
}
