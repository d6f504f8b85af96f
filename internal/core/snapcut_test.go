package core_test

import (
	"context"
	"testing"

	"flashwalker/internal/core"
	"flashwalker/internal/harness"
	"flashwalker/internal/snapshot"
)

// BenchmarkSnapshotCut times the three costs of one durable checkpoint on
// the daemon's workload: building, encoding and decoding the middle cut of
// a TT-S 20k-walk run snapshotted at the service's cadence (a cut every 16
// checkpoints), the cut the benchmark's snapshot probes measure.
func BenchmarkSnapshotCut(b *testing.B) {
	d, err := harness.DatasetByName("TT-S")
	if err != nil {
		b.Fatal(err)
	}
	g, err := d.Graph()
	if err != nil {
		b.Fatal(err)
	}
	rc := harness.FlashWalkerConfig(d, core.AllOptions(), 20_000, 1)
	rc.SnapshotEvery = 16 * core.DefaultCheckpointEvery
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cut *core.Snapshot
	n := 0
	rc.OnSnapshot = func(s *core.Snapshot) {
		if n++; n == 4 { // the middle of the run's seven cuts
			cut = s
			cancel()
		}
	}
	e, err := core.NewEngine(g, rc)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.RunContext(ctx); err == nil || cut == nil {
		b.Fatalf("run ended after %d cuts without reaching the middle one", n)
	}
	// A resumed engine stands paused exactly at the cut.
	paused, err := core.ResumeEngine(g, cut, core.Observers{})
	if err != nil {
		b.Fatal(err)
	}
	const kind = "flashwalker-core-engine"
	data, err := snapshot.Encode(kind, cut)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := paused.BuildSnapshot(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := snapshot.Encode(kind, cut); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(data))/1024, "KiB")
	})
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var back core.Snapshot
			if err := snapshot.Decode(data, kind, &back); err != nil {
				b.Fatal(err)
			}
		}
	})
}
