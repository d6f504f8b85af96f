package harness

import (
	"context"
	"fmt"
	"io"
	"strconv"

	"flashwalker/internal/core"
	"flashwalker/internal/graph"
	"flashwalker/internal/metrics"
	"flashwalker/internal/sim"
	"flashwalker/internal/snapshot"
)

// resumeSnapshotAt is how many engine snapshots into a run the interrupted
// leg is killed, counting from the first cut after the time-0 hot-subgraph
// preload has landed; with SnapshotEvery=1 each snapshot is one checkpoint
// interval, so the cut lands a few thousand events in — late enough that
// every buffer tier holds live state, early enough that most of the run
// happens on the resumed engine.
const resumeSnapshotAt = 3

// ResumeRow compares one dataset's uninterrupted run against the same
// workload snapshotted mid-flight, serialized through the on-disk codec,
// and resumed — the durability extension's metamorphic check in production
// form: the two runs must agree on every walk outcome and on simulated
// time.
type ResumeRow struct {
	Dataset     string
	Walks       int
	DoneAtSnap  int // walks finished when the snapshot was cut
	SnapBytes   int // encoded snapshot container size
	CleanTime   sim.Time
	ResumedTime sim.Time
}

// ExtResume runs every dataset to completion, then reruns it with an
// interrupt at the resumeSnapshotAt-th checkpoint snapshot, round-trips
// the snapshot through snapshot.Encode/Decode, resumes, and verifies the
// resumed Result is identical. Any divergence fails the sweep rather than
// producing a row.
func ExtResume(ctx context.Context, scale float64, seed uint64, workers int) ([]ResumeRow, error) {
	ds := Datasets()
	rows := make([]ResumeRow, len(ds))
	err := sweep(ctx, workers, len(ds), func(i int) error {
		d := ds[i]
		walks := scaleWalks(d.DefaultWalks, scale)
		g, err := d.Graph()
		if err != nil {
			return err
		}
		rc := FlashWalkerConfig(d, core.AllOptions(), walks, seed)
		clean, err := runTo(ctx, g, rc)
		if err != nil {
			return err
		}

		// Interrupted leg: cancel the run at the Nth snapshot, exactly as
		// a killed daemon would leave it.
		runCtx, cut := context.WithCancel(ctx)
		defer cut()
		var snap *core.Snapshot
		count := 0
		rc2 := rc
		rc2.SnapshotEvery = 1
		rc2.OnSnapshot = func(s *core.Snapshot) {
			if s.Preloading() {
				return
			}
			count++
			if count == resumeSnapshotAt {
				snap = s
				cut()
			}
		}
		e, err := core.NewEngine(g, rc2)
		if err != nil {
			return err
		}
		if _, err := e.RunContext(runCtx); err == nil {
			return fmt.Errorf("resume %s: run finished before snapshot %d landed", d.Name, resumeSnapshotAt)
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if snap == nil {
			return fmt.Errorf("resume %s: interrupted after %d snapshots, wanted %d", d.Name, count, resumeSnapshotAt)
		}

		// Round-trip through the codec so the sweep also exercises the
		// serialized form, then resume to completion.
		data, err := snapshot.Encode("core-engine", snap)
		if err != nil {
			return err
		}
		back := new(core.Snapshot)
		if err := snapshot.Decode(data, "core-engine", back); err != nil {
			return err
		}
		e, err = core.ResumeEngine(g, back, core.Observers{})
		if err != nil {
			return err
		}
		resumed, err := e.RunContext(ctx)
		if err != nil {
			return err
		}

		if clean.Time != resumed.Time || clean.Completed != resumed.Completed ||
			clean.DeadEnded != resumed.DeadEnded || clean.Hops != resumed.Hops {
			return fmt.Errorf("resume %s: outcomes diverged (clean time=%v completed=%d hops=%d, resumed time=%v completed=%d hops=%d)",
				d.Name, clean.Time, clean.Completed, clean.Hops,
				resumed.Time, resumed.Completed, resumed.Hops)
		}
		rows[i] = ResumeRow{
			Dataset: d.Name, Walks: walks,
			DoneAtSnap: snap.WalksFinished(),
			SnapBytes:  len(data),
			CleanTime:  clean.Time, ResumedTime: resumed.Time,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// runTo executes rc on g to completion.
func runTo(ctx context.Context, g *graph.Graph, rc core.RunConfig) (*core.Result, error) {
	e, err := core.NewEngine(g, rc)
	if err != nil {
		return nil, err
	}
	return e.RunContext(ctx)
}

// FormatExtResume renders the snapshot/resume comparison.
func FormatExtResume(rows []ResumeRow) string {
	t := &metrics.Table{
		Title:   "Extension: snapshot -> serialize -> resume vs uninterrupted run, identical outcomes",
		Headers: []string{"dataset", "walks", "done@snap", "snapshot", "clean", "resumed"},
	}
	for _, r := range rows {
		t.AddRow(r.Dataset, fmt.Sprint(r.Walks),
			fmt.Sprint(r.DoneAtSnap),
			metrics.FormatBytes(int64(r.SnapBytes)),
			r.CleanTime.String(), r.ResumedTime.String())
	}
	return t.Render()
}

// ResumeCSV writes the resume-extension rows as CSV.
func ResumeCSV(w io.Writer, rows []ResumeRow) error {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{
			r.Dataset, strconv.Itoa(r.Walks),
			strconv.Itoa(r.DoneAtSnap), strconv.Itoa(r.SnapBytes),
			ns(r.CleanTime), ns(r.ResumedTime),
		}
	}
	return writeCSV(w, []string{
		"dataset", "walks", "done_at_snapshot", "snapshot_bytes",
		"clean_ns", "resumed_ns",
	}, out)
}
