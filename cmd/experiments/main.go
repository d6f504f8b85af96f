// Command experiments regenerates every table and figure of the
// FlashWalker paper's evaluation section against the scaled datasets.
//
// Usage:
//
//	experiments -fig 1,5,6,7,8,9 -table 1,2,3,4 [-scale 1.0] [-seed 1]
//	experiments -all [-parallel N]
//	experiments -fig 8 -dataset CW-S
//
// -scale multiplies every walk count (use 0.1 for a quick pass); the
// tables are configuration/statistics only and ignore it. -parallel sets
// the sweep worker count (0 = one per CPU); every grid point is an
// independent seed-deterministic simulation, so the output is identical
// at any worker count.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"flashwalker/internal/harness"
)

func main() {
	figs := flag.String("fig", "", "comma-separated figure numbers to run (1,5,6,7,8,9)")
	tables := flag.String("table", "", "comma-separated table numbers to print (1,2,3,4)")
	energy := flag.Bool("energy", false, "run the energy-comparison extension experiment")
	algos := flag.Bool("algorithms", false, "run the walk-algorithm extension experiment")
	faults := flag.Bool("faults", false, "run the fault-injection extension experiment (clean vs default fault profile)")
	resume := flag.Bool("resume", false, "run the snapshot/resume extension experiment (uninterrupted vs snapshot->resume)")
	boards := flag.Bool("boards", false, "run the multi-board array scaling extension experiment (1/2/4/8 boards on MB-S)")
	all := flag.Bool("all", false, "run every table and figure")
	scale := flag.Float64("scale", 1.0, "walk-count scale factor")
	seed := flag.Uint64("seed", 1, "root seed")
	dataset := flag.String("dataset", "CW-S", "dataset for figure 8")
	parallel := flag.Int("parallel", 0, "sweep worker count (0 = GOMAXPROCS)")
	csvDir := flag.String("csv", "", "also write machine-readable CSV files to this directory")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
	}
	memProfilePath = *memprofile

	// Ctrl-C (or SIGTERM) cancels in-flight sweeps at the next event
	// boundary; partial figures still flush their profiles on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fail(err)
		}
	}
	csvOut = *csvDir

	if *all {
		*figs = "1,5,6,7,8,9"
		*tables = "1,2,3,4"
	}
	if *figs == "" && *tables == "" && !*energy && !*algos && !*faults && !*resume && !*boards {
		flag.Usage()
		os.Exit(2)
	}

	for _, t := range splitList(*tables) {
		if err := runTable(t); err != nil {
			fail(err)
		}
	}
	for _, f := range splitList(*figs) {
		if err := runFig(ctx, f, *scale, *seed, *dataset, *parallel); err != nil {
			fail(err)
		}
	}
	if *energy {
		rows, err := harness.ExtEnergy(ctx, *scale, *seed, *parallel)
		if err != nil {
			fail(err)
		}
		fmt.Println(harness.FormatExtEnergy(rows))
		if err := saveCSV("energy.csv", func(w *os.File) error {
			return harness.EnergyCSV(w, rows)
		}); err != nil {
			fail(err)
		}
	}
	if *algos {
		rows, err := harness.ExtAlgorithms(ctx, *scale, *seed, *parallel)
		if err != nil {
			fail(err)
		}
		fmt.Println(harness.FormatExtAlgorithms(rows))
	}
	if *faults {
		rows, err := harness.ExtFaults(ctx, *scale, *seed, *parallel)
		if err != nil {
			fail(err)
		}
		fmt.Println(harness.FormatExtFaults(rows))
		if err := saveCSV("faults.csv", func(w *os.File) error {
			return harness.FaultsCSV(w, rows)
		}); err != nil {
			fail(err)
		}
	}
	if *resume {
		rows, err := harness.ExtResume(ctx, *scale, *seed, *parallel)
		if err != nil {
			fail(err)
		}
		fmt.Println(harness.FormatExtResume(rows))
		if err := saveCSV("resume.csv", func(w *os.File) error {
			return harness.ResumeCSV(w, rows)
		}); err != nil {
			fail(err)
		}
	}
	if *boards {
		rows, err := harness.ExtBoards(ctx, *scale, *seed, *parallel)
		if err != nil {
			fail(err)
		}
		fmt.Println(harness.FormatExtBoards(rows))
		if err := saveCSV("boards.csv", func(w *os.File) error {
			return harness.BoardsCSV(w, rows)
		}); err != nil {
			fail(err)
		}
	}
	stopProfiles()
}

// memProfilePath, when non-empty, is where the allocation profile is
// written on exit.
var memProfilePath string

// stopProfiles flushes any requested profiles; it runs on both the normal
// and the error exit path so partial runs still yield usable profiles.
func stopProfiles() {
	pprof.StopCPUProfile()
	if memProfilePath == "" {
		return
	}
	f, err := os.Create(memProfilePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return
	}
	runtime.GC() // settle live heap so the profile reflects retained memory
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
	}
}

// csvOut, when non-empty, is the directory CSV copies of every result are
// written to.
var csvOut string

// saveCSV writes one figure's CSV next to the text output.
func saveCSV(name string, write func(w *os.File) error) error {
	if csvOut == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(csvOut, name))
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	// A failed close loses buffered CSV data; surface it instead of
	// reporting a clean run with a truncated file.
	return f.Close()
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

func runTable(t string) error {
	switch t {
	case "1":
		fmt.Println(harness.Table1())
	case "2":
		fmt.Println(harness.Table2())
	case "3":
		fmt.Println(harness.Table3())
	case "4":
		rows, err := harness.Table4()
		if err != nil {
			return err
		}
		fmt.Println(harness.FormatTable4(rows))
		if err := saveCSV("table4.csv", func(f *os.File) error {
			return harness.Table4CSV(f, rows)
		}); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown table %q (have 1-4)", t)
	}
	return nil
}

func runFig(ctx context.Context, f string, scale float64, seed uint64, dataset string, parallel int) error {
	switch f {
	case "1":
		rows, err := harness.Fig1(ctx, scale, seed, parallel)
		if err != nil {
			return err
		}
		fmt.Println(harness.FormatFig1(rows))
		return saveCSV("fig1.csv", func(w *os.File) error { return harness.Fig1CSV(w, rows) })
	case "5":
		rows, err := harness.Fig5(ctx, scale, seed, parallel)
		if err != nil {
			return err
		}
		fmt.Println(harness.FormatFig5(rows))
		return saveCSV("fig5.csv", func(w *os.File) error { return harness.Fig5CSV(w, rows) })
	case "6":
		rows, err := harness.Fig6(ctx, scale, seed, parallel)
		if err != nil {
			return err
		}
		fmt.Println(harness.FormatFig6(rows))
		return saveCSV("fig6.csv", func(w *os.File) error { return harness.Fig6CSV(w, rows) })
	case "7":
		rows, err := harness.Fig7(ctx, scale, seed, parallel)
		if err != nil {
			return err
		}
		fmt.Println(harness.FormatFig7(rows))
		return saveCSV("fig7.csv", func(w *os.File) error { return harness.Fig7CSV(w, rows) })
	case "8":
		s, err := harness.Fig8(ctx, dataset, scale, seed)
		if err != nil {
			return err
		}
		fmt.Println(harness.FormatFig8(s))
		fmt.Println(s.Sparklines())
		fmt.Printf("straggler tail (time after 90%% done): %.1f%% of run\n\n", 100*s.StragglerTail(0.9))
		return saveCSV("fig8.csv", func(w *os.File) error { return harness.Fig8CSV(w, s) })
	case "9":
		rows, err := harness.Fig9(ctx, scale, seed, parallel)
		if err != nil {
			return err
		}
		fmt.Println(harness.FormatFig9(rows))
		return saveCSV("fig9.csv", func(w *os.File) error { return harness.Fig9CSV(w, rows) })
	default:
		return fmt.Errorf("unknown figure %q (have 1,5,6,7,8,9)", f)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	stopProfiles()
	os.Exit(1)
}
