// Command bench is the repository benchmark: four workloads that together
// exercise every layer of the simulator and the walk service, each
// measured end to end and, in a separate traced run, layer by layer.
//
//	bash bench/run.sh --workload tt-unbiased --seed 1 --seconds 20 --trace 0
//
// run.sh builds this package into .bench_build/ and runs it from the root
// of the checkout. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones.
// --workload all runs every workload in its own child process, in an
// order shuffled by the seed. See README.md for the workloads, metrics
// and baselines.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"

	"flashwalker/internal/rng"
	"flashwalker/internal/walk"
)

// workloads are the benchmark's workloads; README.md gives why each exists.
var workloads = []struct {
	name string
	run  func(*session) error
}{
	{"tt-unbiased", engineWorkload{dataset: "TT-S", walks: 100_000, boards: 1}.run},
	{"fs-node2vec", engineWorkload{
		dataset: "FS-S", walks: 50_000, boards: 1,
		spec: walk.Spec{Kind: walk.SecondOrder, Length: 6, P: 0.5, Q: 2},
	}.run},
	{"mb-array-mutate", engineWorkload{
		dataset: "MB-S", walks: 50_000, boards: 4, rewires: 250, rewireSpanNS: 1_500_000,
	}.run},
	{"daemon-jobs", runDaemon},
}

// endToEnd names the metrics printed with --trace 0; every other metric a
// run computes is per-layer.
var endToEnd = []string{"wall_mhops_s", "sim_us", "job_p50_ms", "setup_s", "peak_rss_mib"}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	toy      bool   // toy size, set by the smoke tests
	spans    string // where a traced run writes its spans
	digests  string // pinned outcome digests
	workDir  string // profiles and the file-system blob store
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// session is one workload run: its options, spans, checks and metrics.
type session struct {
	o      options
	tr     *tracer
	prof   *profiler
	pinned map[string]string

	attempted, failed int
	failures          []string
	notes             []string
	metrics           map[string]metric
}

func (s *session) set(name string, v float64, unit string) { s.metrics[name] = metric{v, unit} }

// check counts one operation and records its violations, if any.
func (s *session) check(op string, problems []string) {
	s.attempted++
	if len(problems) > 0 {
		s.failed++
		msg := op + ": " + strings.Join(problems, "; ")
		s.failures = append(s.failures, msg)
		fmt.Fprintln(os.Stderr, "bench: check failed:", msg)
	}
}

// traced runs one traced segment of a run: spans on and the CPU
// profiler recording.
func (s *session) traced(fn func()) error {
	if err := s.prof.start(); err != nil {
		return err
	}
	s.tr.on = true
	fn()
	s.tr.on = false
	return s.prof.stop()
}

// cpu reports the CPU attribution of every traced segment.
func (s *session) cpu() error {
	shares, err := s.prof.attribute()
	if err != nil {
		return err
	}
	for _, l := range cpuLayers {
		s.set("cpu."+l+"_pct", shares[l], "%")
	}
	return nil
}

// run executes one workload in this process.
func run(o options) (*session, error) {
	var fn func(*session) error
	for _, w := range workloads {
		if w.name == o.workload {
			fn = w.run
		}
	}
	if fn == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	pinned := map[string]string{}
	data, err := os.ReadFile(o.digests)
	if err != nil {
		return nil, fmt.Errorf("reading pinned digests: %w", err)
	}
	if err := json.Unmarshal(data, &pinned); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", o.digests, err)
	}
	s := &session{o: o, tr: newTracer(), prof: &profiler{dir: o.workDir}, pinned: pinned, metrics: map[string]metric{}}
	s.tr.on = o.trace
	if err := fn(s); err != nil {
		return s, err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return s, err
	}
	s.set("peak_rss_mib", rss, "MiB")
	if o.trace {
		if err := s.tr.write(o.spans); err != nil {
			return s, fmt.Errorf("writing spans: %w", err)
		}
		s.notes = append(s.notes, "spans: "+o.spans)
	}
	for name, m := range s.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return s, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return s, nil
}

// printed returns the metrics a run prints: end-to-end or per-layer.
func (s *session) printed() map[string]metric {
	out := map[string]metric{}
	e2e := map[string]bool{}
	for _, n := range endToEnd {
		e2e[n] = true
	}
	for name, m := range s.metrics {
		if e2e[name] != s.o.trace {
			out[name] = m
		}
	}
	return out
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (s *session) result() result {
	return result{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: s.printed()}
}

func printTable(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit")
	for _, n := range names {
		fmt.Fprintf(tw, "%s\t%.6g\t%s\n", n, ms[n].Value, ms[n].Unit)
	}
	tw.Flush()
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "tt-unbiased", "workload name, or all")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long the timed part of a run measures")
	flag.IntVar(&trace, "trace", 0, "1 runs traced and prints the per-layer metrics")
	flag.StringVar(&o.workDir, "work", filepath.Join(".bench_build", "work"), "directory for profiles and temporary stores")
	flag.StringVar(&o.spans, "spans", "", "spans file of a traced run (default: in the work directory)")
	flag.StringVar(&o.digests, "digests", filepath.Join("bench", "digests.json"), "pinned outcome digests")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: --trace takes 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	if o.spans == "" {
		o.spans = filepath.Join(o.workDir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
	}
	if o.workload == "all" {
		os.Exit(runAll(o))
	}
	s, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("workload %s  seed %d  trace %d  attempted %d  failed %d\n", o.workload, o.seed, trace, s.attempted, s.failed)
	printTable(s.printed())
	for _, n := range s.notes {
		fmt.Println("note:", n)
	}
	line, err := json.Marshal(s.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if s.failed > 0 {
		os.Exit(1)
	}
}

// runAll re-executes this binary once per workload, so peak RSS and heap
// growth stay per workload, in an order shuffled by the seed.
func runAll(o options) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	r := rng.New(o.seed)
	for i := len(names) - 1; i > 0; i-- {
		j := int(r.Uint64n(uint64(i + 1)))
		names[i], names[j] = names[j], names[i]
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	per := map[string]map[string]metric{}
	code := 0
	for _, name := range names {
		args := []string{"-workload", name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
			"-trace", trace, "-work", o.workDir, "-digests", o.digests}
		var out bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		last := lines[len(lines)-1]
		var res result
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s printed no result (%v)\n", name, runErr)
			code = 1
			continue
		}
		if runErr != nil {
			code = 1
		}
		for _, l := range lines[:len(lines)-1] {
			fmt.Println(l)
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		per[name] = res.Metrics
		for m, v := range res.Metrics {
			all.Metrics[name+"/"+m] = v
		}
	}
	printSummary(names, per)
	enc := json.NewEncoder(os.Stdout)
	for _, name := range names {
		keys := make([]string, 0, len(per[name]))
		for m := range per[name] {
			keys = append(keys, m)
		}
		sort.Strings(keys)
		for _, m := range keys {
			v := per[name][m]
			enc.Encode(struct {
				Workload string  `json:"workload"`
				Metric   string  `json:"metric"`
				Value    float64 `json:"value"`
				Unit     string  `json:"unit"`
			}{name, m, v.Value, v.Unit})
		}
	}
	line, _ := json.Marshal(all)
	fmt.Println(string(line))
	return code
}

// printSummary prints one row per metric and one column per workload.
func printSummary(names []string, per map[string]map[string]metric) {
	units := map[string]string{}
	for _, ms := range per {
		for m, v := range ms {
			units[m] = v.Unit
		}
	}
	rows := make([]string, 0, len(units))
	for m := range units {
		rows = append(rows, m)
	}
	sort.Strings(rows)
	w := bufio.NewWriter(os.Stdout)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprint(tw, "summary\tunit")
	for _, n := range names {
		fmt.Fprint(tw, "\t", n)
	}
	fmt.Fprintln(tw)
	for _, m := range rows {
		fmt.Fprintf(tw, "%s\t%s", m, units[m])
		for _, n := range names {
			if v, ok := per[n][m]; ok {
				fmt.Fprintf(tw, "\t%.6g", v.Value)
			} else {
				fmt.Fprint(tw, "\t-")
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	w.Flush()
}
