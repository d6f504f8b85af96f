package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"flashwalker/internal/core"
	"flashwalker/internal/graph"
	"flashwalker/internal/harness"
)

type declared struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func toy(t *testing.T, workload string, trace bool) options {
	dir := t.TempDir()
	secs := 0.1
	if workload == "daemon-jobs" {
		secs = 2
	}
	return options{
		workload: workload, seed: 1, seconds: secs, trace: trace, toy: true,
		digests: "digests.json", workDir: dir, spans: filepath.Join(dir, "spans.json"),
	}
}

// TestSmoke runs every workload traced at toy size and checks that both
// metric sets BENCHMARK.json declares are printed, with their units.
func TestSmoke(t *testing.T) {
	d := readDeclared(t)
	if len(d.EndToEnd) > 16 || len(d.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics, want at most 16 and 128", len(d.EndToEnd), len(d.PerLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	var e2e []string
	for _, m := range d.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	sort.Strings(e2e)
	want := append([]string(nil), endToEnd...)
	sort.Strings(want)
	if strings.Join(e2e, " ") != strings.Join(want, " ") {
		t.Fatalf("BENCHMARK.json end-to-end metrics %v, the benchmark prints %v", e2e, want)
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		if w.Name != workloads[i].name {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, workloads[i].name)
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := toy(t, w.name, true)
			s, err := run(o)
			if err != nil {
				t.Fatal(err)
			}
			if s.failed != 0 || s.attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", s.attempted, s.failed, s.failures)
			}
			for trace, set := range map[bool][]struct{ Name, Unit string }{false: d.EndToEnd, true: d.PerLayer} {
				s.o.trace = trace
				printed := s.printed()
				if len(printed) != len(set) {
					t.Errorf("trace=%v prints %d metrics, BENCHMARK.json declares %d", trace, len(printed), len(set))
				}
				for _, m := range set {
					if !name.MatchString(m.Name) {
						t.Errorf("metric name %q", m.Name)
					}
					got, ok := printed[m.Name]
					if !ok {
						t.Errorf("trace=%v: %s not printed", trace, m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("%s printed in %q, declared in %q", m.Name, got.Unit, m.Unit)
					}
				}
			}
			var cpu float64
			for _, l := range cpuLayers {
				cpu += s.metrics["cpu."+l+"_pct"].Value
			}
			if math.Abs(cpu-100) > 1 {
				t.Errorf("CPU attribution sums to %.2f%%", cpu)
			}
			if _, err := os.Stat(o.spans); err != nil {
				t.Errorf("no spans file: %v", err)
			}
		})
	}
}

// TestTamperedDigestFails checks that a pinned digest that does not match
// the run counts as a failed operation.
func TestTamperedDigestFails(t *testing.T) {
	o := toy(t, "tt-unbiased", false)
	data, err := os.ReadFile(o.digests)
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]string{}
	if err := json.Unmarshal(data, &pinned); err != nil {
		t.Fatal(err)
	}
	pinned["tt-unbiased/toy/seed=1"] = "0000000000000000"
	data, _ = json.Marshal(pinned)
	o.digests = filepath.Join(o.workDir, "digests.json")
	if err := os.WriteFile(o.digests, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if s.failed == 0 || float64(s.failed)/float64(s.attempted) <= 0 {
		t.Fatalf("a tampered pinned digest gave attempted %d, failed %d", s.attempted, s.failed)
	}
	if r := s.result(); r.Correct {
		t.Fatal("result reads correct")
	}
}

func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		name string
		v    float64
		ok   bool
	}{
		{200, "p90", 180, true},
		{100, "p90", 90, true},
		{99, "p75", 75, true},
		{40, "p75", 30, true},
		{39, "p50", 20, true},
		{20, "p50", 10, true},
		{19, "", 0, false},
	} {
		name, v, ok := tail(seq(c.n))
		if ok != c.ok || (ok && (name != c.name || v != c.v)) {
			t.Errorf("tail of %d samples = %s %v %v, want %s %v %v", c.n, name, v, ok, c.name, c.v, c.ok)
		}
	}
}

// TestRewireStream checks the mutation generator on seeds 1-20: every
// stream validates, leaves every degree unchanged and is time-sorted.
func TestRewireStream(t *testing.T) {
	d, err := harness.DatasetByName("TT-S")
	if err != nil {
		t.Fatal(err)
	}
	g, err := d.Graph()
	if err != nil {
		t.Fatal(err)
	}
	pc := harness.FlashWalkerConfig(d, core.AllOptions(), 1, 1).PartCfg
	for seed := uint64(1); seed <= 20; seed++ {
		ms, err := rewireStream(g, 500, 3_000_000, seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != 1000 {
			t.Fatalf("seed %d: %d mutations, want 1000", seed, len(ms))
		}
		if err := core.ValidateMutations(g, pc, ms); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		deg := map[graph.VertexID]int{}
		for i, m := range ms {
			if i > 0 && m.At < ms[i-1].At {
				t.Fatalf("seed %d: at_ns not sorted at %d", seed, i)
			}
			if m.At <= 0 {
				t.Fatalf("seed %d: mutation %d at %d, want mid-run", seed, i, m.At)
			}
			if m.Op == graph.OpInsertEdge {
				deg[m.Src]++
			} else {
				deg[m.Src]--
			}
			if g.OutDegree(m.Src) > rewireMaxDegree {
				t.Fatalf("seed %d: source %d has degree %d", seed, m.Src, g.OutDegree(m.Src))
			}
		}
		for v, dd := range deg {
			if dd != 0 {
				t.Fatalf("seed %d: vertex %d degree changes by %d", seed, v, dd)
			}
		}
	}
}

func TestAttribute(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "pprof-traces.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := attribute(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"graph": 40, "sim": 25, "core": 15, "gc": 10, "client": 5, "other": 5}
	var sum float64
	for _, l := range cpuLayers {
		sum += got[l]
		if math.Abs(got[l]-want[l]) > 1e-9 {
			t.Errorf("%s: %.4f%%, want %.4f%%", l, got[l], want[l])
		}
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "run", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "drain", Start: 50, End: 80}, // overlaps run
		{ID: 4, Parent: 2, Name: "first", Start: 10, End: 20},
	}
	got := selfTimes(spans)
	want := map[string]float64{"job": 30, "run": 40, "drain": 30, "first": 10}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time of %s = %v, want %v", k, got[k], v)
		}
	}
}
