package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one rep or one job share a trace id.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"` // 0 for a root span
	Trace  string  `json:"trace"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // since the tracer started
	End    float64 `json:"end_ms"`
}

func (s span) ms() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil or disabled
// tracer records nothing, so untraced runs pay one branch per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	on    bool
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id (0 when tracing is off).
func (t *tracer) add(trace, name string, parent int, start, end time.Time) int {
	if t == nil || !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		Start: msSince(t.t0, start), End: msSince(t.t0, end),
	})
	return id
}

func msSince(t0, t time.Time) float64 { return float64(t.Sub(t0)) / float64(time.Millisecond) }

// durations returns the duration in milliseconds of every span named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its child spans cover.
func selfTimes(spans []span) map[string]float64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += s.ms() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, children []span) float64 {
	iv := make([][2]float64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end float64
	for i, x := range iv {
		if i == 0 || x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// write stores every span plus the per-name self time at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.MarshalIndent(struct {
		Spans  []span             `json:"spans"`
		SelfMS map[string]float64 `json:"self_ms"`
	}{t.spans, selfTimes(t.spans)}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// cpuLayers are the attribution buckets, in report order. A sample is
// charged to the package of its deepest flashwalker/... frame; samples
// without one go to gc (collector work) or other.
var cpuLayers = []string{
	"sim", "core", "flash", "dram", "bloom", "walk", "partition", "graph",
	"rng", "snapshot", "blob", "service", "client", "gc", "other",
}

// layerOf maps a frame's function name to its bucket, "" for frames
// outside the flashwalker module.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "flashwalker.") {
		return "other" // the root facade package
	}
	rest, ok := strings.CutPrefix(fn, "flashwalker/")
	if !ok {
		return ""
	}
	rest = strings.TrimPrefix(rest, "internal/")
	pkg, _, _ := strings.Cut(rest, ".")
	pkg, _, _ = strings.Cut(pkg, "/")
	for _, l := range cpuLayers {
		if l == pkg {
			return l
		}
	}
	return "other"
}

// isGCFrame reports runtime frames that belong to the garbage collector.
func isGCFrame(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject", "runtime.sweepone"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// attribute parses `go tool pprof -traces` output and returns each
// bucket's share of the sampled CPU time in percent.
func attribute(r io.Reader) (map[string]float64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	byLayer := map[string]time.Duration{}
	var total time.Duration
	var cur time.Duration
	var frames []string
	inBlock := false
	flush := func() {
		if len(frames) == 0 {
			return
		}
		layer := ""
		for _, f := range frames { // leaf first: the first match is deepest
			if layer = layerOf(f); layer != "" {
				break
			}
		}
		if layer == "" {
			layer = "other"
			for _, f := range frames {
				if isGCFrame(f) {
					layer = "gc"
					break
				}
			}
		}
		byLayer[layer] += cur
		total += cur
		frames = frames[:0]
	}
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock = true
			continue
		}
		if !inBlock || strings.TrimSpace(line) == "" {
			continue
		}
		if !strings.HasPrefix(line, " ") {
			// A header line after the last block ("File: ...").
			inBlock = false
			continue
		}
		fields := strings.Fields(line)
		if len(frames) == 0 {
			if len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: sample line without a frame: %q", line)
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: sample value %q: %w", fields[0], err)
			}
			cur = d
			fields = fields[1:]
		}
		frames = append(frames, fields[0])
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("pprof traces: no samples")
	}
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		out[l] = 100 * float64(byLayer[l]) / float64(total)
	}
	return out, nil
}

// profiler records a CPU profile of each traced segment of a run, one
// file per segment, and attributes them together when the run ends.
type profiler struct {
	dir   string
	paths []string
	f     *os.File
}

func (p *profiler) start() error {
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(p.dir, "cpu-*.pprof")
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("starting CPU profile: %w", err)
	}
	p.f = f
	p.paths = append(p.paths, f.Name())
	return nil
}

func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// attribute merges the recorded profiles with `go tool pprof -traces` and
// returns each bucket's share of their CPU time.
func (p *profiler) attribute() (map[string]float64, error) {
	defer func() {
		for _, path := range p.paths {
			os.Remove(path)
		}
	}()
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces", exe}, p.paths...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return attribute(strings.NewReader(string(out)))
}
