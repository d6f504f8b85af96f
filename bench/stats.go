package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// median returns the middle value (mean of the two middle values for an
// even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-th percentile (0 < q <= 100).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// minBeyond is how many samples must lie above a percentile for it to be
// reported: fewer, and one outlier decides the number.
const minBeyond = 10

// tailPercentiles are the tail candidates, highest first; p90 is the target.
var tailPercentiles = []float64{90, 75, 50}

// tail picks the highest candidate percentile with at least minBeyond
// samples above its rank and returns its name ("p90") and value. ok is
// false when even the median lacks that many samples beyond it.
func tail(xs []float64) (name string, v float64, ok bool) {
	n := len(xs)
	for _, q := range tailPercentiles {
		rank := int(math.Ceil(q / 100 * float64(n)))
		if n-rank >= minBeyond {
			return fmt.Sprintf("p%g", q), percentile(xs, q), true
		}
	}
	return "", math.NaN(), false
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
