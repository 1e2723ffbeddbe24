package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is the number of samples a reported percentile must leave
// above it.
const minBeyond = 10

// candidatePermille are the percentiles supportedPercentile picks
// from, in tenths of a percent, highest first.
var candidatePermille = []int{999, 990, 950, 900, 750, 500}

// supportedPercentile returns the highest candidate percentile that
// leaves at least minBeyond of n samples beyond it, or 0 when even the
// median is unsupported.
func supportedPercentile(n int) float64 {
	for _, pm := range candidatePermille {
		if n*(1000-pm) >= minBeyond*1000 {
			return float64(pm) / 10
		}
	}
	return 0
}

// windows is the number of equal spans each timed phase is split into.
// The reported latencies and rates are medians of the per-window
// figures, so a stall of the shared machine within one window does not
// move them, while a slower program shows in every window.
const windows = 5

// window returns the window of an op due at offset at of a phase.
func window(at, phase time.Duration) int {
	return min(max(int(at*windows/phase), 0), windows-1)
}

// latencySummary is a latency sample reduced to what is reported.
type latencySummary struct {
	// n is the sample size and supported the highest percentile it
	// supports.
	n         int
	supported float64
	// p50 is the median over the windows of each window's median, the
	// reported latency. p90 (the same over the windows' p90s) and the
	// whole sample's p95 and p99 are printed for inspection only.
	p50, p90, p95all, p99all float64
}

// summarize reduces latencies xs, the i-th due at offset at[i] of a
// phase.
func summarize(at []time.Duration, xs []float64, phase time.Duration) latencySummary {
	win := make([][]float64, windows)
	for i, x := range xs {
		k := window(at[i], phase)
		win[k] = append(win[k], x)
	}
	var p50s, p90s []float64
	for _, w := range win {
		if len(w) > 0 {
			sort.Float64s(w)
			p50s = append(p50s, percentile(w, 50))
			p90s = append(p90s, percentile(w, 90))
		}
	}
	all := append([]float64(nil), xs...)
	sort.Float64s(all)
	return latencySummary{
		n:         len(all),
		supported: supportedPercentile(len(all)),
		p50:       median(p50s),
		p90:       median(p90s),
		p95all:    percentile(all, 95),
		p99all:    percentile(all, 99),
	}
}

// report prints the sample's size and the highest percentile it
// supports next to the reported figures.
func (s latencySummary) report(workload string) {
	fmt.Fprintf(os.Stderr, "%s: %d latency samples support up to p%g; p50 %.3f p90 %.3f ms (medians of %d windows); whole-sample p95 %.3f p99 %.3f ms\n",
		workload, s.n, s.supported, s.p50, s.p90, windows, s.p95all, s.p99all)
}

// percentile returns the p-th percentile of sorted by linear
// interpolation between closest ranks; NaN for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// putMedian records the median of xs under name, when there is a
// sample.
func putMedian(m map[string]float64, name string, xs []float64) {
	if len(xs) > 0 {
		m[name] = median(xs)
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio returns a/b, 0 when b is 0 (no work of that kind was done).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += math.Log(x)
	}
	return math.Exp(t / float64(len(xs)))
}

// userHZ is the unit of the CPU times in /proc/<pid>/stat: clock ticks
// per second, 100 on every Linux architecture.
const userHZ = 100

// cpuSeconds reads a process's user plus system CPU time, all threads,
// from /proc; pid "self" names this process. Time the hypervisor stole
// from the machine's virtual CPUs is not in it.
func cpuSeconds(pid string) (float64, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields 3 on follow
	// its closing parenthesis. utime and stime are fields 14 and 15.
	f := strings.Fields(string(raw[strings.LastIndexByte(string(raw), ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%s/stat: %d fields", pid, len(f)+2)
	}
	var ticks float64
	for _, x := range f[11:13] {
		v, err := strconv.ParseFloat(x, 64)
		if err != nil {
			return 0, err
		}
		ticks += v
	}
	return ticks / userHZ, nil
}

// peakRSSMB reads a process's resident-set high-water mark (VmHWM) in
// MB from /proc; pid "self" names this process.
func peakRSSMB(pid string) (float64, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, os.ErrNotExist
}
