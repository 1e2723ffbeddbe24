// Command benchgate compares two `go test -bench` output files and
// fails when HEAD regresses a benchmark against the baseline.
//
//	benchgate [-threshold 0.10] [-min-samples 4] [-filter BenchmarkPortfolio] baseline.txt head.txt
//
// For every benchmark name present in both files it gathers the sample
// sets and compares medians. A benchmark regresses when the HEAD median
// is worse than the baseline median by more than the threshold AND the
// difference is statistically significant under a two-sided
// Mann-Whitney U test (normal approximation with tie correction,
// alpha 0.05) — the same family of test benchstat applies. With fewer
// than -min-samples samples on either side the significance test has no
// power, so the gate falls back to the median delta alone.
//
// Two families of metric are gated independently for every benchmark:
//
//   - Speed: ns/op (lower is better, the wall time of one op) and
//     orders_per_sec (higher is better), each whenever both files
//     report it. Gated with -threshold. Wall time is gated on its own
//     because a change can score more orders per second and still
//     deliver each result later.
//   - Quality: every cycles_* metric present in both files (lower is
//     better — these are best-makespan constants, deterministic per
//     seed). Gated with -quality-threshold, default 0: any worsened
//     makespan fails CI exactly like a throughput regression.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches one benchmark result line: name, iteration count,
// then the metric fields ("<value> <unit>" pairs).
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

// samples maps benchmark name -> metric unit -> observed values.
type samples map[string]map[string][]float64

func parseBenchFile(path string) (samples, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := samples{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			unit := fields[i+1]
			if out[m[1]] == nil {
				out[m[1]] = map[string][]float64{}
			}
			out[m[1]][unit] = append(out[m[1]][unit], v)
		}
	}
	return out, sc.Err()
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mannWhitneyP returns the two-sided p-value of the Mann-Whitney U
// test under the normal approximation with tie correction. It is
// conservative for the tiny sample counts CI produces (6 vs 6) but
// separates clean shifts from runner noise well enough for a gate.
func mannWhitneyP(a, b []float64) float64 {
	type obs struct {
		v     float64
		group int
	}
	all := make([]obs, 0, len(a)+len(b))
	for _, v := range a {
		all = append(all, obs{v, 0})
	}
	for _, v := range b {
		all = append(all, obs{v, 1})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })

	n1, n2 := float64(len(a)), float64(len(b))
	n := n1 + n2
	ranks := make([]float64, len(all))
	tieTerm := 0.0
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		r := float64(i+j+1) / 2 // average rank of the tie block (1-based)
		for k := i; k < j; k++ {
			ranks[k] = r
		}
		t := float64(j - i)
		tieTerm += t*t*t - t
		i = j
	}
	r1 := 0.0
	for i, o := range all {
		if o.group == 0 {
			r1 += ranks[i]
		}
	}
	u := r1 - n1*(n1+1)/2
	mu := n1 * n2 / 2
	sigma2 := n1 * n2 / 12 * (n + 1 - tieTerm/(n*(n-1)))
	if sigma2 <= 0 {
		return 1 // all values tied: no evidence of a shift
	}
	z := (math.Abs(u-mu) - 0.5) / math.Sqrt(sigma2)
	if z < 0 {
		z = 0
	}
	return math.Erfc(z / math.Sqrt2)
}

// verdict describes one benchmark's comparison.
type verdict struct {
	name       string
	unit       string
	base, head float64
	delta      float64 // signed change in the metric, + = head larger
	p          float64
	regressed  bool
}

// judge scores one (benchmark, metric) pair; a nil verdict means the
// metric is missing on either side.
func judge(base, head samples, name, unit string, higherBetter bool, threshold, alpha float64, minSamples int) *verdict {
	bs, hs := base[name][unit], head[name][unit]
	if len(bs) == 0 || len(hs) == 0 {
		return nil
	}
	bm, hm := median(bs), median(hs)
	v := verdict{name: name, unit: unit, base: bm, head: hm, p: mannWhitneyP(bs, hs)}
	if bm != 0 {
		v.delta = (hm - bm) / bm
	}
	worse := v.delta
	if higherBetter {
		worse = -worse
	}
	v.regressed = worse > threshold &&
		(v.p < alpha || len(bs) < minSamples || len(hs) < minSamples)
	return &v
}

func compare(base, head samples, filter string, threshold, qualityThreshold, alpha float64, minSamples int) []verdict {
	names := make([]string, 0, len(head))
	for name := range head {
		if strings.HasPrefix(name, filter) && base[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	var out []verdict
	for _, name := range names {
		for _, speed := range []struct {
			unit         string
			higherBetter bool
		}{{"ns/op", false}, {"orders_per_sec", true}} {
			if v := judge(base, head, name, speed.unit, speed.higherBetter, threshold, alpha, minSamples); v != nil {
				out = append(out, *v)
			}
		}
		// Quality gate: every cycles_* metric both sides report is a
		// best-makespan constant — lower is better, and with the default
		// quality threshold of 0 any worsening regresses.
		units := make([]string, 0, len(head[name]))
		for u := range head[name] {
			if strings.HasPrefix(u, "cycles_") {
				units = append(units, u)
			}
		}
		sort.Strings(units)
		for _, u := range units {
			if v := judge(base, head, name, u, false, qualityThreshold, alpha, minSamples); v != nil {
				out = append(out, *v)
			}
		}
	}
	return out
}

func main() {
	threshold := flag.Float64("threshold", 0.10, "relative median regression that fails the gate")
	qualityThreshold := flag.Float64("quality-threshold", 0, "relative cycles_* (best makespan) worsening that fails the gate")
	alpha := flag.Float64("alpha", 0.05, "significance level for the Mann-Whitney test")
	minSamples := flag.Int("min-samples", 4, "samples per side below which the gate skips the significance test")
	filter := flag.String("filter", "BenchmarkPortfolio", "benchmark name prefix to gate")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchgate [flags] baseline.txt head.txt")
		os.Exit(2)
	}
	base, err := parseBenchFile(flag.Arg(0))
	if err == nil {
		var head samples
		head, err = parseBenchFile(flag.Arg(1))
		if err == nil {
			verdicts := compare(base, head, *filter, *threshold, *qualityThreshold, *alpha, *minSamples)
			if len(verdicts) == 0 {
				fmt.Fprintf(os.Stderr, "benchgate: no %s benchmarks common to both files\n", *filter)
				os.Exit(2)
			}
			failed := 0
			for _, v := range verdicts {
				status := "ok"
				if v.regressed {
					status = "REGRESSED"
					failed++
				}
				fmt.Printf("%-60s %14.1f -> %14.1f %-14s %+6.1f%% p=%.3f %s\n",
					v.name, v.base, v.head, v.unit, v.delta*100, v.p, status)
			}
			if failed > 0 {
				fmt.Fprintf(os.Stderr, "benchgate: %d metric(s) regressed\n", failed)
				os.Exit(1)
			}
			return
		}
	}
	fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
	os.Exit(2)
}
