package main

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

func writeBench(t *testing.T, name, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseBenchFile(t *testing.T) {
	p := writeBench(t, "b.txt", `goos: linux
cpu: whatever
BenchmarkPortfolio/p93791/portfolio_workers1-4   1  16802536 ns/op  506455 cycles_portfolio  342924 orders_per_sec
BenchmarkPortfolio/p93791/portfolio_workers1-4   1  16900000 ns/op  506455 cycles_portfolio  340000 orders_per_sec
BenchmarkOther-4   2  100 ns/op
PASS
`)
	s, err := parseBenchFile(p)
	if err != nil {
		t.Fatal(err)
	}
	got := s["BenchmarkPortfolio/p93791/portfolio_workers1"]
	if got == nil {
		t.Fatalf("benchmark name not parsed (CPU suffix not stripped?): %v", s)
	}
	if len(got["ns/op"]) != 2 || len(got["orders_per_sec"]) != 2 {
		t.Fatalf("sample counts wrong: %v", got)
	}
	if got["orders_per_sec"][0] != 342924 {
		t.Fatalf("orders_per_sec[0] = %v", got["orders_per_sec"][0])
	}
	if len(s["BenchmarkOther"]["ns/op"]) != 1 {
		t.Fatalf("BenchmarkOther not parsed: %v", s)
	}
}

func lines(name string, orders []float64) string {
	out := ""
	for _, o := range orders {
		out += name + "-1   1  1000000 ns/op  " + strconv.FormatFloat(o, 'f', -1, 64) + " orders_per_sec\n"
	}
	return out
}

func TestCompareGatesRegressions(t *testing.T) {
	name := "BenchmarkPortfolio/p93791/portfolio_workers1"
	base := writeBench(t, "base.txt", lines(name, []float64{1000000, 1010000, 990000, 1005000, 995000, 1002000}))

	cases := []struct {
		label     string
		head      []float64
		regressed bool
	}{
		{"clean", []float64{1001000, 998000, 1003000, 997000, 1000000, 1004000}, false},
		{"regressed", []float64{800000, 810000, 790000, 805000, 795000, 802000}, true},
		{"small_dip", []float64{950000, 960000, 940000, 955000, 945000, 952000}, false},
		{"improved", []float64{1300000, 1310000, 1290000, 1305000, 1295000, 1302000}, false},
	}
	for _, tc := range cases {
		bs, err := parseBenchFile(base)
		if err != nil {
			t.Fatal(err)
		}
		hs, err := parseBenchFile(writeBench(t, "head.txt", lines(name, tc.head)))
		if err != nil {
			t.Fatal(err)
		}
		vs := compare(bs, hs, "BenchmarkPortfolio", 0.10, 0, 0.05, 4)
		if len(vs) != 2 || vs[0].unit != "ns/op" || vs[1].unit != "orders_per_sec" {
			t.Fatalf("%s: want ns/op and orders_per_sec verdicts, got %v", tc.label, vs)
		}
		if vs[0].regressed {
			t.Errorf("%s: equal ns/op flagged as regression: %+v", tc.label, vs[0])
		}
		if vs[1].regressed != tc.regressed {
			t.Errorf("%s: regressed = %v (delta %.1f%%, p=%.3f), want %v",
				tc.label, vs[1].regressed, vs[1].delta*100, vs[1].p, tc.regressed)
		}
	}
}

// TestCompareGatesWallTime pins the wall-time gate: at equal
// orders_per_sec, a 30% slower ns/op fails on its own.
func TestCompareGatesWallTime(t *testing.T) {
	name := "BenchmarkPortfolio/p93791/portfolio_workers1"
	render := func(ns []float64) string {
		out := ""
		for _, v := range ns {
			out += name + "-1   1  " + strconv.FormatFloat(v, 'f', -1, 64) + " ns/op  500000 orders_per_sec\n"
		}
		return out
	}
	bs, err := parseBenchFile(writeBench(t, "base.txt", render([]float64{1000000, 1010000, 990000, 1005000, 995000, 1002000})))
	if err != nil {
		t.Fatal(err)
	}
	hs, err := parseBenchFile(writeBench(t, "head.txt", render([]float64{1300000, 1313000, 1287000, 1306500, 1293500, 1302600})))
	if err != nil {
		t.Fatal(err)
	}
	vs := compare(bs, hs, "BenchmarkPortfolio", 0.10, 0, 0.05, 4)
	if len(vs) != 2 {
		t.Fatalf("want ns/op and orders_per_sec verdicts, got %+v", vs)
	}
	for _, v := range vs {
		if want := v.unit == "ns/op"; v.regressed != want {
			t.Errorf("%s: regressed = %v (delta %+.1f%%, p=%.3f), want %v", v.unit, v.regressed, v.delta*100, v.p, want)
		}
	}
}

func TestCompareFallsBackToNsPerOp(t *testing.T) {
	name := "BenchmarkPortfolio/p22810/single"
	// Baseline predates the orders_per_sec metric: ns/op only.
	baseBody := ""
	for _, ns := range []float64{1000000, 1010000, 990000, 1005000, 995000, 1002000} {
		baseBody += name + "-1   1  " + strconv.FormatFloat(ns, 'f', -1, 64) + " ns/op\n"
	}
	headBody := lines(name, []float64{500000, 500000, 500000, 500000}) // ns/op fixed at 1000000
	bs, err := parseBenchFile(writeBench(t, "base.txt", baseBody))
	if err != nil {
		t.Fatal(err)
	}
	hs, err := parseBenchFile(writeBench(t, "head.txt", headBody))
	if err != nil {
		t.Fatal(err)
	}
	vs := compare(bs, hs, "BenchmarkPortfolio", 0.10, 0, 0.05, 4)
	if len(vs) != 1 || vs[0].unit != "ns/op" {
		t.Fatalf("want ns/op fallback verdict, got %+v", vs)
	}
	if vs[0].regressed {
		t.Fatalf("equal ns/op medians flagged as regression: %+v", vs[0])
	}
	// A 2x ns/op slowdown must regress under the fallback metric.
	slowBody := ""
	for _, ns := range []float64{2000000, 2020000, 1980000, 2010000} {
		slowBody += name + "-1   1  " + strconv.FormatFloat(ns, 'f', -1, 64) + " ns/op\n"
	}
	hs2, err := parseBenchFile(writeBench(t, "slow.txt", slowBody))
	if err != nil {
		t.Fatal(err)
	}
	vs2 := compare(bs, hs2, "BenchmarkPortfolio", 0.10, 0, 0.05, 4)
	if len(vs2) != 1 || !vs2[0].regressed {
		t.Fatalf("2x ns/op slowdown not gated: %+v", vs2)
	}
}

func TestMannWhitneyP(t *testing.T) {
	same := []float64{1, 2, 3, 4, 5, 6}
	if p := mannWhitneyP(same, same); p < 0.5 {
		t.Errorf("identical samples p=%v, want ~1", p)
	}
	lo := []float64{1, 2, 3, 4, 5, 6}
	hi := []float64{10, 11, 12, 13, 14, 15}
	if p := mannWhitneyP(lo, hi); p >= 0.05 {
		t.Errorf("cleanly separated samples p=%v, want < 0.05", p)
	}
	if p := mannWhitneyP([]float64{5, 5, 5}, []float64{5, 5, 5}); p != 1 {
		t.Errorf("all-tied samples p=%v, want 1", p)
	}
}

// qlines renders bench lines carrying both the throughput metric and a
// deterministic cycles_portfolio makespan constant.
func qlines(name string, cycles float64, orders []float64) string {
	out := ""
	for _, o := range orders {
		out += name + "-1   1  1000000 ns/op  " +
			strconv.FormatFloat(cycles, 'f', -1, 64) + " cycles_portfolio  " +
			strconv.FormatFloat(o, 'f', -1, 64) + " orders_per_sec\n"
	}
	return out
}

// TestCompareGatesQuality pins the best-makespan gate: a worsened
// cycles_portfolio constant regresses at the default quality threshold
// of 0 even when throughput holds, an improved one passes, and both
// metrics are reported per benchmark.
func TestCompareGatesQuality(t *testing.T) {
	name := "BenchmarkPortfolio/p93791/portfolio_workers1"
	orders := []float64{1000000, 1010000, 990000, 1005000, 995000, 1002000}
	base := writeBench(t, "base.txt", qlines(name, 506455, orders))

	cases := []struct {
		label     string
		cycles    float64
		regressed bool
	}{
		{"pinned", 506455, false},
		{"improved", 506000, false},
		{"worsened", 506600, true},
	}
	for _, tc := range cases {
		bs, err := parseBenchFile(base)
		if err != nil {
			t.Fatal(err)
		}
		hs, err := parseBenchFile(writeBench(t, "head.txt", qlines(name, tc.cycles, orders)))
		if err != nil {
			t.Fatal(err)
		}
		vs := compare(bs, hs, "BenchmarkPortfolio", 0.10, 0, 0.05, 4)
		if len(vs) != 3 {
			t.Fatalf("%s: want two speed verdicts + one quality verdict, got %+v", tc.label, vs)
		}
		var quality *verdict
		for i := range vs {
			if vs[i].unit == "cycles_portfolio" {
				quality = &vs[i]
			}
		}
		if quality == nil {
			t.Fatalf("%s: no cycles_portfolio verdict in %+v", tc.label, vs)
		}
		if quality.regressed != tc.regressed {
			t.Errorf("%s: quality regressed = %v (delta %+.4f%%, p=%.3f), want %v",
				tc.label, quality.regressed, quality.delta*100, quality.p, tc.regressed)
		}
	}
}
