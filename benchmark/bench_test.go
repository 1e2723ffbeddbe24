package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for nocbench as plan_full's
// set-up probe child.
func TestMain(m *testing.M) {
	if len(os.Args) > 3 && os.Args[1] == "--setup-probe" {
		seed, err := strconv.ParseInt(os.Args[3], 10, 64)
		if err == nil {
			err = setupProbe(seed)
		}
		if err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	// 20 samples per window of 1s: window k holds 10k+1..10k+20, and
	// the last window is slowed by a stall of +1000.
	var xs []float64
	var at []time.Duration
	for k := 0; k < windows; k++ {
		for i := 1; i <= 20; i++ {
			x := float64(10*k + i)
			if k == windows-1 {
				x += 1000
			}
			xs = append(xs, x)
			at = append(at, time.Duration(k)*time.Second+time.Duration(i)*time.Second/21)
		}
	}
	s := summarize(at, xs, windows*time.Second)
	if s.n != 20*windows || s.supported != 90 {
		t.Errorf("n %d, supported p%g; want %d, p90", s.n, s.supported, 20*windows)
	}
	// Window k's median is 10k+10.5; the median window ignores the
	// stalled one, which the whole-sample p99 still shows.
	if want := 10*float64((windows-1)/2) + 10.5; s.p50 != want {
		t.Errorf("p50 = %g, want %g (the median window's median)", s.p50, want)
	}
	if s.p99all < 1000 {
		t.Errorf("whole-sample p99 = %g misses the stall", s.p99all)
	}
	if got := percentile([]float64{1, 2}, 75); got != 1.75 {
		t.Errorf("percentile interpolates to %g, want 1.75", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample is not NaN")
	}
}

// TestCPUTime checks the /proc reader against getrusage over busy
// work of 0.3s of CPU.
func TestCPUTime(t *testing.T) {
	proc0, err := cpuSeconds("self")
	if err != nil {
		t.Fatal(err)
	}
	self0, err := processCPU()
	if err != nil {
		t.Fatal(err)
	}
	x := 1.0
	for deadline := time.Now().Add(20 * time.Second); ; {
		for i := 0; i < 1e5; i++ {
			x = math.Sqrt(x + 1)
		}
		if now, _ := processCPU(); now-self0 >= 300*time.Millisecond || time.Now().After(deadline) {
			break
		}
	}
	proc1, _ := cpuSeconds("self")
	self1, _ := processCPU()
	if d := self1 - self0; d < 300*time.Millisecond {
		t.Fatalf("getrusage: %v of CPU in 20s of busy work (x=%g)", d, x)
	}
	// /proc counts in hundredths of a second.
	if d := proc1 - proc0; math.Abs(d-(self1-self0).Seconds()) > 0.05 {
		t.Errorf("/proc/self/stat counts %.2fs of CPU, getrusage %v", d, self1-self0)
	}
	if _, err := cpuSeconds("0"); err == nil {
		t.Error("no error for a process that does not exist")
	}
}

func TestPoissonScheduleReproducible(t *testing.T) {
	a := poissonSchedule(3, 1000, 10*time.Second)
	b := poissonSchedule(3, 1000, 10*time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed, %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, arrival %d at %v and %v", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrivals out of order at %d", i)
		}
	}
	// 10000 expected arrivals, standard deviation 100.
	if len(a) < 9600 || len(a) > 10400 {
		t.Errorf("%d arrivals at 1000/s over 10s", len(a))
	}
	c := poissonSchedule(4, 1000, 10*time.Second)
	if len(c) == len(a) && c[0] == a[0] {
		t.Error("seeds 3 and 4 drew the same schedule")
	}
}

func TestScenarioDrawsReproducible(t *testing.T) {
	draw := func(seed int64) ([]upload, []*serveInput) {
		g := &exploreGen{seed: seed}
		ups, err := g.sequence(60)
		if err != nil {
			t.Fatal(err)
		}
		return ups, g.inputs
	}
	a, ain := draw(5)
	b, bin := draw(5)
	reposts := 0
	for i := range a {
		if a[i].input != b[i].input || a[i].repost != b[i].repost || !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("seed 5 drew upload %d differently", i)
		}
		if ain[a[i].input].ref != bin[b[i].input].ref {
			t.Fatalf("upload %d: references %d and %d", i, ain[a[i].input].ref, bin[b[i].input].ref)
		}
		if a[i].repost {
			reposts++
		}
	}
	// One in four re-posts, and a re-post names a scenario already sent.
	if reposts < 5 || reposts > 25 {
		t.Errorf("%d re-posts in 60 uploads", reposts)
	}
	seen := map[int]bool{}
	for i, u := range a {
		if u.repost && !seen[u.input] {
			t.Errorf("upload %d re-posts scenario %d before it was sent", i, u.input)
		}
		seen[u.input] = true
	}
	c, _ := draw(6)
	if bytes.Equal(a[0].body, c[0].body) {
		t.Error("seeds 5 and 6 drew the same first scenario")
	}
}

// benchmarkFile is the part of BENCHMARK.json the program must agree
// with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not run", w.Name)
		}
	}
	check := func(kind string, listed []struct{ Name, Unit, Better string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(listed), len(defs))
			return
		}
		for i, m := range listed {
			d := defs[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %s %s %s", kind, i, m, d.name, d.unit, d.better)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

// buildNoctestd builds the server the serve workloads start.
func buildNoctestd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "noctestd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/noctestd")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building noctestd: %v\n%s", err, out)
	}
	return bin
}

// TestSmoke runs every workload briefly, untraced and traced, and
// checks that each prints every metric it must with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts noctestd and runs each workload for seconds")
	}
	bin := buildNoctestd(t)
	for _, w := range []string{"plan_full", "serve_warm_quick", "serve_explore"} {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w, seed: 1, seconds: 2, trace: traced, noctestd: bin, out: t.TempDir()}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s (traced %t): %v", w, traced, err)
			}
			if !res.Correct || res.Failed > 0 || res.Attempted < 1 {
				t.Errorf("%s (traced %t): correct %t, %d of %d failed", w, traced, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s (traced %t): %d metrics, want %d", w, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s (traced %t): metric %s = %+v, want unit %s", w, traced, d.name, m, d.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", w, d.name, m.Value)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(cfg.out, "trace-"+w+"-seed1.json")); err != nil {
					t.Errorf("%s: no trace written: %v", w, err)
				}
			}
		}
	}
}

// TestRepliesTakeTheFastCheck pins that noctestd's responses carry the
// reference plan in one of the forms the checker hashes, so checking
// them never decodes a plan while load is measured.
func TestRepliesTakeTheFastCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("starts noctestd")
	}
	bin := buildNoctestd(t)
	cfg := config{workload: "serve_explore", seed: 1, out: t.TempDir()}
	s, _, err := startNoctestd(bin, serverLog(cfg), "-workers", "2")
	if err != nil {
		t.Fatal(err)
	}
	defer s.stop()
	g := &exploreGen{seed: 3}
	ups, err := g.sequence(8)
	if err != nil {
		t.Fatal(err)
	}
	c := newChecker(g.inputs)
	lg := newLoadgen(s.base, nil, c)
	defer lg.close()
	var buf bytes.Buffer
	for _, u := range ups {
		var smp sample
		if lg.send(u, &smp, time.Now(), &buf); !smp.ok() {
			t.Fatal(smp.describe())
		}
	}
	if len(c.plans) != 0 {
		t.Errorf("%d plans needed decoding: the server's plan encoding no longer matches planForms", len(c.plans))
	}
}
