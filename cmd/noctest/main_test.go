package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"noctest/internal/core"
	"noctest/internal/itc02"
	"noctest/internal/report"
	"noctest/internal/soc"
	"noctest/internal/verify"
)

// capture redirects stdout around fn and returns what it printed. The
// run function prints plans and tables to stdout; the smoke tests only
// assert on the structure of that output.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	runErr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	r.Close()
	return out, runErr
}

// TestRunSingleVariant drives the plain scheduling path end to end.
func TestRunSingleVariant(t *testing.T) {
	out, err := capture(t, func() error {
		return run(config{bench: "d695", cpu: "leon", procs: 6, reuse: -1,
			variant: "greedy", priority: "processors-first", app: "bist",
			bist: 1, format: "summary", width: 80})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "makespan:") {
		t.Errorf("summary output missing makespan:\n%s", out)
	}
}

// TestRunPortfolio drives the -portfolio path and checks the
// per-strategy statistics and winner marker appear.
func TestRunPortfolio(t *testing.T) {
	out, err := capture(t, func() error {
		return run(config{bench: "d695", cpu: "leon", procs: 6, reuse: -1,
			variant: "greedy", priority: "processors-first", app: "bist",
			bist: 1, format: "summary", width: 80,
			portfolio: true, seed: 7})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"strategies raced", "<- best", "anneal(", "random-restart("} {
		if !strings.Contains(out, want) {
			t.Errorf("portfolio output missing %q:\n%s", want, out)
		}
	}
}

// TestRunGridRestricted drives -all with a -bench restriction and
// checks one row per grid cell of the single benchmark appears.
func TestRunGridRestricted(t *testing.T) {
	out, err := capture(t, func() error {
		return run(config{bench: "d695", benchSet: true, cpu: "leon",
			bist: 1, all: true, seed: 7})
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "d695/") {
			rows++
		}
		if strings.Contains(line, "p22810/") || strings.Contains(line, "p93791/") {
			t.Errorf("-bench d695 restriction leaked other benchmarks: %s", line)
		}
	}
	// Default grid: 2 power fractions x 2 reuse counts x 2 link modes.
	if rows != 8 {
		t.Errorf("got %d d695 grid rows, want 8:\n%s", rows, out)
	}
}

// TestRunBenchJSON drives -bench-json and checks the written document
// parses and carries one record with plausible fields.
func TestRunBenchJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_schedule.json")
	_, err := capture(t, func() error {
		return run(config{bench: "d695", benchSet: true, cpu: "leon",
			bist: 1, seed: 7, benchJSON: path})
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc report.ScheduleBench
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("bench json does not parse: %v\n%s", err, data)
	}
	if len(doc.Records) != 1 || doc.Records[0].Benchmark != "d695" {
		t.Fatalf("unexpected records: %+v", doc.Records)
	}
	r := doc.Records[0]
	if r.BestMakespan <= 0 || r.NsPerScheduleBest <= 0 || r.BestScheduler == "" {
		t.Errorf("implausible record: %+v", r)
	}
	if doc.Seed != 7 {
		t.Errorf("seed %d, want 7", doc.Seed)
	}

	// Refreshing in place preserves keys the generator does not own —
	// the committed file's hand-maintained baseline blocks.
	tagged := strings.Replace(string(data), "{\n", "{\n  \"baseline_hand_block\": {\"keep\": true},\n", 1)
	if err := os.WriteFile(path, []byte(tagged), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = capture(t, func() error {
		return run(config{bench: "d695", benchSet: true, cpu: "leon",
			bist: 1, seed: 7, benchJSON: path})
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "\"baseline_hand_block\"") {
		t.Errorf("-bench-json clobbered a hand-maintained block:\n%s", data)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("merged bench json does not parse: %v", err)
	}
}

// TestRunSweep drives -sweep end to end: the JSON summary must land in
// -sweep-out, parse as a verify.Summary, report zero violations on the
// fixed seed and carry the three embedded-benchmark gap records.
func TestRunSweep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.json")
	_, err := capture(t, func() error {
		return run(config{sweep: 6, seed: 1, sweepOut: path, shrinkDir: ""})
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sum verify.Summary
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatalf("sweep json does not parse: %v\n%s", err, data)
	}
	if sum.Scenarios != 6 || sum.Seed != 1 {
		t.Errorf("summary echoes scenarios=%d seed=%d, want 6/1", sum.Scenarios, sum.Seed)
	}
	if n := sum.Failed(); n != 0 {
		t.Errorf("fixed-seed smoke sweep reported %d violations: %+v", n, sum.Failures)
	}
	if sum.WorstGap < 1 {
		t.Errorf("worst lower-bound gap %g below 1", sum.WorstGap)
	}
	if len(sum.BenchmarkGaps) != 3 {
		t.Fatalf("want 3 benchmark gap records, got %+v", sum.BenchmarkGaps)
	}
	for _, g := range sum.BenchmarkGaps {
		if g.Gap < 1 || g.LowerBound < 1 {
			t.Errorf("%s: implausible gap record %+v", g.Benchmark, g)
		}
	}
}

// TestRunSweepWithoutOut checks the summary goes to stdout when no
// -sweep-out is given.
func TestRunSweepWithoutOut(t *testing.T) {
	out, err := capture(t, func() error {
		return run(config{sweep: 2, seed: 5, shrinkDir: ""})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "\"worst_lower_bound_gap\"") {
		t.Errorf("stdout missing sweep summary:\n%s", out)
	}
}

// TestRunFlagValidation covers the error paths of flag translation and
// benchmark loading.
func TestRunFlagValidation(t *testing.T) {
	base := config{bench: "d695", cpu: "leon", procs: 6, reuse: -1,
		variant: "greedy", priority: "processors-first", app: "bist",
		bist: 1, format: "summary", width: 80}

	cases := []struct {
		name   string
		mutate func(*config)
		want   string
	}{
		{"variant", func(c *config) { c.variant = "psychic" }, "unknown variant"},
		{"priority", func(c *config) { c.priority = "vibes" }, "unknown priority"},
		{"application", func(c *config) { c.app = "teleport" }, "unknown application"},
		{"format", func(c *config) { c.format = "holograph" }, "unknown format"},
		{"benchmark", func(c *config) { c.bench = "nonexistent-bench" }, "neither an embedded benchmark"},
		{"cpu", func(c *config) { c.cpu = "pentium" }, "unknown processor profile"},
		// A negative deadline used to be silently dropped (scheduling
		// unbounded); it must be rejected before any mode dispatches.
		{"timeout", func(c *config) { c.timeout = -2 * time.Minute; c.portfolio = true }, "invalid -timeout"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := base
			tc.mutate(&c)
			_, err := capture(t, func() error { return run(c) })
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got error %v, want containing %q", err, tc.want)
			}
		})
	}
}

// TestRunProfiles drives -cpuprofile/-memprofile around a portfolio run
// and checks both pprof files land non-empty, so future perf PRs can
// attach evidence without re-plumbing the collection.
func TestRunProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	_, err := capture(t, func() error {
		return run(config{bench: "d695", cpu: "leon", procs: 6, reuse: -1,
			variant: "greedy", priority: "processors-first", app: "bist",
			bist: 1, format: "summary", width: 80,
			portfolio: true, seed: 3, cpuProfile: cpu, memProfile: mem})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if info.Size() == 0 {
			t.Errorf("profile %s is empty", path)
		}
	}
}

// TestRunTopologyFlags drives the -topology and -failed-links paths:
// both fabrics schedule end to end and the summary names the fabric in
// the plan notes.
func TestRunTopologyFlags(t *testing.T) {
	base := config{bench: "d695", cpu: "leon", procs: 6, reuse: -1,
		variant: "greedy", priority: "processors-first", app: "bist",
		bist: 1, format: "summary", width: 80}

	torus := base
	torus.topology = "torus"
	out, err := capture(t, func() error { return run(torus) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "fabric: torus 4x4") {
		t.Errorf("summary does not record the torus fabric:\n%s", out)
	}

	degraded := base
	degraded.topology = "mesh"
	degraded.failed = 2
	degraded.seed = 7
	out, err = capture(t, func() error { return run(degraded) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "fabric: degraded mesh 4x4 (2 failed links)") {
		t.Errorf("summary does not record the degraded fabric:\n%s", out)
	}

	bad := base
	bad.topology = "hypercube"
	if _, err := capture(t, func() error { return run(bad) }); err == nil {
		t.Error("unknown -topology accepted")
	}
}

// TestRunSweepForcedTopology checks -sweep-topology threads through to
// the generator: a tiny forced-torus sweep completes cleanly.
func TestRunSweepForcedTopology(t *testing.T) {
	dir := t.TempDir()
	sweepOut := filepath.Join(dir, "sweep.json")
	_, err := capture(t, func() error {
		return run(config{sweep: 2, seed: 3, sweepTopology: "torus",
			sweepOut: sweepOut, shrinkDir: ""})
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(sweepOut)
	if err != nil {
		t.Fatal(err)
	}
	var sum verify.Summary
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Scenarios != 2 || sum.Failed() != 0 {
		t.Errorf("forced-torus sweep summary unexpected: %+v", sum)
	}
}

// TestRunPreemptFlags drives the preemptive scheduling path: -preempt
// schedules end to end and the summary notes the segment policy, the
// cap and resume cost thread through, and bad values are rejected.
func TestRunPreemptFlags(t *testing.T) {
	base := config{bench: "d695", cpu: "leon", procs: 6, reuse: -1,
		variant: "greedy", priority: "processors-first", app: "bist",
		bist: 1, format: "summary", width: 80}

	pre := base
	pre.preempt = true
	pre.resume = 50
	out, err := capture(t, func() error { return run(pre) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "preemptive: tests split into at most 4 segments") ||
		!strings.Contains(out, "resume cost 50 cycles") {
		t.Errorf("summary does not record the preemption policy:\n%s", out)
	}

	capped := base
	capped.maxSegs = 2
	out, err = capture(t, func() error { return run(capped) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "at most 2 segments") {
		t.Errorf("-max-segments did not thread through:\n%s", out)
	}

	bad := base
	bad.maxSegs = -1
	if _, err := capture(t, func() error { return run(bad) }); err == nil {
		t.Error("negative -max-segments accepted")
	}
}

// TestRunSweepForcedPreemption checks -sweep-preempt threads through to
// the generator: a tiny forced-preemptive sweep completes cleanly, and
// an unknown mode is rejected.
func TestRunSweepForcedPreemption(t *testing.T) {
	dir := t.TempDir()
	sweepOut := filepath.Join(dir, "sweep.json")
	_, err := capture(t, func() error {
		return run(config{sweep: 2, seed: 3, sweepPreempt: "preemptive",
			sweepOut: sweepOut, shrinkDir: ""})
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(sweepOut)
	if err != nil {
		t.Fatal(err)
	}
	var sum verify.Summary
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Scenarios != 2 || sum.Failed() != 0 {
		t.Errorf("forced-preemptive sweep summary unexpected: %+v", sum)
	}

	if _, err := capture(t, func() error {
		return run(config{sweep: 1, sweepPreempt: "maybe", shrinkDir: ""})
	}); err == nil {
		t.Error("unknown -sweep-preempt accepted")
	}
}

// TestRunServeURL drives the -serve-url remote path against a fake
// noctestd: the first attempt answers 503 so the retrying client has
// to earn the result, the second answers a real schedule response, and
// the command validates the plan locally before printing it.
func TestRunServeURL(t *testing.T) {
	bench, err := itc02.Benchmark("d695")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := soc.Build(bench, soc.BuildConfig{Processors: 6, Profile: soc.Leon()})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Schedule(sys, core.Options{BISTPatternFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	var planBuf strings.Builder
	if err := p.WriteJSON(&planBuf); err != nil {
		t.Fatal(err)
	}
	respBody, err := json.Marshal(map[string]any{
		"system": sys.Name, "makespan": p.Makespan(), "best": "fake-strategy",
		"cache": "hit", "partial": false,
		"plan": json.RawMessage(planBuf.String()),
	})
	if err != nil {
		t.Fatal(err)
	}

	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/schedule" {
			t.Errorf("fake server got path %q", r.URL.Path)
		}
		q := r.URL.Query()
		if q.Get("procs") != "6" || q.Get("cpu") != "leon" || q.Get("search") != "full" || q.Get("seed") != "7" {
			t.Errorf("query missing expected parameters: %s", r.URL.RawQuery)
		}
		if body, _ := io.ReadAll(r.Body); !strings.Contains(string(body), "d695") {
			t.Error("upload does not carry the benchmark")
		}
		if calls.Add(1) == 1 {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Write(respBody)
	}))
	defer srv.Close()

	out, err := capture(t, func() error {
		return run(config{bench: "d695", cpu: "leon", procs: 6, reuse: -1,
			variant: "greedy", priority: "processors-first", app: "bist",
			bist: 1, format: "summary", width: 80,
			serveURL: srv.URL, seed: 7})
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Errorf("fake server saw %d calls, want 2 (one 503 + one retry)", calls.Load())
	}
	for _, want := range []string{"served by", "fake-strategy", "1 retries", "makespan:"} {
		if !strings.Contains(out, want) {
			t.Errorf("serve output missing %q:\n%s", want, out)
		}
	}
}

// TestRunServeURLRejectsBadServer pins the failure paths: a terminal
// error status becomes a command error carrying the body, and a 200
// whose plan does not validate is rejected — the client never trusts
// the server's plan blindly.
func TestRunServeURLRejectsBadServer(t *testing.T) {
	base := config{bench: "d695", cpu: "leon", procs: 6, reuse: -1,
		variant: "greedy", priority: "processors-first", app: "bist",
		bist: 1, format: "summary", width: 80, seed: 1}

	t.Run("terminal error status", func(t *testing.T) {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "upload does not compile", http.StatusBadRequest)
		}))
		defer srv.Close()
		c := base
		c.serveURL = srv.URL
		_, err := capture(t, func() error { return run(c) })
		if err == nil || !strings.Contains(err.Error(), "server answered 400") {
			t.Fatalf("got %v, want the 400 surfaced", err)
		}
	})

	t.Run("malformed plan", func(t *testing.T) {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, `{"system":"x","makespan":1,"best":"b","plan":{"entries":[]}}`)
		}))
		defer srv.Close()
		c := base
		c.serveURL = srv.URL
		_, err := capture(t, func() error { return run(c) })
		if err == nil || !strings.Contains(err.Error(), "plan") {
			t.Fatalf("got %v, want a plan validation failure", err)
		}
	})
}
