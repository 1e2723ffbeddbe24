// Command noctest schedules the test of a benchmark system and prints
// the plan in the requested format.
//
// Usage:
//
//	noctest -bench d695 -cpu leon -procs 6 -reuse 6 -power 0.5 -format gantt
//	noctest -bench d695 -topology torus -procs 6
//	noctest -bench d695 -failed-links 2 -seed 7 -exclusive-links
//	noctest -bench d695 -power 0.5 -preempt -resume-cost 50
//	noctest -bench p22810 -portfolio -seed 42
//	noctest -all -timeout 2m
//	noctest -all -bench d695,p22810
//	noctest -bench-json BENCH_schedule.json
//	noctest -sweep 200 -seed 1 -sweep-out sweep.json
//	noctest -sweep 50 -sweep-preempt preemptive
//	noctest -bench d695 -serve-url http://127.0.0.1:8080
//
// Formats: summary (default), gantt, csv, json, table. -portfolio races
// the full scheduler portfolio concurrently and reports per-strategy
// statistics next to the winning plan; -all sweeps benchmarks across
// power limits, reuse counts and link modes through the batch engine
// (every embedded benchmark by default, or a comma-separated -bench
// list); -bench-json writes the machine-readable perf trajectory
// (best makespan and ns per ScheduleBest call per benchmark) used to
// track engine regressions across PRs; -sweep runs the randomized
// scenario-sweep verification engine (internal/verify) over N generated
// systems, writes the JSON summary (oracle tallies, worst lower-bound
// gap, embedded-benchmark gap records), shrinks any failing scenario to
// a minimal reproduction under -shrink-dir, and exits non-zero on any
// oracle violation. Any mode can be profiled with -cpuprofile and
// -memprofile, which write pprof files for the whole run.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"noctest/internal/client"
	"noctest/internal/core"
	"noctest/internal/itc02"
	"noctest/internal/plan"
	"noctest/internal/replay"
	"noctest/internal/report"
	"noctest/internal/soc"
	"noctest/internal/socgen"
	"noctest/internal/verify"
)

// config carries the parsed command line.
type config struct {
	bench     string
	benchSet  bool // -bench was given explicitly
	cpu       string
	topology  string
	failed    int
	procs     int
	reuse     int
	power     float64
	bist      float64
	variant   string
	priority  string
	exclusive bool
	app       string
	wrapperW  int
	preempt   bool
	maxSegs   int
	resume    int
	verify    bool
	format    string
	width     int

	serveURL string

	portfolio bool
	all       bool
	seed      int64
	workers   int
	timeout   time.Duration
	benchJSON string

	sweep         int
	sweepTopology string
	sweepPreempt  string
	sweepOut      string
	shrinkDir     string

	cpuProfile string
	memProfile string
}

func main() {
	var c config
	flag.StringVar(&c.bench, "bench", "d695", "benchmark: d695, p22810, p93791, or a path to a .soc file; with -all/-bench-json, a comma-separated list of embedded benchmark names")
	flag.StringVar(&c.cpu, "cpu", "leon", "processor profile: leon or plasma")
	flag.StringVar(&c.topology, "topology", "mesh", "NoC fabric: mesh or torus")
	flag.IntVar(&c.failed, "failed-links", 0, "fail this many NoC channels (sampled deterministically from -seed, routes detour around them)")
	flag.IntVar(&c.procs, "procs", 6, "processor instances present in the system")
	flag.IntVar(&c.reuse, "reuse", -1, "processors reused for test (-1: all, 0: none)")
	flag.Float64Var(&c.power, "power", 0, "power ceiling as a fraction of total core power (0: none)")
	flag.Float64Var(&c.bist, "bist", 1, "pattern inflation for processor-driven tests (>= 1)")
	flag.StringVar(&c.variant, "variant", "greedy", "interface choice: greedy or lookahead")
	flag.StringVar(&c.priority, "priority", "processors-first", "core order: processors-first, distance, volume, longest")
	flag.BoolVar(&c.exclusive, "exclusive-links", false, "reserve NoC links exclusively per test")
	flag.StringVar(&c.app, "app", "bist", "processor test application: bist or decompression")
	flag.IntVar(&c.wrapperW, "wrapper", 0, "wrapper chains per core (0: transport-limited model)")
	flag.BoolVar(&c.preempt, "preempt", false, "schedule preemptively: split tests into up to 4 segments at pattern boundaries (see -max-segments)")
	flag.IntVar(&c.maxSegs, "max-segments", 0, "segment cap for preemptive scheduling (implies -preempt when > 1; 0 with -preempt selects 4)")
	flag.IntVar(&c.resume, "resume-cost", 0, "extra cycles each test resumption pays on top of its path setup")
	flag.BoolVar(&c.verify, "verify", false, "replay the plan on the cycle-accurate simulator and report the wire-level slack")
	flag.StringVar(&c.format, "format", "summary", "output: summary, gantt, csv, json, table")
	flag.IntVar(&c.width, "width", 100, "gantt chart width in columns")
	flag.StringVar(&c.serveURL, "serve-url", "", "schedule remotely: POST the benchmark to a running noctestd at this base URL (retrying client with capped backoff) instead of scheduling locally")
	flag.BoolVar(&c.portfolio, "portfolio", false, "race the full scheduler portfolio and keep the best plan")
	flag.BoolVar(&c.all, "all", false, "sweep every benchmark x {power, reuse, links} through the portfolio engine")
	flag.Int64Var(&c.seed, "seed", 1, "seed for the portfolio's randomized searches")
	flag.IntVar(&c.workers, "workers", 0, "concurrent scheduler runs (0: GOMAXPROCS)")
	flag.DurationVar(&c.timeout, "timeout", 0, "overall deadline for portfolio/batch runs (0: none)")
	flag.StringVar(&c.benchJSON, "bench-json", "", "write the machine-readable perf trajectory (BENCH_schedule.json) to this path and exit")
	flag.IntVar(&c.sweep, "sweep", 0, "run the scenario-sweep verification engine over this many generated systems and exit non-zero on any oracle violation")
	flag.StringVar(&c.sweepTopology, "sweep-topology", "", "force every sweep scenario onto one fabric (mesh, torus, degraded); empty mixes all three")
	flag.StringVar(&c.sweepPreempt, "sweep-preempt", "", "force every sweep scenario's scheduling mode (plain, preemptive); empty mixes both")
	flag.StringVar(&c.sweepOut, "sweep-out", "", "write the sweep's JSON summary to this path instead of stdout")
	flag.StringVar(&c.shrinkDir, "shrink-dir", "testdata/shrunk", "directory for shrunk failure reproductions (empty: do not shrink)")
	flag.StringVar(&c.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this path")
	flag.StringVar(&c.memProfile, "memprofile", "", "write a pprof heap profile at the end of the run to this path")
	flag.Parse()
	// Flags that a mode ignores are reported, not silently dropped.
	ignoredByBenchJSON := map[string]bool{
		"cpu": true, "procs": true, "reuse": true, "power": true, "bist": true,
		"variant": true, "priority": true, "exclusive-links": true, "app": true,
		"wrapper": true, "verify": true, "format": true, "width": true,
		"portfolio": true, "all": true, "sweep": true, "sweep-out": true,
		"shrink-dir": true, "topology": true, "failed-links": true,
		"sweep-topology": true, "sweep-preempt": true,
		"preempt": true, "max-segments": true, "resume-cost": true,
	}
	ignoredBySweep := map[string]bool{
		"bench": true, "cpu": true, "procs": true, "reuse": true, "power": true,
		"bist": true, "variant": true, "priority": true, "exclusive-links": true,
		"app": true, "wrapper": true, "verify": true, "format": true, "width": true,
		"portfolio": true, "all": true, "bench-json": true, "topology": true,
		"failed-links": true, "preempt": true, "max-segments": true, "resume-cost": true,
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "bench" {
			c.benchSet = true
		}
		switch {
		case c.sweep > 0 && ignoredBySweep[f.Name]:
			fmt.Fprintf(os.Stderr, "noctest: -%s has no effect with -sweep: scenarios and option regimes are drawn by internal/verify\n", f.Name)
		case c.sweep > 0:
			// -sweep wins the mode dispatch; no other mode's notices apply.
		case c.benchJSON != "" && ignoredByBenchJSON[f.Name]:
			fmt.Fprintf(os.Stderr, "noctest: -%s has no effect with -bench-json: it measures the canonical leon/full-reuse/power=0.5 configuration\n", f.Name)
		case (c.portfolio || c.all) && (f.Name == "variant" || f.Name == "priority"):
			fmt.Fprintf(os.Stderr, "noctest: -%s has no effect with -portfolio/-all: every portfolio strategy sets its own rule\n", f.Name)
		}
	})

	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, "noctest:", err)
		os.Exit(1)
	}
}

// run dispatches the selected mode, bracketed by the pprof collection
// the -cpuprofile/-memprofile flags request, so perf work on the engine
// can attach profiles of exactly the workload under discussion.
func run(c config) error {
	if c.timeout < 0 {
		// A negative deadline used to be silently ignored (the > 0 guard
		// in dispatch dropped it), turning a typo like -timeout -2m into
		// an unbounded run. Reject it like every other invalid flag.
		return fmt.Errorf("invalid -timeout %v: deadline must be positive (0 disables it)", c.timeout)
	}
	if c.cpuProfile != "" {
		f, err := os.Create(c.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if c.memProfile != "" {
		f, err := os.Create(c.memProfile)
		if err != nil {
			return err
		}
		defer func() {
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "noctest: memprofile:", err)
			}
			f.Close()
		}()
	}
	return c.dispatch()
}

func (c config) dispatch() error {
	ctx := context.Background()
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	if c.sweep > 0 {
		return runSweep(ctx, c)
	}
	if c.benchJSON != "" {
		return runBenchJSON(ctx, c)
	}
	if c.serveURL != "" {
		return runServe(ctx, c)
	}
	if c.all {
		return runGrid(ctx, c)
	}

	bench, err := loadBench(c.bench)
	if err != nil {
		return err
	}
	cfg := soc.BuildConfig{
		Processors:      c.procs,
		Topology:        c.topology,
		FailedLinkCount: c.failed,
		FailedLinkSeed:  c.seed,
	}
	if c.procs > 0 {
		cfg.Profile, err = soc.ProfileByName(c.cpu)
		if err != nil {
			return err
		}
	}
	sys, err := soc.Build(bench, cfg)
	if err != nil {
		return err
	}

	opts, err := c.options()
	if err != nil {
		return err
	}
	return c.schedule(ctx, sys, opts)
}

// options translates the flag values into scheduler options.
func (c config) options() (core.Options, error) {
	opts := core.Options{
		PowerLimitFraction: c.power,
		BISTPatternFactor:  c.bist,
		ExclusiveLinks:     c.exclusive,
		WrapperChains:      c.wrapperW,
		MaxSegments:        c.maxSegs,
		ResumeCycles:       c.resume,
	}
	if c.preempt && opts.MaxSegments == 0 {
		opts.MaxSegments = 4
	}
	if opts.MaxSegments < 0 || opts.ResumeCycles < 0 {
		return opts, fmt.Errorf("negative -max-segments/-resume-cost")
	}
	switch c.app {
	case "bist":
		opts.Application = core.BISTApplication
	case "decompression":
		opts.Application = core.DecompressionApplication
	default:
		return opts, fmt.Errorf("unknown application %q", c.app)
	}
	switch {
	case c.reuse == 0:
		opts.DisableReuse = true
	case c.reuse > 0:
		opts.MaxReusedProcessors = c.reuse
	}
	switch c.variant {
	case "greedy":
		opts.Variant = core.GreedyFirstAvailable
	case "lookahead":
		opts.Variant = core.LookaheadFastestFinish
	default:
		return opts, fmt.Errorf("unknown variant %q", c.variant)
	}
	switch c.priority {
	case "processors-first":
		opts.Priority = core.ProcessorsFirst
	case "distance":
		opts.Priority = core.DistanceOnly
	case "volume":
		opts.Priority = core.VolumeDescending
	case "longest":
		opts.Priority = core.LongestTestFirst
	default:
		return opts, fmt.Errorf("unknown priority %q", c.priority)
	}
	return opts, nil
}

// schedule plans one system — single-variant or portfolio — and prints
// the result in the requested format.
func (c config) schedule(ctx context.Context, sys *soc.System, opts core.Options) error {
	var p *plan.Plan
	if c.portfolio {
		pf := core.Portfolio{Schedulers: core.DefaultPortfolio(c.seed), Workers: c.workers}
		res, err := pf.ScheduleBest(ctx, sys, opts)
		if err != nil {
			return err
		}
		p = res.Plan
		fmt.Printf("portfolio: %d strategies raced, best %s\n", len(res.Results), res.Best)
		for _, r := range res.Results {
			if r.Err != nil {
				fmt.Printf("  %-48s failed: %v\n", r.Scheduler, r.Err)
				continue
			}
			marker := ""
			if r.Scheduler == res.Best {
				marker = "  <- best"
			}
			fmt.Printf("  %-48s %12d cycles %12v%s\n", r.Scheduler, r.Makespan, r.Elapsed.Round(time.Microsecond), marker)
		}
	} else {
		var err error
		p, err = core.Schedule(sys, opts)
		if err != nil {
			return err
		}
	}

	if c.verify {
		results, err := replay.Replay(sys, p, replay.Config{})
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		worst, overruns := 1<<62, 0
		for _, r := range results {
			if r.Slack() < worst {
				worst = r.Slack()
			}
			if r.Slack() < 0 {
				overruns++
			}
		}
		fmt.Printf("replay: %d tests driven on the wire, %d overran their window, worst slack %d cycles\n",
			len(results), overruns, worst)
	}

	switch c.format {
	case "summary":
		fmt.Println(sys)
		fmt.Print(p.Summary())
	case "gantt":
		fmt.Print(p.Gantt(c.width))
	case "csv":
		return p.WriteCSV(os.Stdout)
	case "json":
		return p.WriteJSON(os.Stdout)
	case "table":
		fmt.Println(sys)
		fmt.Print(p.Summary())
		fmt.Print(p.Gantt(c.width))
	default:
		return fmt.Errorf("unknown format %q", c.format)
	}
	return nil
}

// runServe schedules remotely: the benchmark upload is POSTed to a
// running noctestd through the retrying client (transient 429/5xx
// answers and transport resets are absorbed by capped jittered
// backoff), and the returned plan is re-validated locally before
// printing — a buggy or mid-drain server cannot hand the caller a
// malformed plan unnoticed.
func runServe(ctx context.Context, c config) error {
	bench, err := loadBench(c.bench)
	if err != nil {
		return err
	}
	body, err := itc02.WriteString(bench)
	if err != nil {
		return err
	}
	q := url.Values{}
	q.Set("procs", strconv.Itoa(c.procs))
	q.Set("cpu", c.cpu)
	q.Set("topology", c.topology)
	if c.failed > 0 {
		q.Set("failed-links", strconv.Itoa(c.failed))
	}
	if c.power > 0 {
		q.Set("power", strconv.FormatFloat(c.power, 'g', -1, 64))
	}
	q.Set("bist", strconv.FormatFloat(c.bist, 'g', -1, 64))
	if c.reuse >= 0 {
		q.Set("reuse", strconv.Itoa(c.reuse))
	}
	if c.exclusive {
		q.Set("exclusive-links", "1")
	}
	q.Set("app", c.app)
	maxSegs := c.maxSegs
	if c.preempt && maxSegs == 0 {
		maxSegs = 4
	}
	if maxSegs > 0 {
		q.Set("max-segments", strconv.Itoa(maxSegs))
	}
	if c.resume > 0 {
		q.Set("resume-cost", strconv.Itoa(c.resume))
	}
	q.Set("search", "full")
	q.Set("seed", strconv.FormatInt(c.seed, 10))
	if c.timeout > 0 {
		q.Set("timeout", c.timeout.String())
	}

	cl := &client.Client{Base: c.serveURL, Seed: c.seed}
	resp, err := cl.Schedule(ctx, q.Encode(), []byte(body))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("server answered %d after %d retries: %s",
			resp.StatusCode, resp.Retries, strings.TrimSpace(string(resp.Body)))
	}
	var sr struct {
		System   string          `json:"system"`
		Makespan int             `json:"makespan"`
		Best     string          `json:"best"`
		Cache    string          `json:"cache"`
		Partial  bool            `json:"partial"`
		Plan     json.RawMessage `json:"plan"`
	}
	if err := json.Unmarshal(resp.Body, &sr); err != nil {
		return fmt.Errorf("malformed server response: %v", err)
	}
	p, err := plan.ParseJSON(bytes.NewReader(sr.Plan))
	if err != nil {
		return fmt.Errorf("server plan does not parse: %v", err)
	}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("server plan fails local validation: %v", err)
	}

	partial := ""
	if sr.Partial {
		partial = " (partial: server deadline expired mid-race)"
	}
	fmt.Printf("served by %s: %s best %s, %d cycles, cache %s, %d retries%s\n",
		c.serveURL, sr.System, sr.Best, sr.Makespan, sr.Cache, resp.Retries, partial)
	switch c.format {
	case "summary":
		fmt.Print(p.Summary())
	case "gantt":
		fmt.Print(p.Gantt(c.width))
	case "csv":
		return p.WriteCSV(os.Stdout)
	case "json":
		return p.WriteJSON(os.Stdout)
	case "table":
		fmt.Print(p.Summary())
		fmt.Print(p.Gantt(c.width))
	default:
		return fmt.Errorf("unknown format %q", c.format)
	}
	return nil
}

// gridBenchmarks returns the benchmark restriction for -all and
// -bench-json: every embedded benchmark by default, or the
// comma-separated -bench list (embedded names only; whitespace and
// empty elements are dropped) when the flag was given explicitly.
func (c config) gridBenchmarks() []string {
	if !c.benchSet {
		return nil
	}
	var names []string
	for _, name := range strings.Split(c.bench, ",") {
		if name = strings.TrimSpace(name); name != "" {
			names = append(names, name)
		}
	}
	return names
}

// runGrid sweeps benchmarks through the batch portfolio engine.
func runGrid(ctx context.Context, c config) error {
	grid := report.GridSpec{Benchmarks: c.gridBenchmarks(), Processor: c.cpu, BISTFactor: c.bist,
		Topology: c.topology, FailedLinks: c.failed, FailedLinkSeed: c.seed}
	pf := core.Portfolio{Schedulers: core.DefaultPortfolio(c.seed), Workers: c.workers}
	rows, err := report.RunPortfolioGrid(ctx, grid, pf)
	if err != nil {
		return err
	}
	fmt.Print(report.RenderGrid(rows))
	return nil
}

// runBenchJSON measures the portfolio on each benchmark and writes the
// machine-readable perf trajectory.
func runBenchJSON(ctx context.Context, c config) error {
	bench, err := report.RunScheduleBench(ctx, c.gridBenchmarks(), c.seed, c.workers)
	if err != nil {
		return err
	}
	// Refreshing an existing trajectory preserves the hand-maintained
	// baseline blocks (and any other keys the generator does not own).
	existing, err := os.ReadFile(c.benchJSON)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	f, err := os.Create(c.benchJSON)
	if err != nil {
		return err
	}
	if err := bench.WriteMergedJSON(f, existing); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	for _, r := range bench.Records {
		fmt.Printf("%-8s best %10d cycles (%s), %12d ns per ScheduleBest\n",
			r.Benchmark, r.BestMakespan, r.BestScheduler, r.NsPerScheduleBest)
	}
	return nil
}

// runSweep drives the scenario-sweep verification engine and reports
// its summary; any oracle violation is an error so CI fails the run.
func runSweep(ctx context.Context, c config) error {
	switch c.sweepTopology {
	case "", "mesh", "torus", "degraded":
	default:
		return fmt.Errorf("unknown -sweep-topology %q (have mesh, torus, degraded)", c.sweepTopology)
	}
	switch c.sweepPreempt {
	case "", "plain", "preemptive":
	default:
		return fmt.Errorf("unknown -sweep-preempt %q (have plain, preemptive)", c.sweepPreempt)
	}
	sum, err := verify.Sweep(ctx, verify.Config{
		Scenarios: c.sweep,
		Seed:      c.seed,
		Workers:   c.workers,
		ShrinkDir: c.shrinkDir,
		Params:    socgen.ScenarioParams{Topology: c.sweepTopology, Preemption: c.sweepPreempt},
	})
	if err != nil {
		return err
	}
	if c.sweepOut == "" {
		if err := sum.WriteJSON(os.Stdout); err != nil {
			return err
		}
	} else {
		f, err := os.Create(c.sweepOut)
		if err != nil {
			return err
		}
		if err := sum.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	for _, g := range sum.BenchmarkGaps {
		fmt.Fprintf(os.Stderr, "noctest: %-8s makespan %9d vs lower bound %9d (gap %.2fx)\n",
			g.Benchmark, g.Makespan, g.LowerBound, g.Gap)
	}
	if sum.PreemptionWins > 0 {
		fmt.Fprintf(os.Stderr, "noctest: preemption strictly improved %d scenarios (best by %d cycles at %s)\n",
			sum.PreemptionWins, sum.BestPreemptionDelta, sum.BestPreemptionAt)
	}
	if n := sum.Failed(); n > 0 {
		return fmt.Errorf("sweep: %d oracle violations across %d scenarios (see summary failures%s)",
			n, sum.Scenarios, shrinkHint(c.shrinkDir))
	}
	fmt.Fprintf(os.Stderr, "noctest: sweep passed: %d scenarios, worst lower-bound gap %.2fx\n",
		sum.Scenarios, sum.WorstGap)
	return nil
}

func shrinkHint(dir string) string {
	if dir == "" {
		return ""
	}
	return " and " + dir
}

func loadBench(name string) (*itc02.SoC, error) {
	if s, err := itc02.Benchmark(name); err == nil {
		return s, nil
	}
	f, err := os.Open(name)
	if err != nil {
		return nil, fmt.Errorf("%q is neither an embedded benchmark nor a readable file: %w", name, err)
	}
	defer f.Close()
	return itc02.Parse(f)
}
