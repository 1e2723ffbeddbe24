// Command nocbench is the repository's end-to-end benchmark. It runs one
// named workload against the public entry points of the planner library
// and of the noctestd service, checks every output, and prints one JSON
// result line:
//
//	nocbench --workload plan_full --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//   - plan_full: one in-process caller, closed loop, round-robin over the
//     canonical trio (d695, p22810, p93791) at the paper configuration;
//     one op is itc02.Parse, soc.Build, core.Compile, the default
//     portfolio's ScheduleModel, Plan.Validate and Plan.WriteJSON.
//   - serve_warm_quick: a noctestd child with a pre-warmed model cache
//     answers POST /schedule?search=quick over the trio.
//   - serve_explore: a noctestd child with a fresh result journal answers
//     seeded socgen scenarios, three in four of them never seen before.
//
// The serve workloads send an open-loop phase (seeded Poisson arrivals
// at a fixed rate) and then a closed-loop phase with one client back to
// back. Load comes from this one process over at most two keep-alive
// connections, with no retries: a 429, any other non-200, a transport
// error or a timeout is a failed request. Their latency_p50_ms is the
// server's own service time and their cpu_ms_per_op the server's CPU
// time per closed-loop request; the client-side latency from each
// request's due time and the closed-loop rate are printed on stderr.
//
// With --trace 1 the run is split into an untraced and a traced pass of
// half the time each. The traced pass records spans around every public
// layer call (for the serve workloads: the request span, children
// derived from the response's compile_ms/schedule_ms, and an in-process
// replay of the same uploads through the layer calls), writes them to
// the output directory, and prints the per-layer metrics, the self time
// of each layer and the tracing overhead (traced minus untraced median
// latency).
//
// The run exits non-zero when any output is incorrect or any request
// fails, after printing the result line.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// DefaultSeed is the workload seed of the committed baseline;
// HeldOutSeed is kept out of tuning so a later speed claim can be
// re-checked on inputs it was not written against.
const (
	DefaultSeed = 1
	HeldOutSeed = 7
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	noctestd string // path of the noctestd binary (serve workloads)
	out      string // directory for traces and journals
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one workload pass measured.
type outcome struct {
	attempted, failed int
	// problems lists incorrect outputs and failed requests, one line
	// each (truncated when printed).
	problems []string
	e2e      map[string]float64
	layer    map[string]float64
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workload runs one pass. setups is the number of set-ups whose median
// is reported as setup_s (0 in a traced run, which reports no setup_s).
type workload func(cfg config, d time.Duration, tr *tracer, setups int) (*outcome, error)

var workloads = map[string]workload{
	"plan_full":        runPlanFull,
	"serve_warm_quick": runServeWarm,
	"serve_explore":    runServeExplore,
}

func main() {
	var cfg config
	var trace int
	var probe bool
	flag.StringVar(&cfg.workload, "workload", "", "workload: plan_full, serve_warm_quick or serve_explore")
	flag.Int64Var(&cfg.seed, "seed", DefaultSeed, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs an untraced and a traced pass and prints per-layer metrics")
	flag.StringVar(&cfg.noctestd, "noctestd", "", "noctestd binary for the serve workloads")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for traces and journals")
	flag.BoolVar(&probe, "setup-probe", false, "internal: run the first plan_full op once and exit")
	flag.Parse()
	if probe {
		if err := setupProbe(cfg.seed); err != nil {
			fmt.Fprintf(os.Stderr, "nocbench: setup probe: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(os.Stderr, "nocbench: --trace must be 0 or 1, got %d\n", trace)
		os.Exit(2)
	}
	cfg.trace = trace == 1
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nocbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nocbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

// run validates the command line, runs the workload and assembles the
// result line.
func run(cfg config) (*result, error) {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q: want plan_full, serve_warm_quick or serve_explore", cfg.workload)
	}
	if cfg.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1, got %d", cfg.seconds)
	}
	if cfg.workload != "plan_full" {
		if cfg.noctestd == "" {
			return nil, errors.New("--noctestd is required for the serve workloads")
		}
		if _, err := os.Stat(cfg.noctestd); err != nil {
			return nil, fmt.Errorf("noctestd binary: %w", err)
		}
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	d := time.Duration(cfg.seconds) * time.Second

	var out *outcome
	metrics := map[string]metric{}
	if !cfg.trace {
		o, err := wl(cfg, d, nil, setupRepeats)
		if err != nil {
			return nil, err
		}
		out = o
		for _, m := range endToEnd {
			v, ok := o.e2e[m.name]
			if !ok {
				return nil, fmt.Errorf("workload %s did not measure %s", cfg.workload, m.name)
			}
			metrics[m.name] = metric{v, m.unit}
		}
	} else {
		plain, err := wl(cfg, d/2, nil, 0)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		traced, err := wl(cfg, d/2, tr, 0)
		if err != nil {
			return nil, err
		}
		out = traced
		out.attempted += plain.attempted
		out.failed += plain.failed
		out.problems = append(plain.problems, out.problems...)
		table := tr.selfTimes()
		ops := tr.opCount()
		for _, l := range tracedLayers {
			traced.layer[l+".self_ms"] = table[l].self / float64(max(ops, 1))
		}
		traced.layer["trace.overhead_ms"] = traced.e2e["latency_p50_ms"] - plain.e2e["latency_p50_ms"]
		path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := tr.write(path, cfg, table, ops); err != nil {
			return nil, err
		}
		printSelfTimes(table, ops, path)
		for _, m := range perLayer {
			v, ok := traced.layer[m.name]
			if !ok {
				v = 0 // the workload does no work in this layer
			}
			metrics[m.name] = metric{v, m.unit}
		}
	}
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is not a number (%v)", name, m.Value)
		}
	}
	printMetrics(cfg.workload, metrics, out)
	return &result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   metrics,
	}, nil
}

// printMetrics writes the human-readable row to stderr: every metric by
// name and unit (a per-layer metric with the end-to-end metric and
// workload it should move), attempted and failed counts, and the first
// problems.
func printMetrics(workload string, metrics map[string]metric, o *outcome) {
	fmt.Fprintf(os.Stderr, "workload %s: attempted %d, failed %d\n", workload, o.attempted, o.failed)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			m, ok := metrics[d.name]
			if !ok {
				continue
			}
			fmt.Fprintf(os.Stderr, "  %-34s %14.4f %-5s", d.name, m.Value, m.Unit)
			if d.moves != "" {
				fmt.Fprintf(os.Stderr, "  moves %s on %s", d.moves, d.on)
			}
			fmt.Fprintln(os.Stderr)
		}
	}
	for i, p := range o.problems {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "  ... %d more problems\n", len(o.problems)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "  problem: %s\n", p)
	}
}
