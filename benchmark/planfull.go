package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"

	"noctest/internal/core"
	"noctest/internal/itc02"
	"noctest/internal/plan"
	"noctest/internal/report"
)

// trioNames are the canonical benchmarks, in round-robin order.
var trioNames = []string{"d695", "p22810", "p93791"}

// canonicalMakespans are the default portfolio's seed-1 makespans on
// the paper configuration, the denominators of makespan_ratio.
var canonicalMakespans = map[string]int{"d695": 118980, "p22810": 373924, "p93791": 506455}

// planWorkers is the portfolio's worker count, the box's CPU count.
const planWorkers = 2

// loadTrio returns the canonical benchmarks as uploads at the paper
// configuration: the itc02 text, its processor count, and the query
// noctestd derives the same options from.
func loadTrio() ([]*serveInput, error) {
	var out []*serveInput
	for _, name := range trioNames {
		bench, err := itc02.Benchmark(name)
		if err != nil {
			return nil, err
		}
		text, err := itc02.WriteString(bench)
		if err != nil {
			return nil, err
		}
		procs := report.PaperProcessors(name)
		out = append(out, &serveInput{
			name:  name,
			body:  []byte(text),
			query: fmt.Sprintf("procs=%d&cpu=leon&power=%g&bist=%g&search=quick", procs, report.PaperPowerFraction, report.PaperBISTFactor),
			procs: procs,
		})
	}
	return out, nil
}

// paperOptions is the paper configuration: Leon processors at full
// reuse, 50% power ceiling, BIST pattern factor 3.
func paperOptions() core.Options {
	return core.Options{PowerLimitFraction: report.PaperPowerFraction, BISTPatternFactor: report.PaperBISTFactor}
}

// planOpResult is one plan_full op's outputs and timings.
type planOpResult struct {
	total, cpu, search, validate, write time.Duration
	res                                 *core.PortfolioResult
	stats                               core.SearchStats
	json                                []byte
}

// planOp runs the library user's whole operation on one benchmark. Its
// parse, build and compile are the server's (compileUpload), which
// times them into ls when traced.
func planOp(in *serveInput, seed int64, tr *tracer, op int, ls layerSamples) (*planOpResult, error) {
	r := &planOpResult{}
	cpu0, err := processCPU()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	root := tr.reserve()
	m, err := compileUpload(in, tr, op, root, ls)
	if err != nil {
		return nil, err
	}
	before := m.SearchStats()
	pf := core.Portfolio{Schedulers: core.DefaultPortfolio(seed), Workers: planWorkers}
	if r.search, _, err = tr.call(op, root, "core.search", "core.Portfolio.ScheduleModel", func() (e error) {
		r.res, e = pf.ScheduleModel(context.Background(), m)
		return e
	}); err != nil {
		return nil, err
	}
	r.stats = m.SearchStats().Sub(before)
	if r.validate, _, err = tr.call(op, root, "plan", "plan.Validate", r.res.Plan.Validate); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if r.write, _, err = tr.call(op, root, "plan", "plan.WriteJSON", func() error { return r.res.Plan.WriteJSON(&buf) }); err != nil {
		return nil, err
	}
	end := time.Now()
	cpu1, err := processCPU()
	if err != nil {
		return nil, err
	}
	tr.finish(root, op, -1, "loadgen", "plan_full.op", start, end)
	r.total, r.cpu = end.Sub(start), cpu1-cpu0
	r.json = buf.Bytes()
	return r, nil
}

// processCPU returns this process's user plus system CPU time, all
// threads, at microsecond resolution.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// checkPlanJSON parses an emitted plan back, validates it and returns
// its makespan.
func checkPlanJSON(raw []byte) (int, error) {
	p, err := plan.ParseJSON(bytes.NewReader(raw))
	if err != nil {
		return 0, err
	}
	if err := p.Validate(); err != nil {
		return 0, err
	}
	return p.Makespan(), nil
}

// setupProbe is the child side of plan_full's setup_s: a fresh process
// runs the first op on each benchmark and exits.
func setupProbe(seed int64) error {
	inputs, err := loadTrio()
	if err != nil {
		return err
	}
	for _, in := range inputs {
		if _, err := planOp(in, seed, nil, 0, nil); err != nil {
			return fmt.Errorf("%s: %w", in.name, err)
		}
	}
	return nil
}

// measureSetups execs the probe n times and returns the median wall
// time from exec to exit, in seconds.
func measureSetups(n int, seed int64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var times []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "--setup-probe", "--seed", strconv.FormatInt(seed, 10))
		cmd.Stderr = os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	fmt.Fprintf(os.Stderr, "plan_full: set-up times %.4f s\n", times)
	return median(times), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runPlanFull is the plan_full workload: one in-process caller, closed
// loop, whole rounds over the trio until d has passed.
func runPlanFull(cfg config, d time.Duration, tr *tracer, setups int) (*outcome, error) {
	inputs, err := loadTrio()
	if err != nil {
		return nil, err
	}
	o := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	if setups > 0 {
		if o.e2e["setup_s"], err = measureSetups(setups, cfg.seed); err != nil {
			return nil, err
		}
	}
	// One untimed warm-up round fixes each benchmark's makespan; every
	// later op must repeat it exactly.
	want := map[string]int{}
	for _, in := range inputs {
		r, err := planOp(in, cfg.seed, nil, -1, nil)
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", in.name, err)
		}
		want[in.name] = r.res.Makespan()
	}
	members := core.DefaultPortfolio(cfg.seed)

	var (
		ls               layerSamples
		lat, cpu         []float64
		at               []time.Duration
		busy, searchWall time.Duration
		stats            core.SearchStats
		classMs          = map[string]float64{}
		roundOrders      []uint64
	)
	if tr != nil {
		ls = layerSamples{}
	}
	t0 := time.Now()
	op := 0
	for round := 0; round == 0 || time.Since(t0) < d; round++ {
		roundStart := time.Since(t0)
		var orders uint64
		for _, in := range inputs {
			o.attempted++
			id := op
			op++
			r, err := planOp(in, cfg.seed, tr, id, ls)
			if err != nil {
				o.fail("op %d (%s): %v", id, in.name, err)
				continue
			}
			got, err := checkPlanJSON(r.json)
			switch {
			case err != nil:
				o.fail("op %d (%s): emitted plan: %v", id, in.name, err)
				continue
			case got != want[in.name] || r.res.Makespan() != want[in.name]:
				o.fail("op %d (%s): makespan %d (plan JSON %d), want %d", id, in.name, r.res.Makespan(), got, want[in.name])
				continue
			case cfg.seed == 1 && got > canonicalMakespans[in.name]:
				o.fail("op %d (%s): seed-1 makespan %d exceeds the canonical %d", id, in.name, got, canonicalMakespans[in.name])
				continue
			}
			lat = append(lat, ms(r.total))
			cpu = append(cpu, ms(r.cpu))
			// Whole rounds share a window, so each window holds the trio
			// in equal parts.
			at = append(at, roundStart)
			orders += r.stats.Orders
			if tr == nil {
				continue
			}
			ls.add("core.search_ms", ms(r.search))
			ls.add("plan.validate_us", us(r.validate))
			ls.add("plan.write_json_us", us(r.write))
			ls.add("plan.json_bytes", float64(len(r.json)))
			searchWall += r.search
			stats.Add(r.stats)
			for i, vr := range r.res.Results {
				busy += vr.Elapsed
				classMs[memberClass(members[i])] += ms(vr.Elapsed)
			}
		}
		roundOrders = append(roundOrders, orders)
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("plan_full completed no op")
	}
	// The search is deterministic: every round over the trio places
	// the same number of orders.
	for i, n := range roundOrders {
		if n != roundOrders[0] {
			o.fail("round %d searched %d orders, round 0 %d", i, n, roundOrders[0])
		}
	}
	s := summarize(at, lat, d)
	s.report("plan_full")
	o.e2e["latency_p50_ms"] = s.p50
	o.e2e["cpu_ms_per_op"] = summarize(at, cpu, d).p50
	var ratios []float64
	for _, in := range inputs {
		ratios = append(ratios, float64(want[in.name])/float64(canonicalMakespans[in.name]))
	}
	o.e2e["makespan_ratio"] = geomean(ratios)
	if o.e2e["peak_rss_mb"], err = peakRSSMB("self"); err != nil {
		return nil, err
	}
	if tr == nil {
		return o, nil
	}
	n := float64(len(lat))
	ls.summarize(o.layer)
	o.layer["core.search.orders"] = float64(roundOrders[0])
	o.layer["core.search.ns_per_order"] = ratio(float64(searchWall.Nanoseconds()), float64(stats.Orders))
	o.layer["core.search.replayed_per_order"] = ratio(float64(stats.Replayed), float64(stats.Orders))
	o.layer["core.search.prune_ratio"] = ratio(float64(stats.Pruned), float64(stats.Orders))
	o.layer["core.search.delta_hit_ratio"] = ratio(float64(stats.DeltaHits), float64(stats.Orders))
	o.layer["core.search.list_ms"] = classMs["list"] / n
	o.layer["core.search.restart_ms"] = classMs["restart"] / n
	o.layer["core.search.anneal_ms"] = classMs["anneal"] / n
	o.layer["core.search.worker_busy_ratio"] = ratio(float64(busy), float64(planWorkers)*float64(searchWall))
	return o, nil
}

// memberClass names a portfolio member's class: list rule, random
// restart or annealer.
func memberClass(s core.Scheduler) string {
	switch s.(type) {
	case core.RandomRestartScheduler:
		return "restart"
	case core.AnnealingScheduler:
		return "anneal"
	default:
		return "list"
	}
}
