package report

import (
	"context"
	"fmt"
	"strings"

	"noctest/internal/core"
	"noctest/internal/itc02"
	"noctest/internal/soc"
)

// GridSpec describes a batch portfolio sweep: every benchmark crossed
// with every power fraction, reuse count and link mode.
type GridSpec struct {
	// Benchmarks lists the systems to sweep; nil selects all embedded
	// benchmarks.
	Benchmarks []string
	// Processor names the reused processor profile; empty selects leon.
	Processor string
	// PowerFractions lists power ceilings as fractions of total core
	// power, 0 meaning unconstrained; nil selects {0, 0.5}.
	PowerFractions []float64
	// ReuseCounts lists processor reuse counts, 0 meaning no reuse and
	// -1 meaning every processor; nil selects {0, -1}.
	ReuseCounts []int
	// ExclusiveLinks lists the link modes: false is the paper's
	// packet-switched transport, true reserves links per test; nil
	// selects {false, true}.
	ExclusiveLinks []bool
	// BISTFactor is the pattern inflation for processor-driven tests;
	// values below 1 select PaperBISTFactor.
	BISTFactor float64
	// Topology selects the NoC fabric the systems are built on: "" or
	// "mesh" (the paper's), or "torus".
	Topology string
	// FailedLinks, when positive, fails that many NoC channels per
	// system (sampled deterministically from FailedLinkSeed), sweeping
	// the grid on a degraded fabric.
	FailedLinks    int
	FailedLinkSeed int64
}

func (g GridSpec) withDefaults() GridSpec {
	if len(g.Benchmarks) == 0 {
		g.Benchmarks = itc02.BenchmarkNames()
	}
	if g.Processor == "" {
		g.Processor = "leon"
	}
	if len(g.PowerFractions) == 0 {
		g.PowerFractions = []float64{0, PaperPowerFraction}
	}
	if len(g.ReuseCounts) == 0 {
		g.ReuseCounts = []int{0, -1}
	}
	if len(g.ExclusiveLinks) == 0 {
		g.ExclusiveLinks = []bool{false, true}
	}
	if g.BISTFactor < 1 {
		g.BISTFactor = PaperBISTFactor
	}
	return g
}

// GridRow is one cell of a portfolio sweep.
type GridRow struct {
	// Benchmark, Power, Reuse and Exclusive identify the cell.
	Benchmark string
	Power     float64
	Reuse     int // -1 means all processors
	Exclusive bool
	// Topology describes the cell's NoC fabric.
	Topology string
	// Makespan is the portfolio's winning test time.
	Makespan int
	// Greedy is the paper's single-variant baseline
	// (greedy/processors-first) on the same cell.
	Greedy int
	// Best names the winning scheduler.
	Best string
	// Gain is the fractional improvement of the portfolio over the
	// greedy baseline.
	Gain float64
}

// Label renders the cell's identity, e.g. "p22810/power=0.5/reuse=all/circuit".
func (r GridRow) Label() string {
	reuse := fmt.Sprintf("reuse=%d", r.Reuse)
	if r.Reuse < 0 {
		reuse = "reuse=all"
	}
	link := "packet"
	if r.Exclusive {
		link = "circuit"
	}
	return fmt.Sprintf("%s/power=%g/%s/%s", r.Benchmark, r.Power, reuse, link)
}

// RunPortfolioGrid schedules every cell of the grid concurrently with
// the portfolio engine and reports each cell's winner against the
// paper's greedy baseline. Each cell is compiled into one core.Model
// that every portfolio strategy — and the greedy baseline, when it must
// be rerun — replays. The first cell failure aborts the sweep.
func RunPortfolioGrid(ctx context.Context, g GridSpec, pf core.Portfolio) ([]GridRow, error) {
	g = g.withDefaults()
	profile, err := soc.ProfileByName(g.Processor)
	if err != nil {
		return nil, err
	}

	var jobs []core.BatchJob
	var rows []GridRow
	for _, benchName := range g.Benchmarks {
		bench, err := itc02.Benchmark(benchName)
		if err != nil {
			return nil, err
		}
		sys, err := soc.Build(bench, soc.BuildConfig{
			Processors:      PaperProcessors(benchName),
			Profile:         profile,
			Topology:        g.Topology,
			FailedLinkCount: g.FailedLinks,
			FailedLinkSeed:  g.FailedLinkSeed,
		})
		if err != nil {
			return nil, err
		}
		for _, power := range g.PowerFractions {
			for _, reuse := range g.ReuseCounts {
				for _, excl := range g.ExclusiveLinks {
					opts := core.Options{
						PowerLimitFraction: power,
						BISTPatternFactor:  g.BISTFactor,
						ExclusiveLinks:     excl,
					}
					switch {
					case reuse == 0:
						opts.DisableReuse = true
					case reuse > 0:
						opts.MaxReusedProcessors = reuse
					}
					row := GridRow{Benchmark: benchName, Power: power, Reuse: reuse, Exclusive: excl,
						Topology: sys.Net.Topo.String()}
					model, err := core.Compile(sys, opts)
					if err != nil {
						return nil, fmt.Errorf("report: compile %s: %w", row.Label(), err)
					}
					jobs = append(jobs, core.BatchJob{Label: row.Label(), Model: model})
					rows = append(rows, row)
				}
			}
		}
	}

	greedy := core.ListScheduler{Variant: core.GreedyFirstAvailable, Priority: core.ProcessorsFirst}
	results := pf.ScheduleAll(ctx, jobs)
	for i, res := range results {
		if res.Err != nil {
			return nil, fmt.Errorf("report: %s: %w", res.Label, res.Err)
		}
		rows[i].Makespan = res.Result.Makespan()
		rows[i].Best = res.Result.Best
		// The paper's baseline is usually a member of the portfolio just
		// raced; only rerun it (on the same compiled model) when the
		// portfolio did not include it.
		baseline := 0
		for _, vr := range res.Result.Results {
			if vr.Scheduler == greedy.Name() && vr.Err == nil {
				baseline = vr.Makespan
				break
			}
		}
		if baseline == 0 {
			c, err := greedy.Search(ctx, jobs[i].Model, nil)
			if err != nil {
				return nil, fmt.Errorf("report: %s greedy baseline: %w", res.Label, err)
			}
			baseline = c.Makespan
		}
		rows[i].Greedy = baseline
		if rows[i].Greedy > 0 {
			rows[i].Gain = 1 - float64(rows[i].Makespan)/float64(rows[i].Greedy)
		}
	}
	return rows, nil
}

// RenderGrid renders the sweep as an aligned table.
func RenderGrid(rows []GridRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-36s %-14s %12s %12s %7s  %s\n", "cell", "fabric", "greedy", "portfolio", "gain", "winner")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-36s %-14s %12d %12d %6.1f%%  %s\n",
			r.Label(), r.Topology, r.Greedy, r.Makespan, 100*r.Gain, r.Best)
	}
	return b.String()
}
