package noctest

// One benchmark per table/figure/claim of the paper, plus the ablations
// and substrate characterisations recorded in DESIGN.md. Each Figure 1
// bench regenerates one panel and reports the series as custom metrics
// (cycles at noproc and at full reuse, and the percentage reduction),
// so `go test -bench .` reproduces the paper's evaluation end to end.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"noctest/internal/bist"
	"noctest/internal/core"
	"noctest/internal/itc02"
	"noctest/internal/noc"
	"noctest/internal/noc/sim"
	"noctest/internal/plan"
	"noctest/internal/report"
	"noctest/internal/soc"
)

// BenchmarkFigure1 regenerates the paper's six result charts: test time
// versus number of processors reused, with and without the 50% power
// ceiling.
func BenchmarkFigure1(b *testing.B) {
	for _, spec := range report.PaperPanels() {
		spec := spec
		name := fmt.Sprintf("%s_%s", spec.Benchmark, spec.Processor)
		b.Run(name, func(b *testing.B) {
			var panel report.Panel
			for i := 0; i < b.N; i++ {
				var err error
				panel, err = report.RunPanel(spec, report.PanelOptions{})
				if err != nil {
					b.Fatal(err)
				}
			}
			last := len(panel.Points) - 1
			b.ReportMetric(float64(panel.Baseline()), "cycles_noproc")
			b.ReportMetric(float64(panel.Points[last].NoLimit), "cycles_fullreuse")
			b.ReportMetric(float64(panel.Points[last].PowerLimited), "cycles_fullreuse_50pct")
			b.ReportMetric(100*panel.BestReduction(false), "best_reduction_%")
			b.ReportMetric(100*panel.BestReduction(true), "best_reduction_50pct_%")
		})
	}
}

// BenchmarkClaims evaluates the paper's headline text claims (T1-T5 in
// DESIGN.md) and reports each measured value; a claim that stops
// holding fails the bench.
func BenchmarkClaims(b *testing.B) {
	var claims []report.Claim
	for i := 0; i < b.N; i++ {
		panels, err := report.RunFigure1()
		if err != nil {
			b.Fatal(err)
		}
		claims = EvaluateClaimsChecked(b, panels)
	}
	for _, c := range claims {
		b.ReportMetric(100*c.Measured, c.ID+"_measured_%")
	}
}

// EvaluateClaimsChecked evaluates claims and fails the bench on any
// regression from the recorded verdicts.
func EvaluateClaimsChecked(b *testing.B, panels []report.Panel) []report.Claim {
	b.Helper()
	claims := report.EvaluateClaims(panels)
	for _, c := range claims {
		if !c.Holds {
			b.Fatalf("claim %s no longer holds: measured %.3f (paper %.3f)", c.ID, c.Measured, c.Paper)
		}
	}
	return claims
}

// BenchmarkAblation covers the design-choice studies: interface choice
// rule (A1), core priority (A2) and the power-ceiling sweep (A3).
func BenchmarkAblation(b *testing.B) {
	spec := report.PanelSpec{Benchmark: "p22810", Processor: "leon", Processors: 8}

	b.Run("lookahead", func(b *testing.B) {
		var res report.AblationResult
		for i := 0; i < b.N; i++ {
			var err error
			res, err = report.RunVariantAblation(spec)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(res.Makespan[core.GreedyFirstAvailable.String()]), "cycles_greedy")
		b.ReportMetric(float64(res.Makespan[core.LookaheadFastestFinish.String()]), "cycles_lookahead")
	})

	b.Run("priority", func(b *testing.B) {
		var res report.AblationResult
		for i := 0; i < b.N; i++ {
			var err error
			res, err = report.RunPriorityAblation(spec)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(res.Makespan[core.ProcessorsFirst.String()]), "cycles_procsfirst")
		b.ReportMetric(float64(res.Makespan[core.DistanceOnly.String()]), "cycles_distance")
		b.ReportMetric(float64(res.Makespan[core.VolumeDescending.String()]), "cycles_volume")
	})

	b.Run("powersweep", func(b *testing.B) {
		sweep := report.PanelSpec{Benchmark: "p93791", Processor: "leon", Processors: 8}
		var points []report.PowerSweepPoint
		for i := 0; i < b.N; i++ {
			var err error
			points, err = report.RunPowerSweep(sweep, []float64{0.3, 0.5, 1.0})
			if err != nil {
				b.Fatal(err)
			}
		}
		for _, pt := range points {
			if pt.Feasible {
				b.ReportMetric(float64(pt.Makespan), fmt.Sprintf("cycles_at_%.0f%%", 100*pt.Fraction))
			}
		}
	})
}

// BenchmarkExtension covers E1, the paper's announced follow-up mode:
// the BIST reuse application against the decompression application,
// with the decompressor characterised live on the ISS.
func BenchmarkExtension(b *testing.B) {
	b.Run("applications", func(b *testing.B) {
		spec := report.PanelSpec{Benchmark: "d695", Processor: "plasma", Processors: 6}
		var cmp report.ApplicationComparison
		for i := 0; i < b.N; i++ {
			var err error
			cmp, err = report.RunApplicationComparison(spec)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(cmp.Baseline), "cycles_noreuse")
		b.ReportMetric(float64(cmp.BIST), "cycles_bist")
		b.ReportMetric(float64(cmp.Decompression), "cycles_decompression")
		b.ReportMetric(cmp.CyclesPerWord, "decomp_cycles_per_word")
	})

	b.Run("wrapperstaircase", func(b *testing.B) {
		spec := report.PanelSpec{Benchmark: "d695", Processor: "leon", Processors: 6}
		var points []report.WrapperSweepPoint
		for i := 0; i < b.N; i++ {
			var err error
			points, err = report.RunWrapperSweep(spec, []int{1, 4, 16})
			if err != nil {
				b.Fatal(err)
			}
		}
		for _, pt := range points {
			b.ReportMetric(float64(pt.Makespan), fmt.Sprintf("cycles_w%d", pt.Width))
		}
	})
}

// BenchmarkCharacterize covers the paper's preparation steps: fitting
// the NoC latencies from the cycle simulator (C1) and measuring the
// BIST kernels on both instruction-set simulators (C2).
func BenchmarkCharacterize(b *testing.B) {
	b.Run("noc", func(b *testing.B) {
		cfg := sim.Config{Mesh: noc.MustMesh(4, 4), RoutingLatency: 5, FlowLatency: 1}
		var fit noc.FitResult
		for i := 0; i < b.N; i++ {
			var err error
			_, fit, err = sim.CharacterizeTiming(cfg, 32, 25, 1)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(fit.RoutingLatency, "fitted_R")
		b.ReportMetric(fit.FlowLatency, "fitted_F")
	})

	b.Run("cpu", func(b *testing.B) {
		for _, arch := range []string{"mips1", "sparcv8"} {
			arch := arch
			b.Run(arch, func(b *testing.B) {
				var res bist.KernelResult
				for i := 0; i < b.N; i++ {
					var err error
					res, err = bist.RunKernel(arch, 2000, bist.DefaultSeed)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(res.CyclesPerPattern, "cycles_per_pattern")
			})
		}
	})
}

// BenchmarkSchedule measures raw planner throughput on each benchmark
// system at full reuse — the cost of one scheduling run.
func BenchmarkSchedule(b *testing.B) {
	for _, benchName := range itc02.BenchmarkNames() {
		benchName := benchName
		b.Run(benchName, func(b *testing.B) {
			bm, err := itc02.Benchmark(benchName)
			if err != nil {
				b.Fatal(err)
			}
			procs := 8
			if benchName == "d695" {
				procs = 6
			}
			sys, err := soc.Build(bm, soc.BuildConfig{Processors: procs, Profile: soc.Leon()})
			if err != nil {
				b.Fatal(err)
			}
			opts := core.Options{PowerLimitFraction: 0.5, BISTPatternFactor: report.PaperBISTFactor}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Schedule(sys, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPortfolio compares the single-variant planner against the
// concurrent portfolio engine — on the anomalous benchmark and on the
// largest one — across worker pool sizes up to GOMAXPROCS. Each run
// reports the greedy and portfolio makespans so the search win is
// visible next to its wall time; the ns/op of the portfolio runs is the
// per-ScheduleBest cost cmd/benchgate gates.
func BenchmarkPortfolio(b *testing.B) {
	for _, benchName := range []string{"p22810", "p93791"} {
		benchName := benchName
		bm, err := itc02.Benchmark(benchName)
		if err != nil {
			b.Fatal(err)
		}
		sys, err := soc.Build(bm, soc.BuildConfig{Processors: 8, Profile: soc.Leon()})
		if err != nil {
			b.Fatal(err)
		}
		opts := core.Options{PowerLimitFraction: 0.5, BISTPatternFactor: report.PaperBISTFactor}

		b.Run(benchName+"/single", func(b *testing.B) {
			var p *plan.Plan
			for i := 0; i < b.N; i++ {
				if p, err = core.Schedule(sys, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(p.Makespan()), "cycles_greedy")
		})

		workerSet := []int{1, 2, 4}
		if max := runtime.GOMAXPROCS(0); max > 4 {
			workerSet = append(workerSet, max)
		}
		for _, workers := range workerSet {
			workers := workers
			b.Run(fmt.Sprintf("%s/portfolio_workers%d", benchName, workers), func(b *testing.B) {
				pf := core.Portfolio{Schedulers: core.DefaultPortfolio(1), Workers: workers}
				var res *core.PortfolioResult
				var orders uint64
				for i := 0; i < b.N; i++ {
					m, err := core.Compile(sys, opts)
					if err != nil {
						b.Fatal(err)
					}
					res, err = pf.ScheduleModel(context.Background(), m)
					if err != nil {
						b.Fatal(err)
					}
					orders += m.SearchStats().Orders
				}
				b.ReportMetric(float64(res.Makespan()), "cycles_portfolio")
				// The throughput the perf trajectory tracks, emitted per
				// sample so cmd/benchgate can gate regressions on it.
				b.ReportMetric(float64(orders)/b.Elapsed().Seconds(), "orders_per_sec")
			})
		}
	}
}

// BenchmarkNoCSim measures the cycle-accurate simulator under random
// traffic, the substrate behind the NoC characterisation.
func BenchmarkNoCSim(b *testing.B) {
	cfg := sim.Config{Mesh: noc.MustMesh(5, 5), RoutingLatency: 3, FlowLatency: 1}
	var stats sim.TrafficStats
	for i := 0; i < b.N; i++ {
		var err error
		stats, err = sim.RunRandomTraffic(cfg, 200, 16, 3, 42)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(stats.MeanLatency, "mean_latency_cycles")
	b.ReportMetric(stats.FlitsPerCycle, "flits_per_cycle")
}
