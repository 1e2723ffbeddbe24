package core

import (
	"context"
	"reflect"
	"testing"

	"noctest/internal/itc02"
	"noctest/internal/soc"
)

// fullReplayPortfolio mirrors DefaultPortfolio with every search member
// switched to the full-replay oracle arm: identical seeds, budgets and
// decision rules, but every order is scored end to end with no early
// abort and no incremental checkpoints.
func fullReplayPortfolio(seed int64) []Scheduler {
	scheds := DefaultPortfolio(seed)
	for i, s := range scheds {
		switch v := s.(type) {
		case RandomRestartScheduler:
			v.FullReplay = true
			scheds[i] = v
		case AnnealingScheduler:
			v.FullReplay = true
			scheds[i] = v
		}
	}
	return scheds
}

// TestIncumbentTighten covers the shared bound's contract, including
// the nil incumbent single-strategy callers pass.
func TestIncumbentTighten(t *testing.T) {
	inc := NewIncumbent()
	if got := inc.Bound(); got != noBound {
		t.Fatalf("fresh incumbent bound %d, want unbounded", got)
	}
	if !inc.Tighten(100) || inc.Bound() != 100 {
		t.Fatalf("first tighten failed, bound %d", inc.Bound())
	}
	if inc.Tighten(100) || inc.Tighten(200) {
		t.Error("non-improving tighten reported an improvement")
	}
	if !inc.Tighten(99) || inc.Bound() != 99 {
		t.Fatalf("improving tighten failed, bound %d", inc.Bound())
	}
	var nilInc *Incumbent
	if nilInc.Bound() != noBound || nilInc.Tighten(1) {
		t.Error("nil incumbent is not an inert unbounded incumbent")
	}
}

// TestBoundSoundnessOnBenchmarks is the early-abort soundness
// property: on every embedded benchmark under the canonical options,
// the portfolio scoring orders through the incremental kernel with
// early abort must produce exactly the outcome of the same portfolio
// evaluating every order end to end with the stateless full-replay
// path (FullReplay) — same best makespan, same chosen scheduler, same
// winning plan, same per-strategy makespans. Both arms apply the same
// decision rules (the sealed incumbent and the per-step acceptance
// bounds are part of the search, not of the evaluation), so what the
// test proves is that an abort fires exactly where the fully computed
// makespan says the order would have been discarded, and that the
// kernel's checkpoint replay scores every surviving order exactly.
// It deliberately does not compare against a portfolio with the
// incumbent removed: the annealer's incumbent cap is a real search-rule
// change, gated by TestCanonicalMakespansPinned and benchgate's
// cycles_* quality gate.
func TestBoundSoundnessOnBenchmarks(t *testing.T) {
	for _, benchName := range itc02.BenchmarkNames() {
		benchName := benchName
		t.Run(benchName, func(t *testing.T) {
			procs := 8
			if benchName == "d695" {
				procs = 6
			}
			sys := buildSystem(t, benchName, procs, soc.Leon())
			opts := Options{PowerLimitFraction: 0.5, BISTPatternFactor: 3}
			m, err := Compile(sys, opts)
			if err != nil {
				t.Fatal(err)
			}

			for _, seed := range []int64{1, 17} {
				bounded := Portfolio{Schedulers: DefaultPortfolio(seed), Workers: 1}
				full := Portfolio{Schedulers: fullReplayPortfolio(seed), Workers: 1}
				ctx := context.Background()
				br, err := bounded.ScheduleModel(ctx, m)
				if err != nil {
					t.Fatal(err)
				}
				fr, err := full.ScheduleModel(ctx, m)
				if err != nil {
					t.Fatal(err)
				}
				if br.Makespan() != fr.Makespan() {
					t.Errorf("seed %d: bounded best makespan %d != unbounded %d", seed, br.Makespan(), fr.Makespan())
				}
				if br.Best != fr.Best {
					t.Errorf("seed %d: bounded winner %q != unbounded winner %q", seed, br.Best, fr.Best)
				}
				if !reflect.DeepEqual(br.Plan.Entries, fr.Plan.Entries) {
					t.Errorf("seed %d: winning plan entries differ between bounded and unbounded runs", seed)
				}
				for i, r := range br.Results {
					if r.Makespan != fr.Results[i].Makespan {
						t.Errorf("seed %d: strategy %s makespan %d (bounded) != %d (unbounded)",
							seed, r.Scheduler, r.Makespan, fr.Results[i].Makespan)
					}
				}
			}
		})
	}
}

// TestPortfolioDeterministicAcrossWorkersFullBudget is the regression
// test for a sealed-incumbent violation: with the full default budgets
// on the anomaly-rich p22810, a mid-race Tighten from a finishing
// search used to cap a still-running annealer's acceptance bound at an
// interleaving-dependent step, so per-strategy makespans differed
// between worker counts. Every strategy's result must be identical
// whatever the pool size.
func TestPortfolioDeterministicAcrossWorkersFullBudget(t *testing.T) {
	sys := buildSystem(t, "p22810", 8, soc.Leon())
	opts := Options{PowerLimitFraction: 0.5, BISTPatternFactor: 3}
	m, err := Compile(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	var first *PortfolioResult
	for run := 0; run < 2; run++ {
		for _, workers := range []int{1, 3} {
			pf := Portfolio{Schedulers: DefaultPortfolio(1), Workers: workers}
			res, err := pf.ScheduleModel(context.Background(), m)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = res
				continue
			}
			if res.Best != first.Best || res.Makespan() != first.Makespan() {
				t.Fatalf("run %d workers=%d: winner %q/%d != %q/%d",
					run, workers, res.Best, res.Makespan(), first.Best, first.Makespan())
			}
			for i, r := range res.Results {
				if r.Makespan != first.Results[i].Makespan {
					t.Fatalf("run %d workers=%d: strategy %s makespan %d != %d",
						run, workers, r.Scheduler, r.Makespan, first.Results[i].Makespan)
				}
			}
		}
	}
}
