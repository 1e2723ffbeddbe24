package core

import (
	"context"
	"strings"
	"testing"

	"noctest/internal/itc02"
	"noctest/internal/noc"
	"noctest/internal/soc"
)

// TestLowerBoundHoldsForEveryStrategy is the soundness check: on every
// embedded benchmark under every option regime, every portfolio
// strategy's plan must finish at or after the analytic floor.
func TestLowerBoundHoldsForEveryStrategy(t *testing.T) {
	ctx := context.Background()
	regimes := []struct {
		name string
		opts Options
	}{
		{"base", Options{}},
		{"power", Options{PowerLimitFraction: 0.5}},
		{"exclusive", Options{ExclusiveLinks: true}},
		{"noreuse", Options{DisableReuse: true}},
		{"bist3", Options{BISTPatternFactor: 3}},
	}
	for _, benchName := range itc02.BenchmarkNames() {
		bench, err := itc02.Benchmark(benchName)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := soc.Build(bench, soc.BuildConfig{Processors: 4, Profile: soc.Leon()})
		if err != nil {
			t.Fatal(err)
		}
		for _, regime := range regimes {
			m, err := Compile(sys, regime.opts)
			if err != nil {
				t.Fatal(err)
			}
			bound := m.LowerBound()
			if bound.Cycles() < 1 {
				t.Fatalf("%s/%s: degenerate bound %v", benchName, regime.name, bound)
			}
			for _, sched := range DefaultPortfolio(3) {
				p, err := searchPlan(ctx, sched, m)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", benchName, regime.name, sched.Name(), err)
				}
				if p.Makespan() < bound.Cycles() {
					t.Errorf("%s/%s/%s: makespan %d below %v",
						benchName, regime.name, sched.Name(), p.Makespan(), bound)
				}
			}
		}
	}
}

// TestLowerBoundTightOnSingleCore pins the bound exactly: with one core
// and one ATE interface there is a unique plan, and the critical-core
// component must equal its makespan (gap 1.0).
func TestLowerBoundTightOnSingleCore(t *testing.T) {
	bench := &itc02.SoC{Name: "solo", Cores: []itc02.Core{{
		ID: 1, Name: "only", Inputs: 32, Outputs: 32, Patterns: 20, Power: 100,
	}}}
	sys, err := soc.Build(bench, soc.BuildConfig{Mesh: noc.Mesh{Width: 2, Height: 2}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Compile(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Schedule(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bound := m.LowerBound()
	if bound.CriticalCore != p.Makespan() {
		t.Errorf("critical-core %d != unique makespan %d (%v)",
			bound.CriticalCore, p.Makespan(), bound)
	}
	if bound.Cycles() != p.Makespan() {
		t.Errorf("bound %d not tight on the unique plan %d", bound.Cycles(), p.Makespan())
	}
}

// TestLowerBoundComponentsActivate checks the option-gated components
// switch on with their regimes.
func TestLowerBoundComponentsActivate(t *testing.T) {
	bench, err := itc02.Benchmark("d695")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := soc.Build(bench, soc.BuildConfig{Processors: 2, Profile: soc.Plasma()})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Compile(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if b := base.LowerBound(); b.BottleneckLink != 0 || b.PowerFloor != 0 {
		t.Errorf("unconstrained model grew constrained components: %v", b)
	}
	excl, err := Compile(sys, Options{ExclusiveLinks: true})
	if err != nil {
		t.Fatal(err)
	}
	if b := excl.LowerBound(); b.BottleneckLink == 0 {
		t.Errorf("exclusive-links model has no link component: %v", b)
	}
	pow, err := Compile(sys, Options{PowerLimitFraction: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if b := pow.LowerBound(); b.PowerFloor == 0 {
		t.Errorf("power-limited model has no power component: %v", b)
	}
	if !strings.Contains(pow.LowerBound().String(), "power-floor") {
		t.Error("String() misses components")
	}
}
