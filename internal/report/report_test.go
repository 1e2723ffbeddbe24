package report

import (
	"context"
	"strings"
	"testing"

	"noctest/internal/core"
	"noctest/internal/itc02"
)

// TestCanonicalMakespansPinned is the fixed-seed identity guard: on the
// canonical reproduction cell with the default portfolio at seed 1, the
// best makespans of the three embedded benchmarks are exact constants.
// Any engine refactor that perturbs placement — segment handling,
// candidate order, tie-breaks — shows up here as an exact diff rather
// than as noise in a timing figure.
func TestCanonicalMakespansPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("schedules all three embedded benchmarks")
	}
	want := map[string]int{"d695": 118980, "p22810": 373924, "p93791": 506455}
	pf := core.Portfolio{Schedulers: core.DefaultPortfolio(1), Workers: 1}
	for _, name := range itc02.BenchmarkNames() {
		sys, opts, err := CanonicalSystem(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.Compile(sys, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pf.ScheduleModel(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan() != want[name] {
			t.Errorf("%s: canonical seed-1 makespan %d, want the pinned %d",
				name, res.Makespan(), want[name])
		}
	}
}

func TestPaperPanels(t *testing.T) {
	specs := PaperPanels()
	if len(specs) != 6 {
		t.Fatalf("got %d panels, want 6", len(specs))
	}
	for _, s := range specs {
		want := 8
		if s.Benchmark == "d695" {
			want = 6
		}
		if s.Processors != want {
			t.Errorf("%s has %d processors, want %d", s.Benchmark, s.Processors, want)
		}
	}
}

func d695Panel(t *testing.T) Panel {
	t.Helper()
	p, err := RunPanel(PanelSpec{Benchmark: "d695", Processor: "leon", Processors: 6}, PanelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunPanelShape(t *testing.T) {
	p := d695Panel(t)
	if len(p.Points) != 4 { // 0, 2, 4, 6
		t.Fatalf("points = %d, want 4", len(p.Points))
	}
	if p.Points[0].Processors != 0 || p.Points[3].Processors != 6 {
		t.Errorf("sweep bounds wrong: %+v", p.Points)
	}
	if p.Baseline() != p.Points[0].NoLimit {
		t.Error("baseline should be the noproc unconstrained run")
	}
	// The noproc baseline must land near the paper's ~165k cycles bar —
	// this is the calibration the whole reproduction rests on.
	if b := p.Baseline(); b < 150000 || b > 180000 {
		t.Errorf("d695_leon noproc baseline = %d, want ~165000", b)
	}
	// The power-limited series can never beat the unconstrained one.
	for i, pt := range p.Points {
		if pt.PowerLimited < pt.NoLimit {
			t.Errorf("point %d: power-limited %d beats unconstrained %d", i, pt.PowerLimited, pt.NoLimit)
		}
	}
}

func TestReductionsMatchPaperDirection(t *testing.T) {
	p := d695Panel(t)
	final := p.Reduction(len(p.Points)-1, false)
	if final <= 0.05 {
		t.Errorf("full reuse reduction = %.1f%%, paper reports 28%%", 100*final)
	}
	if final > 0.60 {
		t.Errorf("full reuse reduction = %.1f%% implausibly exceeds the paper's regime", 100*final)
	}
	if best := p.BestReduction(false); best < final {
		t.Errorf("best reduction %.3f below final %.3f", best, final)
	}
}

func TestPanelRenderAndTable(t *testing.T) {
	p := d695Panel(t)
	r := p.Render()
	for _, want := range []string{"d695_leon", "noproc", "6proc", "no limit"} {
		if !strings.Contains(r, want) {
			t.Errorf("Render missing %q:\n%s", want, r)
		}
	}
	tab := p.Table()
	if !strings.Contains(tab, "reused") || !strings.Contains(tab, "%") {
		t.Errorf("Table malformed:\n%s", tab)
	}
	if len(strings.Split(strings.TrimSpace(tab), "\n")) != 2+len(p.Points) {
		t.Errorf("Table row count wrong:\n%s", tab)
	}
}

func TestPanelOptionsDefaults(t *testing.T) {
	o := PanelOptions{}.withDefaults()
	if o.BISTFactor != PaperBISTFactor {
		t.Errorf("BISTFactor = %g", o.BISTFactor)
	}
	if o.PowerFraction != PaperPowerFraction {
		t.Errorf("PowerFraction = %g", o.PowerFraction)
	}
	if o.Step != 2 {
		t.Errorf("Step = %d", o.Step)
	}
	kept := PanelOptions{BISTFactor: 2, PowerFraction: 0.3, Step: 4}.withDefaults()
	if kept.BISTFactor != 2 || kept.PowerFraction != 0.3 || kept.Step != 4 {
		t.Errorf("explicit options overridden: %+v", kept)
	}
}

func TestRunPanelUnknownInputs(t *testing.T) {
	if _, err := RunPanel(PanelSpec{Benchmark: "bogus", Processor: "leon", Processors: 2}, PanelOptions{}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := RunPanel(PanelSpec{Benchmark: "d695", Processor: "arm", Processors: 2}, PanelOptions{}); err == nil {
		t.Error("unknown processor accepted")
	}
}

func TestEvaluateClaims(t *testing.T) {
	// Full Figure 1 is moderately expensive; run it once here and reuse.
	panels, err := RunFigure1()
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 6 {
		t.Fatalf("panels = %d", len(panels))
	}
	claims := EvaluateClaims(panels)
	if len(claims) != 5 {
		t.Fatalf("claims = %d, want 5", len(claims))
	}
	byID := make(map[string]Claim)
	for _, c := range claims {
		byID[c.ID] = c
	}
	for _, id := range []string{"T1", "T2", "T3", "T4", "T5"} {
		if c := byID[id]; !c.Holds {
			t.Errorf("claim %s does not hold: measured %.3f (paper %.3f) — %s", id, c.Measured, c.Paper, c.Description)
		}
	}
	rendered := RenderClaims(claims)
	for _, id := range []string{"T1", "T2", "T3", "T4", "T5"} {
		if !strings.Contains(rendered, id) {
			t.Errorf("rendered claims missing %s:\n%s", id, rendered)
		}
	}
}

func TestScheduleForPoint(t *testing.T) {
	spec := PanelSpec{Benchmark: "d695", Processor: "plasma", Processors: 6}
	p, err := ScheduleForPoint(spec, PanelOptions{}, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("drill-down plan invalid: %v", err)
	}
	if p.PowerLimit <= 0 {
		t.Error("power-limited drill-down has no ceiling recorded")
	}
}

func TestVariantAblation(t *testing.T) {
	spec := PanelSpec{Benchmark: "d695", Processor: "leon", Processors: 6}
	res, err := RunVariantAblation(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Makespan) != 2 {
		t.Fatalf("makespans = %v", res.Makespan)
	}
	for _, v := range []core.Variant{core.GreedyFirstAvailable, core.LookaheadFastestFinish} {
		if res.Makespan[v.String()] <= 0 {
			t.Errorf("missing makespan for %v", v)
		}
	}
}

func TestPriorityAblation(t *testing.T) {
	spec := PanelSpec{Benchmark: "d695", Processor: "plasma", Processors: 6}
	res, err := RunPriorityAblation(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Makespan) != 3 {
		t.Fatalf("makespans = %v", res.Makespan)
	}
	// The literal distance-only order commissions processors late; it
	// must never beat processors-first by more than noise, and usually
	// loses. Assert the documented direction.
	pf := res.Makespan[core.ProcessorsFirst.String()]
	dist := res.Makespan[core.DistanceOnly.String()]
	if dist < pf*9/10 {
		t.Errorf("distance-only (%d) unexpectedly dominates processors-first (%d)", dist, pf)
	}
}

func TestPowerSweep(t *testing.T) {
	spec := PanelSpec{Benchmark: "d695", Processor: "leon", Processors: 6}
	points, err := RunPowerSweep(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 8 {
		t.Fatalf("points = %d", len(points))
	}
	var lastFeasible *PowerSweepPoint
	for i := range points {
		pt := points[i]
		if !pt.Feasible {
			continue
		}
		if lastFeasible != nil && pt.Makespan > lastFeasible.Makespan*11/10 {
			t.Errorf("loosening ceiling %g->%g lengthened schedule %d->%d",
				lastFeasible.Fraction, pt.Fraction, lastFeasible.Makespan, pt.Makespan)
		}
		lastFeasible = &points[i]
	}
	if lastFeasible == nil {
		t.Fatal("no feasible point in sweep")
	}
}
