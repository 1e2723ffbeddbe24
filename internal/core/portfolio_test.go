package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"noctest/internal/itc02"
	"noctest/internal/plan"
	"noctest/internal/soc"
)

// searchPlan runs one strategy's search on m and builds its candidate
// into a plan, as a one-member portfolio would.
func searchPlan(ctx context.Context, s Scheduler, m *Model) (*plan.Plan, error) {
	c, err := s.Search(ctx, m, nil)
	if err != nil {
		return nil, err
	}
	return m.Plan(ctx, c.Variant, c.Order, c.Algorithm)
}

// smallPortfolio is a reduced-budget portfolio for fast tests: both
// paper variants plus both seeded searches with trimmed budgets.
func smallPortfolio(seed int64) Portfolio {
	return Portfolio{Schedulers: []Scheduler{
		ListScheduler{GreedyFirstAvailable, ProcessorsFirst},
		ListScheduler{LookaheadFastestFinish, ProcessorsFirst},
		RandomRestartScheduler{Variant: LookaheadFastestFinish, Seed: seed, Restarts: 6},
		AnnealingScheduler{Variant: LookaheadFastestFinish, Seed: seed + 1, Steps: 60},
	}}
}

// TestScheduleBestBeatsSingleVariants checks the engine's contract on
// every benchmark: the portfolio plan validates and its makespan is no
// worse than either existing single-variant scheduler.
func TestScheduleBestBeatsSingleVariants(t *testing.T) {
	for _, benchName := range itc02.BenchmarkNames() {
		t.Run(benchName, func(t *testing.T) {
			procs := 8
			if benchName == "d695" {
				procs = 6
			}
			sys := buildSystem(t, benchName, procs, soc.Leon())
			opts := Options{PowerLimitFraction: 0.5, BISTPatternFactor: 3}

			singleBest := 0
			for _, v := range []Variant{GreedyFirstAvailable, LookaheadFastestFinish} {
				o := opts
				o.Variant = v
				p := mustSchedule(t, sys, o)
				if singleBest == 0 || p.Makespan() < singleBest {
					singleBest = p.Makespan()
				}
			}

			res, err := smallPortfolio(1).ScheduleBest(context.Background(), sys, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Plan.Validate(); err != nil {
				t.Fatalf("portfolio plan invalid: %v", err)
			}
			if res.Makespan() > singleBest {
				t.Errorf("portfolio makespan %d worse than best single variant %d", res.Makespan(), singleBest)
			}
			if len(res.Results) != 4 {
				t.Fatalf("got %d variant results, want 4", len(res.Results))
			}
			for _, r := range res.Results {
				if r.Err != nil {
					t.Errorf("strategy %s failed: %v", r.Scheduler, r.Err)
				}
				if r.Makespan < res.Makespan() {
					t.Errorf("strategy %s reported %d below the winning %d", r.Scheduler, r.Makespan, res.Makespan())
				}
			}
		})
	}
}

// TestScheduleBestDeterministic checks that a fixed seed gives an
// identical winner and identical plan entries across runs, regardless
// of worker interleaving.
func TestScheduleBestDeterministic(t *testing.T) {
	sys := buildSystem(t, "p22810", 8, soc.Plasma())
	opts := Options{BISTPatternFactor: 3}

	first, err := smallPortfolio(42).ScheduleBest(context.Background(), sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		pf := smallPortfolio(42)
		pf.Workers = 1 + run // vary the pool to vary the interleaving
		res, err := pf.ScheduleBest(context.Background(), sys, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Best != first.Best {
			t.Fatalf("run %d winner %s != first winner %s", run, res.Best, first.Best)
		}
		if !reflect.DeepEqual(res.Plan.Entries, first.Plan.Entries) {
			t.Fatalf("run %d plan differs from first run", run)
		}
		for i, r := range res.Results {
			if r.Makespan != first.Results[i].Makespan {
				t.Fatalf("run %d strategy %s makespan %d != %d", run, r.Scheduler, r.Makespan, first.Results[i].Makespan)
			}
		}
	}
}

// TestScheduleBestCancellation checks that cancellation surfaces as a
// context error and returns promptly even with a large search budget.
func TestScheduleBestCancellation(t *testing.T) {
	sys := buildSystem(t, "p93791", 8, soc.Leon())
	pf := Portfolio{Schedulers: []Scheduler{
		AnnealingScheduler{Variant: LookaheadFastestFinish, Seed: 1, Steps: 1 << 20},
	}}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pf.ScheduleBest(ctx, sys, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run returned %v, want context.Canceled", err)
	}

	ctx, cancel = context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := pf.ScheduleBest(ctx, sys, Options{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline run returned %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
}

// TestScheduleBestAnytime checks the engine returns the best completed
// plan when the deadline fires mid-race: a fast list scheduler finishes,
// an effectively unbounded annealer does not, and the result is the
// fast scheduler's plan with the annealer's interruption recorded.
func TestScheduleBestAnytime(t *testing.T) {
	sys := buildSystem(t, "d695", 6, soc.Leon())
	pf := Portfolio{Schedulers: []Scheduler{
		ListScheduler{LookaheadFastestFinish, ProcessorsFirst},
		AnnealingScheduler{Variant: LookaheadFastestFinish, Seed: 1, Steps: 1 << 20},
	}, Workers: 1}

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	res, err := pf.ScheduleBest(ctx, sys, Options{})
	if err != nil {
		t.Fatalf("anytime run failed outright: %v", err)
	}
	if res.Best != (ListScheduler{LookaheadFastestFinish, ProcessorsFirst}).Name() {
		t.Errorf("winner %s, want the completed list scheduler", res.Best)
	}
	if err := res.Plan.Validate(); err != nil {
		t.Fatalf("anytime plan invalid: %v", err)
	}
	if got := res.Results[1].Err; !errors.Is(got, context.DeadlineExceeded) {
		t.Errorf("interrupted annealer recorded %v, want context.DeadlineExceeded", got)
	}
}

// TestScheduleAll checks batch scheduling: results align with jobs,
// labels are preserved, every plan validates, and a job whose power
// ceiling is unsatisfiable reports an error without failing the batch.
func TestScheduleAll(t *testing.T) {
	sys := buildSystem(t, "d695", 6, soc.Leon())
	jobs := []BatchJob{
		{Label: "plain", Sys: sys, Opts: Options{}},
		{Label: "power", Sys: sys, Opts: Options{PowerLimitFraction: 0.5}},
		{Label: "infeasible", Sys: sys, Opts: Options{PowerLimit: 1}},
	}
	results := smallPortfolio(3).ScheduleAll(context.Background(), jobs)
	if len(results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
	}
	for i, res := range results {
		if res.Label != jobs[i].Label {
			t.Errorf("result %d label %q != job label %q", i, res.Label, jobs[i].Label)
		}
	}
	for _, res := range results[:2] {
		if res.Err != nil {
			t.Fatalf("job %s failed: %v", res.Label, res.Err)
		}
		if err := res.Result.Plan.Validate(); err != nil {
			t.Errorf("job %s plan invalid: %v", res.Label, err)
		}
	}
	if results[2].Err == nil {
		t.Error("unsatisfiable power ceiling did not report an error")
	}
}

// TestSearchSchedulersValidAndSeedSensitive checks each search
// scheduler directly on a shared compiled model: plans validate, repeat
// runs with one seed agree, and the recorded algorithm names the
// strategy.
func TestSearchSchedulersValidAndSeedSensitive(t *testing.T) {
	sys := buildSystem(t, "p22810", 8, soc.Leon())
	m, err := Compile(sys, Options{BISTPatternFactor: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, sched := range []Scheduler{
		RandomRestartScheduler{Variant: LookaheadFastestFinish, Seed: 9, Restarts: 6},
		AnnealingScheduler{Variant: LookaheadFastestFinish, Seed: 9, Steps: 60},
	} {
		t.Run(sched.Name(), func(t *testing.T) {
			a, err := searchPlan(context.Background(), sched, m)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Validate(); err != nil {
				t.Fatalf("invalid plan: %v", err)
			}
			if a.Algorithm != sched.Name() {
				t.Errorf("plan algorithm %q, want %q", a.Algorithm, sched.Name())
			}
			b, err := searchPlan(context.Background(), sched, m)
			if err != nil {
				t.Fatal(err)
			}
			if a.Makespan() != b.Makespan() {
				t.Errorf("same seed gave makespans %d and %d", a.Makespan(), b.Makespan())
			}
		})
	}
}

// TestCrossStrategyTieBreakDeterministic checks the portfolio's
// tie-breaking contract across strategies: when several schedulers
// produce equal-makespan plans, the winner is the earliest one in
// portfolio order, identically across repeat runs and worker counts.
// d695 is the tie-rich case: the lookahead list schedulers and both
// searches all reach the same makespan.
func TestCrossStrategyTieBreakDeterministic(t *testing.T) {
	sys := buildSystem(t, "d695", 6, soc.Leon())
	opts := Options{PowerLimitFraction: 0.5, BISTPatternFactor: 3}
	scheds := DefaultPortfolio(11)

	var first *PortfolioResult
	for run := 0; run < 3; run++ {
		for workers := 1; workers <= 4; workers++ {
			pf := Portfolio{Schedulers: scheds, Workers: workers}
			res, err := pf.ScheduleBest(context.Background(), sys, opts)
			if err != nil {
				t.Fatal(err)
			}
			// The winner must be the first strategy in portfolio order
			// that achieved the minimum makespan.
			for _, r := range res.Results {
				if r.Err == nil && r.Makespan == res.Makespan() {
					if r.Scheduler != res.Best {
						t.Fatalf("workers=%d: tie broken to %q, want first-in-order %q", workers, res.Best, r.Scheduler)
					}
					break
				}
			}
			if first == nil {
				first = res
				continue
			}
			if res.Best != first.Best {
				t.Fatalf("run %d workers=%d: winner %q != %q", run, workers, res.Best, first.Best)
			}
			if !reflect.DeepEqual(res.Plan.Entries, first.Plan.Entries) {
				t.Fatalf("run %d workers=%d: winning plan entries differ", run, workers)
			}
			for i, r := range res.Results {
				if r.Makespan != first.Results[i].Makespan {
					t.Fatalf("run %d workers=%d: strategy %s makespan %d != %d",
						run, workers, r.Scheduler, r.Makespan, first.Results[i].Makespan)
				}
			}
		}
	}

	// The tie must actually exist for this test to mean anything.
	ties := 0
	for _, r := range first.Results {
		if r.Err == nil && r.Makespan == first.Makespan() {
			ties++
		}
	}
	if ties < 2 {
		t.Fatalf("expected an equal-makespan tie between strategies, got %d at the minimum", ties)
	}
}

// TestLongestTestFirstOrdering checks the new priority rule schedules
// and sorts by descending standalone test length.
func TestLongestTestFirstOrdering(t *testing.T) {
	sys := buildSystem(t, "d695", 6, soc.Leon())
	opts := Options{Priority: LongestTestFirst}
	p := mustSchedule(t, sys, opts)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	order := orderCores(sys, opts.withDefaults(), reusedSet(sys, opts))
	for i := 1; i < len(order); i++ {
		if testLength(order[i].Core) > testLength(order[i-1].Core) {
			t.Fatalf("order[%d] %s (length %d) longer than order[%d] %s (length %d)",
				i, order[i].Core.Name, testLength(order[i].Core),
				i-1, order[i-1].Core.Name, testLength(order[i-1].Core))
		}
	}
}

// countingScheduler wraps a Scheduler and tracks how many Search
// calls run concurrently, so tests can pin the worker-pool bound.
type countingScheduler struct {
	Scheduler
	cur, max *int32
}

func (c countingScheduler) Search(ctx context.Context, m *Model, inc *Incumbent) (Candidate, error) {
	n := atomic.AddInt32(c.cur, 1)
	for {
		old := atomic.LoadInt32(c.max)
		if n <= old || atomic.CompareAndSwapInt32(c.max, old, n) {
			break
		}
	}
	defer atomic.AddInt32(c.cur, -1)
	return c.Scheduler.Search(ctx, m, inc)
}

// TestPortfolioRespectsWorkerBound checks the -workers bound: however
// many searchers join the race, the portfolio never runs more
// schedulers at once than the worker bound — they share the pool
// instead of spawning goroutines of their own.
func TestPortfolioRespectsWorkerBound(t *testing.T) {
	sys := buildSystem(t, "d695", 6, soc.Leon())
	m, err := Compile(sys, Options{PowerLimitFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var cur, max int32
	var scheds []Scheduler
	for _, s := range DefaultPortfolio(1) {
		scheds = append(scheds, countingScheduler{Scheduler: s, cur: &cur, max: &max})
	}
	if _, err := (Portfolio{Schedulers: scheds, Workers: 2}).ScheduleModel(context.Background(), m); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt32(&max); got > 2 {
		t.Errorf("%d schedulers ran concurrently, want <= 2 (the worker bound)", got)
	}
}

// TestScheduleModelConcurrentSameModel is the serving regression test:
// several ScheduleModel calls racing one shared compiled model (the
// cached-model reuse pattern a long-running server lives on) must
// return results bit-identical to the same runs performed serially.
// Run under -race it additionally proves the shared model carries no
// unsynchronised run state.
func TestScheduleModelConcurrentSameModel(t *testing.T) {
	sys := buildSystem(t, "p22810", 8, soc.Leon())
	opts := Options{PowerLimitFraction: 0.5, BISTPatternFactor: 3}
	m, err := Compile(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The searchers exercise the kernel's journals and checkpoints,
	// exactly the state that must hang off the run (the evaluator),
	// never the model.
	newPF := func() Portfolio {
		pf := smallPortfolio(11)
		pf.Workers = 2
		return pf
	}

	serial, err := newPF().ScheduleModel(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}

	const racers = 4
	results := make([]*PortfolioResult, racers)
	errs := make([]error, racers)
	var wg sync.WaitGroup
	for r := 0; r < racers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r], errs[r] = newPF().ScheduleModel(context.Background(), m)
		}(r)
	}
	wg.Wait()

	for r := 0; r < racers; r++ {
		if errs[r] != nil {
			t.Fatalf("concurrent run %d failed: %v", r, errs[r])
		}
		res := results[r]
		if res.Best != serial.Best {
			t.Errorf("concurrent run %d winner %s != serial winner %s", r, res.Best, serial.Best)
		}
		if !reflect.DeepEqual(res.Plan.Entries, serial.Plan.Entries) {
			t.Errorf("concurrent run %d plan entries differ from the serial run", r)
		}
		for i, vr := range res.Results {
			if vr.Err != nil {
				t.Errorf("concurrent run %d strategy %s failed: %v", r, vr.Scheduler, vr.Err)
			}
			if vr.Scheduler != serial.Results[i].Scheduler || vr.Makespan != serial.Results[i].Makespan {
				t.Errorf("concurrent run %d strategy %d: got %s/%d, serial %s/%d",
					r, i, vr.Scheduler, vr.Makespan, serial.Results[i].Scheduler, serial.Results[i].Makespan)
			}
		}
	}
}

// TestPlanNotesIsolated checks that plans built from one model never
// alias the model's note storage: appending to one plan's notes must
// not leak into the model or into sibling plans — the hazard of
// serving thousands of plans from a single cached model.
func TestPlanNotesIsolated(t *testing.T) {
	sys := buildSystem(t, "d695", 6, soc.Leon())
	m, err := Compile(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p1, err := m.Plan(context.Background(), GreedyFirstAvailable, m.DefaultOrder(), "")
	if err != nil {
		t.Fatal(err)
	}
	before := len(m.Notes())
	p1.Notes = append(p1.Notes, "consumer annotation")
	p2, err := m.Plan(context.Background(), GreedyFirstAvailable, m.DefaultOrder(), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Notes()) != before {
		t.Fatalf("model notes grew from %d to %d after a plan append", before, len(m.Notes()))
	}
	for _, n := range p2.Notes {
		if n == "consumer annotation" {
			t.Fatalf("sibling plan inherited a consumer's note: %v", p2.Notes)
		}
	}
}

// TestPortfolioProgressStream checks the anytime progress hook: events
// carry strictly decreasing makespans, the last event names the final
// winner's makespan, and a hook-free run is unaffected.
func TestPortfolioProgressStream(t *testing.T) {
	sys := buildSystem(t, "d695", 6, soc.Leon())
	opts := Options{PowerLimitFraction: 0.5, BISTPatternFactor: 3}
	m, err := Compile(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	var events []ProgressEvent
	pf := smallPortfolio(3)
	pf.Progress = func(ev ProgressEvent) { events = append(events, ev) }
	res, err := pf.ScheduleModel(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events from a successful run")
	}
	for i := 1; i < len(events); i++ {
		if events[i].Makespan >= events[i-1].Makespan {
			t.Errorf("event %d makespan %d does not improve on %d", i, events[i].Makespan, events[i-1].Makespan)
		}
	}
	last := events[len(events)-1]
	if last.Makespan != res.Makespan() {
		t.Errorf("last event makespan %d != final result %d", last.Makespan, res.Makespan())
	}
}

// lyingScheduler reports a candidate its order does not back: Makespan
// claims a value the order never replays to, or Order is not a
// permutation at all.
type lyingScheduler struct {
	name string
	lie  func(m *Model) Candidate
}

func (l lyingScheduler) Name() string { return l.name }
func (l lyingScheduler) Search(ctx context.Context, m *Model, inc *Incumbent) (Candidate, error) {
	return l.lie(m), nil
}

// TestPortfolioRejectsUnbackedCandidates pins the winner-build check:
// a candidate whose order replays to a makespan other than the one its
// strategy reported, or does not build at all, loses its strategy an
// Err, and the next-best candidate is built and wins instead.
func TestPortfolioRejectsUnbackedCandidates(t *testing.T) {
	sys := buildSystem(t, "d695", 6, soc.Leon())
	m, err := Compile(sys, Options{PowerLimitFraction: 0.5, BISTPatternFactor: 3})
	if err != nil {
		t.Fatal(err)
	}
	honest := []Scheduler{
		ListScheduler{GreedyFirstAvailable, ProcessorsFirst},
		ListScheduler{LookaheadFastestFinish, VolumeDescending},
	}
	want, err := Portfolio{Schedulers: honest}.ScheduleModel(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	understated := lyingScheduler{name: "test.understated", lie: func(m *Model) Candidate {
		return Candidate{Variant: LookaheadFastestFinish, Order: m.DefaultOrder(), Makespan: 1, Algorithm: "understated"}
	}}
	repeated := lyingScheduler{name: "test.repeated", lie: func(m *Model) Candidate {
		order := make([]int, len(m.DefaultOrder())) // core 0 over and over
		return Candidate{Variant: LookaheadFastestFinish, Order: order, Makespan: 2, Algorithm: "repeated"}
	}}
	var events []ProgressEvent
	pf := Portfolio{
		Schedulers: append([]Scheduler{understated, repeated}, honest...),
		Progress:   func(ev ProgressEvent) { events = append(events, ev) },
	}
	res, err := pf.ScheduleModel(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != want.Best || res.Makespan() != want.Makespan() || !reflect.DeepEqual(res.Plan.Entries, want.Plan.Entries) {
		t.Errorf("winner %s/%d, want the honest best %s/%d", res.Best, res.Makespan(), want.Best, want.Makespan())
	}
	if err := res.Plan.Validate(); err != nil {
		t.Fatalf("winning plan invalid: %v", err)
	}
	for i, r := range res.Results[:2] {
		if r.Err == nil || r.Makespan != 0 {
			t.Errorf("result %d (%s): err %v, makespan %d; want a rejection with no makespan", i, r.Scheduler, r.Err, r.Makespan)
		}
	}
	if got := res.Results[0].Err; got == nil || !strings.Contains(got.Error(), "replays to") {
		t.Errorf("understated candidate's error %v does not name the makespan mismatch", got)
	}
	for _, r := range res.Results[2:] {
		if r.Err != nil {
			t.Errorf("honest strategy %s failed: %v", r.Scheduler, r.Err)
		}
	}
	// Progress reports candidates as they finish, before any is built.
	if len(events) == 0 || events[len(events)-1].Makespan != 1 {
		t.Errorf("progress %+v, want the understated candidate's makespan last", events)
	}
}

// TestQuickRunBuildsOnePlan pins "one plan per run": a run of the seven
// list rules replays each order once, in the incumbent-seeding pass,
// and then builds the winner's plan once — 8 orders on the model's
// counter, where building every member's plan would take 14.
func TestQuickRunBuildsOnePlan(t *testing.T) {
	sys := buildSystem(t, "p22810", 8, soc.Leon())
	m, err := Compile(sys, Options{PowerLimitFraction: 0.5, BISTPatternFactor: 3})
	if err != nil {
		t.Fatal(err)
	}
	quick := DefaultPortfolio(1)[:7]
	for _, s := range quick {
		if _, ok := s.(ListScheduler); !ok {
			t.Fatalf("default member %s is not a list rule", s.Name())
		}
	}
	before := m.SearchStats().Orders
	res, err := Portfolio{Schedulers: quick, Workers: 1}.ScheduleModel(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.SearchStats().Orders - before; got != 8 {
		t.Errorf("quick run replayed %d orders, want 8 (7 seeding passes + 1 winner build)", got)
	}
	if err := res.Plan.Validate(); err != nil {
		t.Fatalf("winning plan invalid: %v", err)
	}
}
