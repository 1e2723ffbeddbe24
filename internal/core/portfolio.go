package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"noctest/internal/plan"
	"noctest/internal/soc"
)

// PanicError records a strategy that panicked during a portfolio run.
// The panic is recovered at the strategy boundary — one broken search
// must degrade the race to its surviving members, not kill the whole
// process a server is running it in — and surfaces as the strategy's
// Err in the run's Results, where callers count it with errors.As.
type PanicError struct {
	// Scheduler is the strategy that panicked.
	Scheduler string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("core: scheduler %s panicked: %v", e.Scheduler, e.Value)
}

// runShielded runs one strategy's search with panic isolation: a panic
// becomes a *PanicError result instead of unwinding into the worker
// pool.
func runShielded(ctx context.Context, s Scheduler, m *Model, inc *Incumbent) (c Candidate, err error) {
	defer func() {
		if v := recover(); v != nil {
			c, err = Candidate{}, &PanicError{Scheduler: s.Name(), Value: v, Stack: string(debug.Stack())}
		}
	}()
	return s.Search(ctx, m, inc)
}

// Portfolio races a set of schedulers over a goroutine worker pool and
// builds the plan of the minimum-makespan candidate. The system is
// compiled once into a Model shared by every strategy and worker; each
// strategy replays the model with its own search, so the per-strategy
// cost is search, not recompilation, and only the winner pays for a
// plan. The zero value races DefaultPortfolio(0) on GOMAXPROCS
// workers.
type Portfolio struct {
	// Schedulers is the strategy set to race; nil selects
	// DefaultPortfolio(0).
	Schedulers []Scheduler
	// Workers bounds the concurrent scheduler runs; values below 1
	// select GOMAXPROCS.
	Workers int
	// Progress, when non-nil, receives one event per completed strategy
	// whose candidate makespan strictly improves on every strategy
	// completed before it in the same run — the anytime incumbent
	// stream a serving frontend forwards to its caller. Events are
	// delivered serially (the portfolio holds a lock across the call),
	// so the callback needs no locking of its own but must return
	// promptly. The stream is observational only: completion order
	// depends on goroutine interleaving, so the event sequence may
	// differ between runs, but the run's final result never does —
	// selection still happens after the race from the full result set,
	// in portfolio order.
	Progress func(ProgressEvent)
}

// ProgressEvent is one live observation of a portfolio run: a strategy
// finished with a candidate better than any completed before it.
type ProgressEvent struct {
	// Scheduler is the strategy that produced the improvement.
	Scheduler string
	// Makespan is the improved candidate's makespan.
	Makespan int
	// Elapsed is the strategy's wall time within the run.
	Elapsed time.Duration
}

// VariantResult is one scheduler's outcome within a portfolio run.
type VariantResult struct {
	// Scheduler is the strategy name.
	Scheduler string
	// Makespan is the strategy's candidate makespan, 0 when the run
	// failed or its candidate was rejected at plan build.
	Makespan int
	// Elapsed is the strategy's wall time.
	Elapsed time.Duration
	// Err is the strategy's failure, nil on success.
	Err error
}

// PortfolioResult is the outcome of a ScheduleBest run.
type PortfolioResult struct {
	// Plan is the minimum-makespan plan across the portfolio.
	Plan *plan.Plan
	// Best is the name of the scheduler that produced Plan.
	Best string
	// Results holds every strategy's outcome, in portfolio order.
	Results []VariantResult
}

// Makespan returns the winning plan's makespan.
func (r *PortfolioResult) Makespan() int { return r.Plan.Makespan() }

// Panics counts the run's strategies that panicked (Err holds a
// *PanicError): the race degraded to the surviving members.
func (r *PortfolioResult) Panics() int {
	n := 0
	for _, vr := range r.Results {
		var pe *PanicError
		if errors.As(vr.Err, &pe) {
			n++
		}
	}
	return n
}

// ScheduleBest races the default portfolio over sys under opts and
// returns the minimum-makespan plan with per-variant statistics.
func ScheduleBest(ctx context.Context, sys *soc.System, opts Options) (*PortfolioResult, error) {
	return Portfolio{}.ScheduleBest(ctx, sys, opts)
}

// ScheduleBest compiles sys under opts once and races the portfolio's
// schedulers over the shared model.
func (pf Portfolio) ScheduleBest(ctx context.Context, sys *soc.System, opts Options) (*PortfolioResult, error) {
	m, err := Compile(sys, opts)
	if err != nil {
		return nil, err
	}
	return pf.ScheduleModel(ctx, m)
}

// ScheduleModel races the portfolio's schedulers concurrently over one
// precompiled model and returns the plan of the minimum-makespan
// candidate. Strategies return makespan-only candidates; the winner
// alone is built into a plan, by one Model.Plan call that validates it.
// Every returned plan is therefore valid: a candidate whose plan fails
// validation, or replays to a makespan other than the one its strategy
// reported, gets that strategy's Err set and the next-best candidate is
// built instead. Ties go to the earliest scheduler in portfolio order,
// which makes the result deterministic for a fixed scheduler set
// regardless of goroutine interleaving. The engine is an anytime
// search: when the context expires after at least one strategy has
// finished, the best completed candidate is built — outside the
// deadline, so the partial answer still arrives — and returned
// (interrupted strategies record their context error in Results). An
// error is returned only when the context ends with no candidate in
// hand or every strategy fails.
//
// The portfolio's deterministic list-rule members run first, serially
// (makespan only, microseconds each): their candidates are their
// results, and they seed a shared Incumbent, which every search in the
// race consumes for early-abort pruning: the fast greedy results
// immediately tighten the bound inside every concurrent anneal/restart
// chain. The incumbent is sealed once the race begins — see Incumbent
// for why live feeding would trade the engine's determinism contract
// for nothing.
//
// ScheduleModel may be called concurrently on the same model: every
// piece of run state — the incumbent, the candidate/result slices, the
// progress stream, each strategy's evaluator and rng — is allocated per
// call, and the only state the calls share through the model is the
// scratch pool (checked out per pass) and the atomic telemetry
// counters, neither of which feeds back into scheduling decisions. Two
// concurrent runs on one model therefore return results bit-identical
// to the same runs performed serially; the regression test racing them
// under the race detector pins this, because a long-running server
// answers many requests from one cached model.
func (pf Portfolio) ScheduleModel(ctx context.Context, m *Model) (*PortfolioResult, error) {
	scheds := pf.Schedulers
	if len(scheds) == 0 {
		scheds = DefaultPortfolio(0)
	}

	cands := make([]Candidate, len(scheds))
	results := make([]VariantResult, len(scheds))
	// Progress state is per run, never per model: two requests racing the
	// same cached model each see only their own improvement stream.
	var progressMu sync.Mutex
	progressBest := -1
	finish := func(i int, c Candidate, err error, elapsed time.Duration) {
		res := VariantResult{Scheduler: scheds[i].Name(), Elapsed: elapsed, Err: err}
		if err == nil {
			res.Makespan = c.Makespan
			cands[i] = c
			if pf.Progress != nil {
				progressMu.Lock()
				if progressBest < 0 || res.Makespan < progressBest {
					progressBest = res.Makespan
					pf.Progress(ProgressEvent{Scheduler: res.Scheduler, Makespan: res.Makespan, Elapsed: res.Elapsed})
				}
				progressMu.Unlock()
			}
		}
		results[i] = res
	}

	inc := NewIncumbent()
	var race []int
	for i, s := range scheds {
		if _, ok := s.(ListScheduler); !ok {
			race = append(race, i)
			continue
		}
		start := time.Now()
		c, err := runShielded(ctx, s, m, nil)
		if err == nil {
			inc.Tighten(c.Makespan)
		}
		finish(i, c, err, time.Since(start))
	}

	workers := pf.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(race) {
		workers = len(race)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				start := time.Now()
				c, err := runShielded(ctx, scheds[i], m, inc)
				finish(i, c, err, time.Since(start))
			}
		}()
	}
feed:
	for _, i := range race {
		select {
		case jobs <- i:
		case <-ctx.Done():
			// Stop feeding; in-flight runs see the cancellation through
			// their own context checks.
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	// Build the winner: candidates in (makespan, portfolio order), the
	// first whose plan builds, validates and reproduces its makespan
	// wins. The build ignores the deadline — it is one pass, and a
	// deadline that fired mid-race must still yield the anytime plan.
	var ranked []int
	for i, r := range results {
		if r.Scheduler != "" && r.Err == nil {
			ranked = append(ranked, i)
		}
	}
	sort.SliceStable(ranked, func(a, b int) bool {
		return cands[ranked[a]].Makespan < cands[ranked[b]].Makespan
	})
	buildCtx := context.WithoutCancel(ctx)
	for _, i := range ranked {
		c := cands[i]
		p, err := m.Plan(buildCtx, c.Variant, c.Order, c.Algorithm)
		if err == nil && p.Makespan() != c.Makespan {
			err = fmt.Errorf("reported makespan %d, its order replays to %d", c.Makespan, p.Makespan())
		}
		if err != nil {
			results[i].Err = fmt.Errorf("core: %s candidate rejected: %w", results[i].Scheduler, err)
			results[i].Makespan = 0
			continue
		}
		return &PortfolioResult{Plan: p, Best: results[i].Scheduler, Results: results}, nil
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	firstErr := results[0].Err
	for _, r := range results {
		if r.Err != nil {
			firstErr = r.Err
			break
		}
	}
	return nil, fmt.Errorf("core: every portfolio strategy failed: %w", firstErr)
}

// BatchJob is one cell of a batch run: either a precompiled model or a
// system-plus-options pair compiled on demand.
type BatchJob struct {
	// Label identifies the job in the results (e.g.
	// "p22810/power=0.5/reuse=8/packet").
	Label string
	// Sys is the placed system to schedule; ignored when Model is set.
	Sys *soc.System
	// Opts configures the run; ignored when Model is set.
	Opts Options
	// Model, when non-nil, is the precompiled model for this cell, so
	// batch drivers that already compiled (e.g. the report grid) are
	// not compiled again.
	Model *Model
}

// BatchResult is one job's outcome.
type BatchResult struct {
	// Label echoes the job's label.
	Label string
	// Result is the portfolio outcome, nil when Err is set.
	Result *PortfolioResult
	// Err is the job's failure, nil on success.
	Err error
}

// ScheduleAll schedules every job concurrently with the default
// portfolio and returns one result per job, in job order.
func ScheduleAll(ctx context.Context, jobs []BatchJob) []BatchResult {
	return Portfolio{}.ScheduleAll(ctx, jobs)
}

// ScheduleAll schedules every job concurrently, one portfolio run per
// job, over the portfolio's worker budget. The jobs are the concurrency
// unit: within a job the portfolio runs its schedulers sequentially, so
// the pool is never oversubscribed. Each job compiles its model once
// (or reuses job.Model when the caller precompiled). Results come back
// in job order; a cancelled context marks the unstarted jobs with the
// context error.
func (pf Portfolio) ScheduleAll(ctx context.Context, jobs []BatchJob) []BatchResult {
	workers := pf.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	inner := Portfolio{Schedulers: pf.Schedulers, Workers: 1}

	out := make([]BatchResult, len(jobs))
	feed := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				m, err := jobs[i].Model, error(nil)
				if m == nil {
					m, err = Compile(jobs[i].Sys, jobs[i].Opts)
				}
				var res *PortfolioResult
				if err == nil {
					res, err = inner.ScheduleModel(ctx, m)
				}
				out[i] = BatchResult{Label: jobs[i].Label, Result: res, Err: err}
			}
		}()
	}
	for i := range jobs {
		select {
		case feed <- i:
		case <-ctx.Done():
			out[i] = BatchResult{Label: jobs[i].Label, Err: ctx.Err()}
		}
	}
	close(feed)
	wg.Wait()
	return out
}
