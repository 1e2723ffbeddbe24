package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
)

// Scheduler is one pluggable search strategy over a compiled Model: it
// searches core orders for the complete test of the model's system and
// returns its best order as a Candidate, not as a plan — the portfolio
// builds and validates a plan for the winning candidate only. The model
// is shared — a portfolio compiles once and hands the same model to
// every strategy and worker — so implementations must treat it as
// read-only, must be deterministic for a fixed configuration (searches
// take an explicit seed) and must honour context cancellation promptly.
// Variant and priority are per-strategy choices: a strategy picks its
// own interface-choice rule and core orders; the model's Options supply
// everything else.
type Scheduler interface {
	// Name identifies the strategy in per-variant statistics.
	Name() string
	// Search searches m and returns the best candidate found. It may
	// abort evaluations that the incumbent proves irrelevant, and must
	// return the same candidate for a fixed (model, seed,
	// incumbent-at-entry) regardless of goroutine interleaving. A nil
	// incumbent is a valid empty bound.
	Search(ctx context.Context, m *Model, inc *Incumbent) (Candidate, error)
}

// Candidate is one strategy's search result: the best core order it
// found, the interface-choice rule it was scored under, and the
// makespan that order replays to. It is a promise of a plan, not a plan:
// Model.Plan(ctx, Variant, Order, Algorithm) turns it into one, and the
// portfolio does so for its winner only, rejecting the candidate if the
// built plan fails validation or its makespan differs from Makespan.
type Candidate struct {
	// Variant is the interface-choice rule Order was scored under.
	Variant Variant
	// Order is the core order, as indexes into the model's cores. It
	// may share the model's cached priority orders: treat it as
	// read-only.
	Order []int
	// Makespan is the makespan Order replays to under Variant.
	Makespan int
	// Algorithm is recorded in the built plan's algorithm field.
	Algorithm string
}

// Incumbent is the best-makespan bound a portfolio run shares across
// its workers: one atomic value every search chain reads to abort
// evaluations that provably cannot matter (see Evaluator and
// MakespanBounded for the abort mechanics).
//
// The portfolio seeds the incumbent from its deterministic list-rule
// members before the concurrent race starts, and the value is left
// untouched during the race. That sealing is deliberate: per-strategy
// results are part of the engine's determinism contract (fixed seed =>
// identical results regardless of worker count or interleaving), and a
// live cross-worker feed would make each strategy's pruning — hence its
// reported plan — depend on which sibling finished first.
//
// How a consumer may use the bound differs by search. Restart pruning
// is lossless for the portfolio outcome: a restart is only aborted
// once it provably cannot strictly beat a plan the portfolio already
// holds, and ties lose to the earlier strategy anyway. The annealer
// instead folds the incumbent into its acceptance rule — a deliberate,
// deterministic narrowing of its uphill exploration, gated by the
// pinned makespans of TestCanonicalMakespansPinned and benchgate's
// quality gate rather than claimed to be outcome-neutral. In both cases "aborted" must coincide exactly
// with "the fully computed makespan would have been discarded", which
// is what the bound-soundness property test asserts.
type Incumbent struct {
	best atomic.Int64
}

// NewIncumbent returns an incumbent holding no bound yet.
func NewIncumbent() *Incumbent {
	inc := &Incumbent{}
	inc.best.Store(int64(noBound))
	return inc
}

// Bound returns the current bound. A nil incumbent is a valid empty
// bound, so single-strategy callers can pass nil.
func (inc *Incumbent) Bound() int {
	if inc == nil {
		return noBound
	}
	return int(inc.best.Load())
}

// Tighten lowers the bound to ms if it improves it, reporting whether
// it did. Tighten on a nil incumbent reports false.
func (inc *Incumbent) Tighten(ms int) bool {
	if inc == nil {
		return false
	}
	for {
		cur := inc.best.Load()
		if int64(ms) >= cur {
			return false
		}
		if inc.best.CompareAndSwap(cur, int64(ms)) {
			return true
		}
	}
}

// ListScheduler is the deterministic single-pass list scheduler the
// paper describes, parameterised by interface-choice rule and core
// ordering. Its Variant and Priority override the compiled options'
// rules so a portfolio can race every combination over one model.
type ListScheduler struct {
	Variant  Variant
	Priority Priority
}

// Name returns "variant/priority".
func (l ListScheduler) Name() string {
	return fmt.Sprintf("%s/%s", l.Variant, l.Priority)
}

// Search runs one list-scheduling pass, makespan only; the incumbent is
// not consulted, since a single pass has nothing to prune against.
func (l ListScheduler) Search(ctx context.Context, m *Model, _ *Incumbent) (Candidate, error) {
	order := m.Order(l.Priority)
	ms, err := m.Makespan(ctx, l.Variant, order)
	if err != nil {
		return Candidate{}, err
	}
	algorithm := fmt.Sprintf("%s/%s/%s", l.Variant, l.Priority, m.Options().Application)
	return Candidate{Variant: l.Variant, Order: order, Makespan: ms, Algorithm: algorithm}, nil
}

// searchEval scores one order for a search chain: through the
// incremental kernel normally, or through the full-replay path when
// fullReplay is set — the differential-oracle arm, which makes
// identical accept/prune decisions from a fully computed makespan so
// tests can prove early abort never changes a search's outcome.
func searchEval(ctx context.Context, m *Model, ev *Evaluator, fullReplay bool, v Variant, order []int, bound int) (int, bool, error) {
	if !fullReplay {
		return ev.Evaluate(ctx, order, bound)
	}
	ms, err := m.Makespan(ctx, v, order)
	if err != nil {
		return 0, false, err
	}
	return ms, bound > 0 && ms > bound, nil
}

// RandomRestartScheduler is a multi-start randomized-priority search:
// it schedules the default priority order first, then a fixed number of
// random core orders — half fresh permutations, half local
// perturbations of the default order — and keeps the best order. The
// search is deterministic for a fixed seed. Each restart is one replay
// through the incremental kernel, pruned against the tighter of the
// search's own best and the portfolio incumbent; only the winning order
// becomes the search's candidate.
type RandomRestartScheduler struct {
	// Variant is the interface-choice rule applied to every restart.
	Variant Variant
	// Seed drives the permutation stream.
	Seed int64
	// Restarts is the number of random orders tried; zero selects 256.
	// (The pre-kernel engine defaulted to 64; incremental replays with
	// early abort are cheap enough to quadruple the budget again. The
	// first restarts of a seed reproduce the old candidate-order stream
	// exactly, so raising the budget never worsens a fixed-seed result.)
	Restarts int
	// FullReplay scores every order with the full-replay path instead
	// of the incremental kernel, with identical keep/prune decisions.
	// It exists for the differential tests and costs only speed.
	FullReplay bool
}

// DefaultRestarts is the restart budget a zero Restarts selects.
const DefaultRestarts = 256

// Name returns "random-restart(variant,seed=N,restarts=N)".
func (r RandomRestartScheduler) Name() string {
	return fmt.Sprintf("random-restart(%s,seed=%d,restarts=%d)", r.Variant, r.Seed, r.restarts())
}

func (r RandomRestartScheduler) restarts() int {
	if r.Restarts <= 0 {
		return DefaultRestarts
	}
	return r.Restarts
}

// Search runs the multi-start search. A restart is aborted as
// soon as it provably cannot strictly improve on the search's own best
// order, nor on the shared incumbent: a restart pruned at the incumbent
// could at best tie a plan the portfolio already holds, and ties lose
// to the earlier strategy anyway, so pruning never changes the
// portfolio outcome.
func (r RandomRestartScheduler) Search(ctx context.Context, m *Model, inc *Incumbent) (Candidate, error) {
	ev := m.NewEvaluator(r.Variant)
	defer ev.Close()
	ev.SetTrustedOrders(true) // orders are swaps/shuffles of a valid permutation

	// A list-schedule failure can be order-dependent (e.g. a tight power
	// ceiling hit from an unlucky permutation), so a failed pass —
	// including the default-order one — discards that pass only and the
	// search continues; the first error is reported when no order works.
	// The first successful pass runs unbounded to establish the local
	// best; pruning needs a plan to fall back on.
	base := m.DefaultOrder()
	bestMs := -1
	var bestOrder []int
	var firstErr error
	bound := func() int {
		if bestMs < 0 {
			return noBound
		}
		b := bestMs - 1
		if ib := inc.Bound(); ib < b {
			b = ib
		}
		return b
	}
	keep := func(order []int, ms int, pruned bool) {
		if !pruned && (bestMs < 0 || ms < bestMs) {
			bestMs = ms
			bestOrder = append(bestOrder[:0], order...)
		}
	}

	if ms, pruned, err := searchEval(ctx, m, ev, r.FullReplay, r.Variant, base, bound()); err != nil {
		if ctx.Err() != nil {
			return Candidate{}, ctx.Err()
		}
		firstErr = err
	} else {
		keep(base, ms, pruned)
	}

	rng := rand.New(rand.NewSource(r.Seed))
	order := make([]int, len(base))
	for i := 0; i < r.restarts(); i++ {
		copy(order, base)
		if i%2 == 0 {
			rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		} else {
			perturb(order, rng, 1+len(order)/8)
		}
		ms, pruned, err := searchEval(ctx, m, ev, r.FullReplay, r.Variant, order, bound())
		if err != nil {
			if ctx.Err() != nil {
				return Candidate{}, ctx.Err()
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		keep(order, ms, pruned)
	}
	if bestMs < 0 {
		return Candidate{}, firstErr
	}
	// Deliberately no inc.Tighten here: the incumbent is sealed during
	// the race (see Incumbent) — publishing a mid-race improvement would
	// make sibling searches' pruning depend on finish order.
	return Candidate{Variant: r.Variant, Order: bestOrder, Makespan: bestMs, Algorithm: r.Name()}, nil
}

// perturb applies n random pair swaps to order in place.
func perturb(order []int, rng *rand.Rand, n int) {
	for k := 0; k < n; k++ {
		i, j := rng.Intn(len(order)), rng.Intn(len(order))
		order[i], order[j] = order[j], order[i]
	}
}

// AnnealingScheduler searches the core-order space with seeded
// simulated annealing: each step swaps two positions of the current
// order, scores the neighbour through the incremental kernel (only the
// order suffix from the earlier swapped position is replayed), and
// accepts worse makespans with a probability that decays linearly over
// the step budget. The acceptance draw happens before the evaluation,
// which turns the Metropolis rule into a per-step makespan bound: the
// evaluation aborts the moment the neighbour exceeds what this step
// could accept, and an aborted neighbour is exactly a rejected one.
// Deterministic for a fixed seed.
type AnnealingScheduler struct {
	// Variant is the interface-choice rule applied to every evaluation.
	Variant Variant
	// Seed drives the move and acceptance streams.
	Seed int64
	// Steps is the annealing budget; zero selects 4000. (The pre-kernel
	// engine defaulted to 1200; DefaultPortfolio keeps members at the
	// smaller budgets alongside the bigger default.)
	Steps int
	// FullReplay scores every neighbour with the full-replay path
	// instead of the incremental kernel, with identical accept/reject
	// decisions. It exists for the differential tests and costs only
	// speed.
	FullReplay bool
}

// DefaultAnnealingSteps is the step budget a zero Steps selects.
const DefaultAnnealingSteps = 4000

// Name returns "anneal(variant,seed=N,steps=N)".
func (a AnnealingScheduler) Name() string {
	return fmt.Sprintf("anneal(%s,seed=%d,steps=%d)", a.Variant, a.Seed, a.steps())
}

func (a AnnealingScheduler) steps() int {
	if a.Steps <= 0 {
		return DefaultAnnealingSteps
	}
	return a.Steps
}

// annealLocalFraction is the share of annealing moves drawn from the
// tail window; the remainder are uniform swaps over the whole order.
const annealLocalFraction = 0.9

// annealTailWindow sizes the local-move window for an order of n cores:
// swaps inside the last window+1 positions replay only that suffix.
// Orders too short for a distinct window use uniform moves only.
func annealTailWindow(n int) int {
	if n < 3 {
		return 0
	}
	if n-1 < 8 {
		return n - 1
	}
	return 8
}

// acceptanceBound returns the largest neighbour makespan this step's
// Metropolis draw accepts: candMs is accepted iff candMs - curMs <
// -temp*ln(u), so with u drawn before the evaluation the rule collapses
// to an integer upper bound and "aborted by the bound" coincides
// exactly with "rejected".
func acceptanceBound(curMs int, temp, u float64) int {
	if temp <= 0 {
		return curMs
	}
	allow := -temp * math.Log(u) // u < 1, so allow >= 0; u == 0 allows anything
	if !(allow < float64(noBound-curMs)) {
		return noBound
	}
	d := int(math.Ceil(allow)) - 1
	if d < 0 {
		d = 0
	}
	return curMs + d
}

// Search runs the annealing search. The shared incumbent caps
// each step's acceptance bound (never below the current makespan, so
// improving moves always evaluate): uphill wandering above the best
// plan the portfolio already holds is cut off early, deterministically,
// because the incumbent is sealed before the race starts.
func (a AnnealingScheduler) Search(ctx context.Context, m *Model, inc *Incumbent) (Candidate, error) {
	steps := a.steps()
	rng := rand.New(rand.NewSource(a.Seed))
	ev := m.NewEvaluator(a.Variant)
	defer ev.Close()
	ev.SetTrustedOrders(true) // orders are swaps/shuffles of a valid permutation

	// Start from the default priority order; if that order happens to be
	// infeasible (order-dependent power failures exist), probe a few
	// seeded shuffles for a feasible starting point before giving up.
	order := append([]int(nil), m.DefaultOrder()...)
	curMs, _, err := searchEval(ctx, m, ev, a.FullReplay, a.Variant, order, noBound)
	for probe := 0; err != nil && probe < 8; probe++ {
		if ctx.Err() != nil {
			return Candidate{}, ctx.Err()
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		curMs, _, err = searchEval(ctx, m, ev, a.FullReplay, a.Variant, order, noBound)
	}
	if err != nil {
		if ctx.Err() != nil {
			return Candidate{}, ctx.Err()
		}
		return Candidate{}, err
	}
	bestMs := curMs
	bestOrder := append([]int(nil), order...)
	best := func() Candidate {
		return Candidate{Variant: a.Variant, Order: bestOrder, Makespan: bestMs, Algorithm: a.Name()}
	}
	if len(order) < 2 {
		return best(), nil
	}
	n := len(order)
	window := annealTailWindow(n)
	t0 := 0.05 * float64(curMs)
	for step := 0; step < steps; step++ {
		if err := ctx.Err(); err != nil {
			return Candidate{}, err
		}
		// Move kernel, tuned for the incremental kernel's cost model: a
		// neighbour costs only the replay from its earlier swapped
		// position, so most steps swap inside a small tail window (the
		// cheap, local moves) and the rest swap uniformly for
		// ergodicity. The benchmark's core.search.replayed_per_order
		// trace metric reports the resulting prefix reuse.
		var i, j int
		if window > 0 && rng.Float64() < annealLocalFraction {
			w := 2 + rng.Intn(window)
			i = n - w
			j = i + 1 + rng.Intn(w-1)
		} else {
			i, j = rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
		}
		temp := t0 * float64(steps-step) / float64(steps)
		bound := acceptanceBound(curMs, temp, rng.Float64())
		// Cap uphill exploration at the portfolio incumbent: a chain
		// wandering above the best plan already in hand is spending its
		// budget where no improvement can come from. Improving moves are
		// never cut: the cap stays at or above curMs.
		if ib := inc.Bound(); ib < bound {
			if ib < curMs {
				ib = curMs
			}
			bound = ib
		}
		order[i], order[j] = order[j], order[i]
		candMs, pruned, err := searchEval(ctx, m, ev, a.FullReplay, a.Variant, order, bound)
		if err != nil {
			if ctx.Err() != nil {
				return Candidate{}, ctx.Err()
			}
			order[i], order[j] = order[j], order[i] // infeasible move, undo
		} else if pruned {
			order[i], order[j] = order[j], order[i] // rejected, undo
		} else {
			curMs = candMs
			if curMs < bestMs {
				bestMs = curMs
				bestOrder = append(bestOrder[:0], order...)
			}
		}
	}
	// No inc.Tighten: the incumbent is sealed during the race (see
	// Incumbent and the matching note in RandomRestartScheduler).
	return best(), nil
}

// ListRules returns the seven deterministic list-scheduler members:
// every (interface-choice rule, core order) combination that has shown
// a win on some benchmark, including the paper's own rule
// (greedy/processors-first) and its lookahead repair. They lead
// DefaultPortfolio, and on their own they are the microsecond-scale
// strategy set a throughput-bound caller races.
func ListRules() []Scheduler {
	return []Scheduler{
		ListScheduler{GreedyFirstAvailable, ProcessorsFirst},
		ListScheduler{LookaheadFastestFinish, ProcessorsFirst},
		ListScheduler{GreedyFirstAvailable, VolumeDescending},
		ListScheduler{LookaheadFastestFinish, VolumeDescending},
		ListScheduler{GreedyFirstAvailable, LongestTestFirst},
		ListScheduler{LookaheadFastestFinish, LongestTestFirst},
		ListScheduler{LookaheadFastestFinish, DistanceOnly},
	}
}

// DefaultPortfolio returns the standard scheduler set ScheduleBest
// races: the ListRules members plus the seeded searches, so the
// portfolio result is never worse than any list rule. The
// annealers are staged across budgets (and seeds): short chains
// converge fast and cover more basins, and the long chains spend the
// throughput the incremental kernel recovered. Growing the long-chain
// pool is always quality-monotone — the portfolio takes the best over
// members and every prior member keeps its seed and budget — and it
// amortizes the fixed compile-and-list cost over more search, which is
// what BenchmarkPortfolio's orders_per_sec and ns/op, gated by
// cmd/benchgate, measure.
func DefaultPortfolio(seed int64) []Scheduler {
	return append(ListRules(),
		RandomRestartScheduler{Variant: LookaheadFastestFinish, Seed: seed},
		AnnealingScheduler{Variant: LookaheadFastestFinish, Seed: seed + 1, Steps: 300},
		AnnealingScheduler{Variant: LookaheadFastestFinish, Seed: seed + 2, Steps: 1200},
		AnnealingScheduler{Variant: LookaheadFastestFinish, Seed: seed + 3},
		AnnealingScheduler{Variant: LookaheadFastestFinish, Seed: seed + 4},
		AnnealingScheduler{Variant: LookaheadFastestFinish, Seed: seed + 5},
		AnnealingScheduler{Variant: LookaheadFastestFinish, Seed: seed + 6},
	)
}
