package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"noctest/internal/soc"
)

// walkOptionSets are the configurations the kernel differential walks
// cover: they exercise the power-profile restore (ceilings), the link
// timeline undo (exclusive links) and both interface-choice rules.
var walkOptionSets = []Options{
	{},
	{PowerLimitFraction: 0.5},
	{PowerLimitFraction: 0.3, ExclusiveLinks: true},
	{ExclusiveLinks: true},
	{BISTPatternFactor: 3, PowerLimitFraction: 0.5},
	{DisableReuse: true},
	// Preemptive regimes: segment chains stress the multi-reservation
	// journal undo and the chained power-profile restore.
	{PowerLimitFraction: 0.5, MaxSegments: 4, ResumeCycles: 50},
	{PowerLimitFraction: 0.3, ExclusiveLinks: true, MaxSegments: 3, MinSegmentPatterns: 2},
}

// TestEvaluatorMatchesFullReplay is the kernel's central differential
// property: across random systems, option regimes and seeded random
// walks of order mutations, a persistent Evaluator (prefix replay over
// checkpoints) must agree exactly with the stateless full-replay path —
// same makespan, same pruned flag, same feasibility — under a schedule
// of bounds that covers completed, tied, aborted and repeated
// evaluations.
func TestEvaluatorMatchesFullReplay(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	ctx := context.Background()
	for trial := 0; trial < 60; trial++ {
		sys, err := randomSystem(r)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		opts := walkOptionSets[trial%len(walkOptionSets)]
		m, err := Compile(sys, opts)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, v := range []Variant{GreedyFirstAvailable, LookaheadFastestFinish} {
			ev := m.NewEvaluator(v)
			order := append([]int(nil), m.DefaultOrder()...)
			n := len(order)
			prevMs := 0
			for step := 0; step < 25; step++ {
				if step > 0 && n >= 2 {
					// Mostly swaps (including the occasional no-op i==j,
					// which must revisit the cached full evaluation), a
					// few full shuffles to force cold replays.
					if step%11 == 0 {
						r.Shuffle(n, func(a, b int) { order[a], order[b] = order[b], order[a] })
					} else {
						i, j := r.Intn(n), r.Intn(n)
						order[i], order[j] = order[j], order[i]
					}
				}
				bound := 0
				switch {
				case step%4 == 1 && prevMs > 0:
					bound = prevMs
				case step%4 == 2 && prevMs > 1:
					bound = prevMs - 1
				case step%4 == 3 && prevMs > 0:
					bound = prevMs / 2
				}
				incMs, incPruned, incErr := ev.Evaluate(ctx, order, bound)
				fullMs, fullPruned, fullErr := m.MakespanBounded(ctx, v, order, bound)
				if (incErr != nil) != (fullErr != nil) {
					t.Fatalf("trial %d %s step %d bound %d: feasibility disagrees: kernel %v, full %v",
						trial, v, step, bound, incErr, fullErr)
				}
				if incErr != nil {
					continue
				}
				if incMs != fullMs || incPruned != fullPruned {
					t.Fatalf("trial %d %s step %d bound %d: kernel (ms %d, pruned %v) vs full (ms %d, pruned %v)",
						trial, v, step, bound, incMs, incPruned, fullMs, fullPruned)
				}
				if !fullPruned {
					prevMs = fullMs
				}
			}
			ev.Close()
		}
	}
}

// TestEvaluatorRejectsBadOrders checks the kernel rejects what the
// full-replay path rejects: wrong length, out-of-range indices and
// repeats, without corrupting the state it holds for the next call.
func TestEvaluatorRejectsBadOrders(t *testing.T) {
	sys := buildSystem(t, "d695", 6, soc.Leon())
	m, err := Compile(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ev := m.NewEvaluator(GreedyFirstAvailable)
	defer ev.Close()
	good := append([]int(nil), m.DefaultOrder()...)
	want, _, err := ev.Evaluate(context.Background(), good, 0)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]int{
		"short":        good[:len(good)-1],
		"out-of-range": append(append([]int(nil), good[1:]...), len(good)),
		"repeat":       append(append([]int(nil), good[1:]...), good[1]),
	}
	for name, bad := range cases {
		if _, _, err := ev.Evaluate(context.Background(), bad, 0); err == nil {
			t.Errorf("%s order accepted", name)
		} else if strings.Contains(err.Error(), "panic") {
			t.Errorf("%s order: %v", name, err)
		}
	}
	got, _, err := ev.Evaluate(context.Background(), good, 0)
	if err != nil {
		t.Fatalf("good order after rejections: %v", err)
	}
	if got != want {
		t.Errorf("makespan drifted after rejected orders: %d != %d", got, want)
	}
}

// TestMakespanAllocsZero is the allocation regression test on the
// search hot path: once the model's pooled scratch is warm, a full
// Makespan replay must not allocate — the epoch-tagged reset never
// clears or reallocates per-pass state.
func TestMakespanAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	for _, opts := range []Options{
		{PowerLimitFraction: 0.5},
		{ExclusiveLinks: true, PowerLimitFraction: 0.5},
		// The segmented path must stay allocation-free too: chain starts
		// live in swapped scratch buffers, never per-pass slices.
		{PowerLimitFraction: 0.5, MaxSegments: 4, ResumeCycles: 20},
	} {
		sys := buildSystem(t, "p22810", 8, soc.Leon())
		m, err := Compile(sys, opts)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		order := m.DefaultOrder()
		for i := 0; i < 3; i++ { // warm the pool and every growable buffer
			if _, err := m.Makespan(ctx, LookaheadFastestFinish, order); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := m.Makespan(ctx, LookaheadFastestFinish, order); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("opts %+v: Makespan allocates %.1f times per pass, want 0", opts, allocs)
		}
	}
}

// TestEvaluatorAllocsZero extends the allocation regression to the
// incremental kernel: once checkpoints and the link journal are warm,
// evaluations allocate nothing — deep tail swaps replayed unbounded,
// and window swaps marching across the middle of the order under a
// periodic tight bound, whose aborts are answered both mid-replay and
// from the reused prefix alone — on plain, link-exclusive and
// preemptive regimes.
func TestEvaluatorAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	for _, opts := range []Options{
		{PowerLimitFraction: 0.5},
		{PowerLimitFraction: 0.5, ExclusiveLinks: true},
		// Segment chains journal several reservations per position; once
		// the flat journal's capacity is warm, rewinds must be free.
		{PowerLimitFraction: 0.5, MaxSegments: 4, ResumeCycles: 20},
		{PowerLimitFraction: 0.5, ExclusiveLinks: true, MaxSegments: 4, ResumeCycles: 20},
	} {
		sys := buildSystem(t, "p22810", 8, soc.Leon())
		m, err := Compile(sys, opts)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for _, moves := range []string{"tail", "window"} {
			ev := m.NewEvaluator(LookaheadFastestFinish)
			order := append([]int(nil), m.DefaultOrder()...)
			n := len(order)
			ms, _, err := ev.Evaluate(ctx, order, 0)
			if err != nil {
				t.Fatal(err)
			}
			step := 0
			move := func() (bound int) {
				if moves == "tail" {
					order[n-2], order[n-7] = order[n-7], order[n-2]
					return 0
				}
				p := 3 + step%5
				order[p], order[p+1] = order[p+1], order[p]
				if step%3 == 2 {
					bound = ms - 1
				}
				step++
				return bound
			}
			for i := 0; i < 8; i++ { // warm every checkpoint and the journal
				if _, _, err := ev.Evaluate(ctx, order, move()); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(100, func() {
				if _, _, err := ev.Evaluate(ctx, order, move()); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("opts %+v, %s moves: Evaluate allocates %.1f times per pass, want 0", opts, moves, allocs)
			}
			ev.Close()
		}
	}
}

// TestSearchStatsAccumulate checks the telemetry the benchmark's
// core.search.* metrics report: evaluations count orders, prefix reuse
// lands in the replayed counter, pruning is visible, and a failed pass
// keeps the placements it made.
func TestSearchStatsAccumulate(t *testing.T) {
	sys := buildSystem(t, "d695", 6, soc.Leon())
	m, err := Compile(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ev := m.NewEvaluator(LookaheadFastestFinish)
	defer ev.Close()
	order := append([]int(nil), m.DefaultOrder()...)
	n := len(order)

	ms, _, err := ev.Evaluate(ctx, order, 0)
	if err != nil {
		t.Fatal(err)
	}
	order[n-1], order[n-2] = order[n-2], order[n-1]
	if _, _, err := ev.Evaluate(ctx, order, 0); err != nil {
		t.Fatal(err)
	}
	order[0], order[1] = order[1], order[0]
	if _, pruned, err := ev.Evaluate(ctx, order, ms/4); err != nil && !pruned {
		t.Logf("quarter-bound evaluation: pruned=%v err=%v", pruned, err)
	}

	st := m.SearchStats()
	if st.Orders < 3 {
		t.Errorf("orders %d, want >= 3", st.Orders)
	}
	if st.Replayed < uint64(n-2) {
		t.Errorf("replayed %d placements from checkpoints, want >= %d for a tail swap", st.Replayed, n-2)
	}

	// DeltaHits counts the answers that place nothing: a resubmitted
	// order, and an order whose reused prefix already crosses the bound.
	if _, _, err := ev.Evaluate(ctx, order, 0); err != nil {
		t.Fatal(err)
	}
	before := m.SearchStats()
	if got, _, err := ev.Evaluate(ctx, order, 0); err != nil || got == 0 {
		t.Fatalf("resubmitted order: ms %d, err %v", got, err)
	}
	order[n-1], order[n-2] = order[n-2], order[n-1]
	if _, pruned, err := ev.Evaluate(ctx, order, 1); err != nil || !pruned {
		t.Fatalf("prefix over a bound of 1: pruned %v, err %v", pruned, err)
	}
	d := m.SearchStats().Sub(before)
	if d.DeltaHits != 2 || d.Placed != 0 {
		t.Errorf("zero-placement answers: delta hits %d, placed %d; want 2 and 0", d.DeltaHits, d.Placed)
	}

	// A failed pass still counts the placements it made: an order that
	// repeats a core at position 2 places positions 0 and 1, then fails.
	bad := append([]int(nil), m.DefaultOrder()...)
	bad[2] = bad[0]
	before = m.SearchStats()
	if _, err := m.Makespan(ctx, LookaheadFastestFinish, bad); err == nil {
		t.Fatal("order repeating a core accepted")
	}
	if d := m.SearchStats().Sub(before); d.Orders != 1 || d.Placed != 2 {
		t.Errorf("failed pass: orders %d, placed %d; want 1 and 2", d.Orders, d.Placed)
	}
}
