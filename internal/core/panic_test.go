package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"noctest/internal/soc"
)

// panickingScheduler blows up mid-search: the portfolio must contain
// the blast at the strategy boundary.
type panickingScheduler struct{}

func (panickingScheduler) Name() string { return "test.panic" }
func (panickingScheduler) Search(ctx context.Context, m *Model, inc *Incumbent) (Candidate, error) {
	panic("injected strategy panic")
}

// TestPortfolioPanicIsolation checks that a panicking strategy degrades
// the race to its survivors: the run completes, the winner matches the
// panic-free run bit for bit, and the panic surfaces as a *PanicError
// in the strategy's result with its stack attached.
func TestPortfolioPanicIsolation(t *testing.T) {
	sys := buildSystem(t, "d695", 6, soc.Leon())
	opts := Options{PowerLimitFraction: 0.5, BISTPatternFactor: 3}

	clean := smallPortfolio(1)
	want, err := clean.ScheduleBest(context.Background(), sys, opts)
	if err != nil {
		t.Fatal(err)
	}

	poisoned := smallPortfolio(1)
	poisoned.Schedulers = append(poisoned.Schedulers, panickingScheduler{})
	got, err := poisoned.ScheduleBest(context.Background(), sys, opts)
	if err != nil {
		t.Fatalf("race with a panicking member failed outright: %v", err)
	}
	if got.Best != want.Best || !reflect.DeepEqual(got.Plan.Entries, want.Plan.Entries) {
		t.Error("survivors' result changed because a sibling panicked")
	}
	if n := got.Panics(); n != 1 {
		t.Fatalf("Panics() = %d, want 1", n)
	}
	var pe *PanicError
	found := false
	for _, r := range got.Results {
		if errors.As(r.Err, &pe) {
			found = true
			if pe.Scheduler != "test.panic" {
				t.Errorf("PanicError.Scheduler = %q", pe.Scheduler)
			}
			if pe.Value != "injected strategy panic" {
				t.Errorf("PanicError.Value = %v", pe.Value)
			}
			if !strings.Contains(pe.Stack, "panic_test.go") {
				t.Error("PanicError.Stack does not reach the panic site")
			}
			if r.Makespan != 0 {
				t.Errorf("panicked strategy reported makespan %d", r.Makespan)
			}
		}
	}
	if !found {
		t.Fatal("no result carries a *PanicError")
	}
}

// TestPortfolioAllPanic checks the all-members-panic corner: the run
// returns an error — not a panic, not a nil-plan result.
func TestPortfolioAllPanic(t *testing.T) {
	sys := buildSystem(t, "d695", 6, soc.Leon())
	pf := Portfolio{Schedulers: []Scheduler{panickingScheduler{}, panickingScheduler{}}}
	res, err := pf.ScheduleBest(context.Background(), sys, Options{})
	if err == nil {
		t.Fatalf("all-panic race succeeded: %+v", res)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Errorf("error %v does not unwrap to *PanicError", err)
	}
}
