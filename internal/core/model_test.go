package core

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"noctest/internal/itc02"
	"noctest/internal/noc"
	"noctest/internal/soc"
)

// oddPortSystem builds a 2x2 system whose tester ports cannot all be
// paired: two inputs, one output.
func oddPortSystem(t *testing.T) *soc.System {
	t.Helper()
	net, err := noc.NewCharacterization(noc.MustMesh(2, 2), noc.XY{}, noc.DefaultTiming, noc.DefaultTransportPower)
	if err != nil {
		t.Fatal(err)
	}
	sys := &soc.System{
		Name: "oddports",
		Net:  net,
		Cores: []soc.PlacedCore{
			{Core: itc02.Core{ID: 1, Name: "a", Inputs: 32, Outputs: 32, Patterns: 20, Power: 100}, Tile: noc.Coord{X: 1, Y: 1}},
			{Core: itc02.Core{ID: 2, Name: "b", Inputs: 32, Outputs: 32, Patterns: 20, Power: 100}, Tile: noc.Coord{X: 0, Y: 1}},
		},
		Ports: []soc.Port{
			{Name: "in0", Tile: noc.Coord{X: 0, Y: 0}, Dir: soc.In},
			{Name: "in1", Tile: noc.Coord{X: 1, Y: 0}, Dir: soc.In},
			{Name: "out0", Tile: noc.Coord{X: 1, Y: 0}, Dir: soc.Out},
		},
	}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestCompileRecordsUnpairedPorts checks that ports beyond the pairable
// count are no longer silently discarded: the model and every plan it
// produces record them.
func TestCompileRecordsUnpairedPorts(t *testing.T) {
	sys := oddPortSystem(t)
	m, err := Compile(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	notes := m.Notes()
	if len(notes) != 2 {
		t.Fatalf("got %d notes, want fabric + unpaired ports: %v", len(notes), notes)
	}
	if !strings.Contains(notes[0], "fabric: mesh") || !strings.Contains(notes[0], "routing xy") {
		t.Errorf("first note does not record the fabric: %q", notes[0])
	}
	if !strings.Contains(notes[1], "in1") || !strings.Contains(notes[1], "unpaired") {
		t.Errorf("note does not name the dropped port: %q", notes[1])
	}

	p, err := Schedule(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Notes) != 2 || !strings.Contains(p.Notes[1], "in1") {
		t.Errorf("plan does not carry the dropped-port note: %v", p.Notes)
	}
	if !strings.Contains(p.Summary(), "in1") {
		t.Errorf("summary does not surface the note:\n%s", p.Summary())
	}
	if !strings.Contains(p.Summary(), "fabric: mesh") {
		t.Errorf("summary does not name the fabric:\n%s", p.Summary())
	}

	// A balanced system records only the fabric note.
	balanced := buildSystem(t, "d695", 6, soc.Leon())
	mb, err := Compile(balanced, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := mb.Notes(); len(n) != 1 || !strings.Contains(n[0], "fabric: mesh 4x4") {
		t.Errorf("balanced system notes = %v, want just the fabric record", n)
	}
}

// TestScheduleMatchesModelPlan checks the single-pass wrapper and a
// hand-driven model pass produce identical plans, across variants,
// priorities, applications and link modes.
func TestScheduleMatchesModelPlan(t *testing.T) {
	sys := buildSystem(t, "d695", 6, soc.Leon())
	cases := []Options{
		{},
		{Variant: LookaheadFastestFinish, Priority: LongestTestFirst},
		{PowerLimitFraction: 0.5, BISTPatternFactor: 3},
		{ExclusiveLinks: true, Priority: DistanceOnly},
		{Application: DecompressionApplication, PowerLimitFraction: 0.6},
		{WrapperChains: 4, Variant: LookaheadFastestFinish},
	}
	for _, opts := range cases {
		direct := mustSchedule(t, sys, opts)
		m, err := Compile(sys, opts)
		if err != nil {
			t.Fatal(err)
		}
		o := m.Options()
		replay, err := m.Plan(context.Background(), o.Variant, m.DefaultOrder(), direct.Algorithm)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(direct.Entries, replay.Entries) {
			t.Errorf("opts %+v: Schedule and model replay disagree", opts)
		}
	}
}

// TestModelSharedAcrossGoroutines hammers one compiled model from many
// goroutines and checks every result matches the single-threaded plan —
// the scratch pool must fully isolate concurrent passes.
func TestModelSharedAcrossGoroutines(t *testing.T) {
	sys := buildSystem(t, "p22810", 8, soc.Leon())
	m, err := Compile(sys, Options{PowerLimitFraction: 0.5, BISTPatternFactor: 3})
	if err != nil {
		t.Fatal(err)
	}
	sched := ListScheduler{LookaheadFastestFinish, ProcessorsFirst}
	want, err := searchPlan(context.Background(), sched, m)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	plansEqual := make([]bool, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				p, err := searchPlan(context.Background(), sched, m)
				if err != nil {
					errs[g] = err
					return
				}
				if !reflect.DeepEqual(p.Entries, want.Entries) {
					return // plansEqual[g] stays false
				}
			}
			plansEqual[g] = true
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if !plansEqual[g] {
			t.Errorf("goroutine %d produced a divergent plan", g)
		}
	}
}

// TestModelRejectsBadOrders checks malformed explicit orders fail
// loudly instead of producing invalid plans.
func TestModelRejectsBadOrders(t *testing.T) {
	sys := tinySystem(t)
	m, err := Compile(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	n := len(sys.Cores)
	if _, err := m.Makespan(ctx, GreedyFirstAvailable, make([]int, n-1)); err == nil {
		t.Error("short order accepted")
	}
	dup := make([]int, n)
	for i := range dup {
		dup[i] = 0
	}
	if _, err := m.Makespan(ctx, GreedyFirstAvailable, dup); err == nil {
		t.Error("repeating order accepted")
	}
	oob := []int{0, 1, n + 7}
	if _, err := m.Makespan(ctx, GreedyFirstAvailable, oob); err == nil {
		t.Error("out-of-range order accepted")
	}
}

// TestModelOrderCaches checks the cached priority orders agree with the
// reference ordering function.
func TestModelOrderCaches(t *testing.T) {
	sys := buildSystem(t, "p93791", 8, soc.Leon())
	opts := Options{}
	m, err := Compile(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	for p := Priority(0); p < priorityCount; p++ {
		want := orderCores(sys, Options{Priority: p}, reusedSet(sys, opts))
		got := m.Order(p)
		if len(got) != len(want) {
			t.Fatalf("priority %s: %d indices for %d cores", p, len(got), len(want))
		}
		for i, ci := range got {
			if sys.Cores[ci].Core.ID != want[i].Core.ID {
				t.Fatalf("priority %s: position %d is core %d, want %d", p, i, sys.Cores[ci].Core.ID, want[i].Core.ID)
			}
		}
	}
}
