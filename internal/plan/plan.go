// Package plan defines the artifact the test planner produces: a set of
// per-core test reservations with their interfaces, NoC paths, timing
// and power, plus validation of the scheduling invariants, metrics, and
// renderings (Gantt chart, CSV, JSON).
package plan

import (
	"fmt"
	"sort"
	"strings"

	"noctest/internal/noc"
	"noctest/internal/power"
)

// InterfaceKind distinguishes the external tester from a reused
// embedded processor.
type InterfaceKind int

// Interface kinds.
const (
	ATE InterfaceKind = iota
	Processor
)

// String returns "ate" or "processor".
func (k InterfaceKind) String() string {
	if k == ATE {
		return "ate"
	}
	return "processor"
}

// Entry is one scheduled test segment: a contiguous run of a core's
// patterns placed on one interface. Non-preemptive plans hold exactly
// one entry per core (Segments 1, or 0 in legacy records); preemptive
// plans hold one entry per segment, all on the same interface, with
// segment k ending before segment k+1 starts.
type Entry struct {
	// CoreID and CoreName identify the core under test.
	CoreID   int
	CoreName string
	// IsProcessor marks the self-test of an embedded processor.
	IsProcessor bool
	// Interface names the test source/sink serving this test.
	Interface string
	// InterfaceKind tells whether the interface is the tester or a
	// reused processor.
	InterfaceKind InterfaceKind
	// InterfaceCoreID is the core ID of the serving processor, or 0 for
	// the ATE.
	InterfaceCoreID int
	// Segment is this entry's 0-based index in its core's segment
	// chain; Segments is the chain length. Zero Segments marks a legacy
	// unsegmented record and is treated as a chain of one.
	Segment, Segments int
	// Start and End delimit the reservation, in cycles, half-open.
	Start, End int
	// Setup is the path-establishment share of the duration: the
	// transport setup of this segment, plus the test's one-time setup
	// on segment 0 or the resume cost on later segments.
	Setup int
	// Patterns and PerPattern decompose the streaming share:
	// End-Start == Setup + Patterns*PerPattern. Patterns counts this
	// segment's share of the core's patterns.
	Patterns   int
	PerPattern int
	// PathIn is the stimulus route (source tile to core tile); PathOut
	// is the response route (core tile to sink tile).
	PathIn, PathOut []noc.Coord
	// Power is the total additional draw while the test runs: core test
	// power + NoC transport power + processor power when applicable.
	Power float64
}

// Duration returns the reservation length in cycles.
func (e Entry) Duration() int { return e.End - e.Start }

// segments normalises the chain length: legacy unsegmented records
// (Segments 0) are chains of one.
func (e Entry) segments() int {
	if e.Segments < 1 {
		return 1
	}
	return e.Segments
}

// Plan is a complete test schedule for one system.
type Plan struct {
	// System names the scheduled system (e.g. "d695_leon").
	System string
	// Algorithm records the scheduling variant that produced the plan.
	Algorithm string
	// PowerLimit is the ceiling the plan was built under; 0 means
	// unconstrained.
	PowerLimit float64
	// ExclusiveLinks records whether the plan was built with
	// circuit-switched (link-exclusive) transport; when set, Validate
	// rejects concurrent tests sharing a directed link.
	ExclusiveLinks bool
	// Notes records scheduler observations that do not invalidate the
	// plan but that a consumer should see — e.g. tester ports that
	// could not be paired into an ATE interface and went unused.
	Notes []string
	// Entries holds one reservation per core, in start order.
	Entries []Entry
}

// Best returns the plan with the smallest makespan, skipping nils; ties
// keep the earliest argument, so a fixed candidate order gives a fixed
// winner. It returns nil when every argument is nil.
func Best(plans ...*Plan) *Plan {
	var best *Plan
	for _, p := range plans {
		if p == nil {
			continue
		}
		if best == nil || p.Makespan() < best.Makespan() {
			best = p
		}
	}
	return best
}

// Makespan returns the total test time: the latest entry end.
func (p *Plan) Makespan() int {
	m := 0
	for _, e := range p.Entries {
		if e.End > m {
			m = e.End
		}
	}
	return m
}

// EntryFor returns the entry testing the given core; in a preemptive
// plan, the core's first entry in plan order. Use SegmentsFor for the
// whole chain.
func (p *Plan) EntryFor(coreID int) (Entry, bool) {
	for _, e := range p.Entries {
		if e.CoreID == coreID {
			return e, true
		}
	}
	return Entry{}, false
}

// SegmentsFor returns every entry of the given core's segment chain,
// ordered by segment index; nil when the core is not in the plan.
func (p *Plan) SegmentsFor(coreID int) []Entry {
	var out []Entry
	for _, e := range p.Entries {
		if e.CoreID == coreID {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Segment < out[j].Segment })
	return out
}

// ByStart returns the entries sorted by start time (then core ID). The
// sort is stable, so a slice already in that order comes back unchanged.
func (p *Plan) ByStart() []Entry {
	out := make([]Entry, len(p.Entries))
	copy(out, p.Entries)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].CoreID < out[j].CoreID
	})
	return out
}

// Interfaces lists the interface names used by the plan, ATE first,
// then by first use.
func (p *Plan) Interfaces() []string {
	seen := make(map[string]bool)
	var names []string
	for _, e := range p.ByStart() {
		if !seen[e.Interface] {
			seen[e.Interface] = true
			names = append(names, e.Interface)
		}
	}
	sort.SliceStable(names, func(i, j int) bool {
		ai, aj := strings.HasPrefix(names[i], "ate"), strings.HasPrefix(names[j], "ate")
		if ai != aj {
			return ai
		}
		return false
	})
	return names
}

// Utilization returns, per interface, the fraction of the makespan the
// interface spends testing.
func (p *Plan) Utilization() map[string]float64 {
	total := p.Makespan()
	util := make(map[string]float64)
	if total == 0 {
		return util
	}
	for _, e := range p.Entries {
		util[e.Interface] += float64(e.Duration()) / float64(total)
	}
	return util
}

// PeakPower recomputes the maximum concurrent draw from the entries.
func (p *Plan) PeakPower() float64 { return peakPower(p.Entries) }

// peakPower is the maximum concurrent draw of entries. Loads are summed
// in slice order, so the last bit of the result can depend on it.
func peakPower(entries []Entry) float64 {
	t := power.NewTracker(0)
	for _, e := range entries {
		// Reservations were feasible when created; an unlimited tracker
		// cannot fail.
		if err := t.Add(e.Start, e.End, e.Power); err != nil {
			panic(fmt.Sprintf("plan: corrupt entry %d: %v", e.CoreID, err))
		}
	}
	return t.Peak()
}

// PowerProfile renders the plan's power-over-time steps.
func (p *Plan) PowerProfile() []power.Sample {
	t := power.NewTracker(0)
	for _, e := range p.Entries {
		if err := t.Add(e.Start, e.End, e.Power); err != nil {
			panic(fmt.Sprintf("plan: corrupt entry %d: %v", e.CoreID, err))
		}
	}
	return t.Profile()
}

// Validate checks every scheduling invariant a correct plan must hold:
//
//   - every entry is internally consistent (times, decomposition, paths)
//   - no core segment is scheduled twice, and each core's segments form
//     a complete chain: indices 0..Segments-1, a consistent Segments
//     count, all on one interface
//   - segment precedence: segment k ends before segment k+1 starts
//     (the chain's windows never overlap)
//   - no interface runs two tests at once
//   - no directed NoC link carries two concurrent tests
//   - a processor serves as interface only after its whole self-test —
//     every segment — ends
//   - the power ceiling (when set) is never exceeded
func (p *Plan) Validate() error {
	if len(p.Entries) == 0 {
		return fmt.Errorf("plan: no entries")
	}
	type segKey struct{ core, seg int }
	segSeen := make(map[segKey]bool)
	chains := make(map[int][]Entry) // core id -> its segment entries
	ifaceBusy := make(map[string][][2]int)
	linkBusy := make(map[noc.Link][]busySpan)
	procTestEnd := make(map[int]int) // processor core id -> last self-test segment end

	for _, e := range p.Entries {
		if err := validateEntry(e); err != nil {
			return err
		}
		if segSeen[segKey{e.CoreID, e.Segment}] {
			if e.segments() == 1 && e.Segment == 0 {
				return fmt.Errorf("plan: core %d tested twice", e.CoreID)
			}
			return fmt.Errorf("plan: core %d segment %d scheduled twice", e.CoreID, e.Segment)
		}
		segSeen[segKey{e.CoreID, e.Segment}] = true
		chains[e.CoreID] = append(chains[e.CoreID], e)
		if e.IsProcessor && e.End > procTestEnd[e.CoreID] {
			procTestEnd[e.CoreID] = e.End
		}
	}

	for coreID, segs := range chains {
		want := segs[0].segments()
		for _, e := range segs {
			if e.segments() != want {
				return fmt.Errorf("plan: core %d entries disagree on segment count (%d vs %d)",
					coreID, e.segments(), want)
			}
			if e.Segment < 0 || e.Segment >= want {
				return fmt.Errorf("plan: core %d segment index %d outside chain of %d", coreID, e.Segment, want)
			}
			if e.Interface != segs[0].Interface || e.InterfaceKind != segs[0].InterfaceKind {
				return fmt.Errorf("plan: core %d segments migrate interfaces (%s vs %s)",
					coreID, e.Interface, segs[0].Interface)
			}
		}
		if len(segs) != want {
			return fmt.Errorf("plan: core %d has %d of %d segments", coreID, len(segs), want)
		}
		// The dedup above makes the indices distinct and in range, so
		// sorting by index lines the chain up for the precedence check.
		sort.Slice(segs, func(i, j int) bool { return segs[i].Segment < segs[j].Segment })
		for k := 1; k < len(segs); k++ {
			if segs[k].Start < segs[k-1].End {
				return fmt.Errorf("plan: core %d segment %d starts at %d before segment %d ends at %d",
					coreID, k, segs[k].Start, k-1, segs[k-1].End)
			}
		}
	}

	for _, e := range p.Entries {
		for _, span := range ifaceBusy[e.Interface] {
			if overlaps(e.Start, e.End, span[0], span[1]) {
				return fmt.Errorf("plan: interface %s runs two tests at once ([%d,%d) vs [%d,%d))",
					e.Interface, e.Start, e.End, span[0], span[1])
			}
		}
		ifaceBusy[e.Interface] = append(ifaceBusy[e.Interface], [2]int{e.Start, e.End})

		if e.InterfaceKind == Processor {
			end, ok := procTestEnd[e.InterfaceCoreID]
			if !ok {
				return fmt.Errorf("plan: core %d tested by processor core %d which has no self-test entry",
					e.CoreID, e.InterfaceCoreID)
			}
			if e.Start < end {
				return fmt.Errorf("plan: core %d test starts at %d on processor core %d still under test until %d",
					e.CoreID, e.Start, e.InterfaceCoreID, end)
			}
		}

		if p.ExclusiveLinks {
			for _, l := range append(noc.PathLinks(e.PathIn), noc.PathLinks(e.PathOut)...) {
				for _, span := range linkBusy[l] {
					if span.core != e.CoreID && overlaps(e.Start, e.End, span.start, span.end) {
						return fmt.Errorf("plan: link %v shared by cores %d and %d concurrently",
							l, span.core, e.CoreID)
					}
				}
				linkBusy[l] = append(linkBusy[l], busySpan{e.Start, e.End, e.CoreID})
			}
		}
	}

	if p.PowerLimit > 0 {
		if peak := p.PeakPower(); peak > p.PowerLimit+1e-9 {
			return fmt.Errorf("plan: peak power %.1f exceeds limit %.1f", peak, p.PowerLimit)
		}
	}
	return nil
}

type busySpan struct {
	start, end int
	core       int
}

func validateEntry(e Entry) error {
	if e.End <= e.Start {
		return fmt.Errorf("plan: core %d has empty reservation [%d,%d)", e.CoreID, e.Start, e.End)
	}
	if e.Start < 0 {
		return fmt.Errorf("plan: core %d starts before time zero", e.CoreID)
	}
	if e.Patterns <= 0 || e.PerPattern <= 0 {
		return fmt.Errorf("plan: core %d has degenerate pattern decomposition %dx%d", e.CoreID, e.Patterns, e.PerPattern)
	}
	if e.Duration() != e.Setup+e.Patterns*e.PerPattern {
		return fmt.Errorf("plan: core %d duration %d != setup %d + %d patterns * %d",
			e.CoreID, e.Duration(), e.Setup, e.Patterns, e.PerPattern)
	}
	if len(e.PathIn) == 0 || len(e.PathOut) == 0 {
		return fmt.Errorf("plan: core %d missing paths", e.CoreID)
	}
	if e.PathIn[len(e.PathIn)-1] != e.PathOut[0] {
		return fmt.Errorf("plan: core %d stimulus path ends at %v but response path starts at %v",
			e.CoreID, e.PathIn[len(e.PathIn)-1], e.PathOut[0])
	}
	if e.Power < 0 {
		return fmt.Errorf("plan: core %d has negative power", e.CoreID)
	}
	return nil
}

func overlaps(aStart, aEnd, bStart, bEnd int) bool {
	return aStart < bEnd && bStart < aEnd
}
