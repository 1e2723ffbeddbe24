// Package core implements the paper's contribution: a software-based
// test planner for NoC-based systems that reuses embedded processors as
// test sources and sinks alongside the external tester, with the on-chip
// network as the test access mechanism.
//
// The planner is a greedy list scheduler. Cores are ordered by priority
// — by default, processors first (they unlock further interfaces), then
// cores closer to a test interface, as the paper describes: "The cores
// closer to IO ports or processors are tested first." Each core is then
// assigned the first test interface that becomes available, subject to
// three resource constraints: interface exclusivity, exclusive
// reservation of the directed NoC links on its stimulus and response
// paths, and an optional power ceiling defined as a fraction of the sum
// of all cores' test power.
//
// The paper observes that the first-available rule is what makes the
// p22810 results irregular: a processor free now beats a faster external
// tester free slightly later, even though the processor pays 10 cycles
// of software pattern generation per pattern where the tester pays none.
// The LookaheadFastestFinish variant repairs exactly that decision and
// is used as the ablation baseline.
//
// The engine is split compile-once/search-many: Compile builds an
// immutable Model of one (system, options) pair — routes, dense link
// IDs, per-(core, interface) candidate records — and every scheduling
// pass replays a core order against pooled scratch state. The search
// strategies in this package (see Scheduler) evaluate thousands of
// orders on one shared model; Schedule below is the single-pass
// convenience wrapper.
package core

import (
	"context"
	"fmt"
	"sort"

	"noctest/internal/itc02"
	"noctest/internal/noc"
	"noctest/internal/plan"
	"noctest/internal/soc"
)

// Variant selects the interface-choice rule.
type Variant int

// Scheduling variants.
const (
	// GreedyFirstAvailable is the paper's rule: take the interface with
	// the earliest feasible start time.
	GreedyFirstAvailable Variant = iota
	// LookaheadFastestFinish takes the interface with the earliest
	// feasible completion time instead, avoiding the paper's greedy
	// anomaly.
	LookaheadFastestFinish
)

// String names the variant for plan records.
func (v Variant) String() string {
	switch v {
	case GreedyFirstAvailable:
		return "greedy-first-available"
	case LookaheadFastestFinish:
		return "lookahead-fastest-finish"
	}
	return fmt.Sprintf("variant(%d)", int(v))
}

// Priority selects the core ordering rule.
type Priority int

// Priority rules.
const (
	// ProcessorsFirst is the default: reused processors are tested
	// first so interfaces come online as early as possible, then the
	// remaining cores follow the paper's position rule ("cores closer
	// to IO ports or processors are tested first"). Commissioning the
	// processors early is what lets them be reused at all; a complex
	// processor still pays its large self-test before helping, the
	// effect the paper notes ("may be reused for test few times").
	ProcessorsFirst Priority = iota
	// DistanceOnly applies the paper's position rule literally to every
	// core including the processors. Processors parked far from the
	// tester are then commissioned very late and barely reused; kept as
	// an ablation of the ordering decision.
	DistanceOnly
	// VolumeDescending orders by decreasing test data volume, the
	// classic TAM-scheduling heuristic, as an ablation.
	VolumeDescending
	// LongestTestFirst orders by decreasing standalone test length —
	// patterns times the per-pattern streaming bits — the critical-path
	// rule: the test that dominates the makespan is placed while every
	// interface is still free.
	LongestTestFirst

	// priorityCount counts the rules above; a compiled Model caches one
	// core ordering per rule. Keep it directly after the last rule so
	// adding a Priority updates it automatically.
	priorityCount
)

// String names the priority rule.
func (p Priority) String() string {
	switch p {
	case DistanceOnly:
		return "distance"
	case ProcessorsFirst:
		return "processors-first"
	case VolumeDescending:
		return "volume-descending"
	case LongestTestFirst:
		return "longest-test-first"
	}
	return fmt.Sprintf("priority(%d)", int(p))
}

// TestApplication selects the software test application the reused
// processors run.
type TestApplication int

// Test applications.
const (
	// BISTApplication is the paper's evaluated mode: the processor
	// generates pseudo-random patterns in software (10 cycles per
	// pattern in the paper; ~10.5-11 measured on the ISS kernels).
	BISTApplication TestApplication = iota
	// DecompressionApplication is the paper's announced follow-up mode:
	// the processor reads tdc-compressed deterministic test data from
	// its memory, decompresses it and streams it to the CUT. Patterns
	// are the core's deterministic set (no BIST inflation), but each
	// stimulus word costs DecompressionCyclesPerWord to produce and the
	// compressed data must first be loaded from the tester port into
	// the processor's buffer, which is charged to the test's setup.
	DecompressionApplication
)

// String names the application for plan records.
func (a TestApplication) String() string {
	switch a {
	case BISTApplication:
		return "bist"
	case DecompressionApplication:
		return "decompression"
	}
	return fmt.Sprintf("application(%d)", int(a))
}

// Options configures a scheduling run. The zero value reproduces the
// paper's unconstrained greedy planner with every processor reused.
type Options struct {
	// PowerLimitFraction, when positive, caps concurrent power at this
	// fraction of the sum of all cores' test power (the paper's "50%
	// power limit" is 0.5).
	PowerLimitFraction float64
	// PowerLimit, when positive, sets an absolute ceiling instead;
	// it overrides PowerLimitFraction.
	PowerLimit float64
	// DisableReuse turns processor reuse off entirely: processors are
	// tested as ordinary cores and only the external tester serves as
	// interface. This is the paper's "noproc" configuration — the
	// system still contains the processor cores, they just do not help.
	DisableReuse bool
	// MaxReusedProcessors, when positive, reuses only the first N
	// processors (by core ID); the paper's figure sweeps this from 2 up
	// to the processor count. Zero reuses all.
	MaxReusedProcessors int
	// Variant selects the interface-choice rule.
	Variant Variant
	// Priority selects the core ordering.
	Priority Priority
	// CaptureCycles is the per-pattern capture/apply cost at the core;
	// zero selects 1.
	CaptureCycles int
	// ATECyclesPerPattern models tester-side pattern cost; the paper
	// assumes 0.
	ATECyclesPerPattern int
	// BISTPatternFactor scales the pattern count of processor-driven
	// tests, modelling the coverage gap between the software BIST's
	// pseudo-random patterns and the deterministic patterns the
	// external tester applies. Zero or 1 means parity (the paper's
	// stated assumption); values above 1 make processor reuse costlier
	// per core and sharpen the greedy anomaly.
	BISTPatternFactor float64
	// ExclusiveLinks reserves every directed NoC link on a test's paths
	// for the whole test, modelling circuit-switched delivery. The
	// default (false) models the paper's packet-switched transport,
	// where test streams interleave on shared links and only the
	// interfaces themselves are exclusive.
	ExclusiveLinks bool
	// Application selects the processors' software test application;
	// the default is the paper's BIST mode.
	Application TestApplication
	// DecompressionCyclesPerWord is the software cost of producing one
	// decompressed stimulus word; zero selects 7, the ISS-measured
	// figure (package bist). Only used by DecompressionApplication.
	DecompressionCyclesPerWord int
	// CompressionRatio is compressed/raw test data volume; zero selects
	// 0.2, conservative for the fill-heavy synthetic sets (package tdc
	// measures ~0.14). Only used by DecompressionApplication.
	CompressionRatio float64
	// ProcessorBufferWords is the on-chip buffer for compressed data;
	// larger test sets are loaded in chunks, each paying the transfer
	// path setup again. Zero selects 8192 words.
	ProcessorBufferWords int
	// WrapperChains, when positive, bounds every pattern by the
	// core-side wrapper shift time of a Best-Fit-Decreasing wrapper of
	// that width (package wrapper): a narrow wrapper can make the core,
	// not the NoC, the per-pattern bottleneck. Zero keeps the paper's
	// transport-limited model.
	WrapperChains int
	// MaxSegments, when above 1, makes scheduling preemptive: every
	// test is split at pattern boundaries into at most this many
	// segments (package wrapper's SegmentPatterns policy), each placed
	// as its own reservation on the test's interface with segment k
	// always ending before segment k+1 starts. The first segment pays
	// the test's one-time setup (e.g. the decompression load); every
	// resumption pays the path setup again plus ResumeCycles. Zero or
	// one keeps tests atomic and is guaranteed bit-identical to the
	// non-preemptive engine (internal/verify's single-segment-identity
	// oracle enforces this on every sweep scenario).
	MaxSegments int
	// MinSegmentPatterns floors the segment length in patterns, so
	// MaxSegments never shreds a short test into setup-dominated
	// slivers. Zero selects 1 (any split the pattern count allows).
	MinSegmentPatterns int
	// ResumeCycles is the extra cost, beyond re-establishing the
	// transport path, of resuming a preempted test: re-synchronising
	// the wrapper and (for processor interfaces) restoring the software
	// test application's state. Charged to every segment after the
	// first. Zero models a free context switch.
	ResumeCycles int
}

func (o Options) withDefaults() Options {
	if o.CaptureCycles == 0 {
		o.CaptureCycles = 1
	}
	if o.BISTPatternFactor == 0 {
		o.BISTPatternFactor = 1
	}
	if o.DecompressionCyclesPerWord == 0 {
		o.DecompressionCyclesPerWord = 7
	}
	if o.CompressionRatio == 0 {
		o.CompressionRatio = 0.2
	}
	if o.ProcessorBufferWords == 0 {
		o.ProcessorBufferWords = 8192
	}
	if o.MinSegmentPatterns == 0 {
		o.MinSegmentPatterns = 1
	}
	return o
}

// Validate reports option inconsistencies.
func (o Options) Validate() error {
	if o.PowerLimitFraction < 0 || o.PowerLimitFraction > 1 {
		return fmt.Errorf("core: power limit fraction %g outside [0,1]", o.PowerLimitFraction)
	}
	if o.PowerLimit < 0 {
		return fmt.Errorf("core: negative absolute power limit %g", o.PowerLimit)
	}
	if o.CaptureCycles < 0 {
		return fmt.Errorf("core: negative capture cycles %d", o.CaptureCycles)
	}
	if o.ATECyclesPerPattern < 0 {
		return fmt.Errorf("core: negative ATE cycles per pattern %d", o.ATECyclesPerPattern)
	}
	if o.MaxReusedProcessors < 0 {
		return fmt.Errorf("core: negative reused processor count %d", o.MaxReusedProcessors)
	}
	if o.BISTPatternFactor < 0 || (o.BISTPatternFactor > 0 && o.BISTPatternFactor < 1) {
		return fmt.Errorf("core: BIST pattern factor %g must be >= 1 (or 0 for parity)", o.BISTPatternFactor)
	}
	if o.DecompressionCyclesPerWord < 0 {
		return fmt.Errorf("core: negative decompression cycles per word %d", o.DecompressionCyclesPerWord)
	}
	if o.CompressionRatio < 0 || o.CompressionRatio > 1 {
		return fmt.Errorf("core: compression ratio %g outside [0,1]", o.CompressionRatio)
	}
	if o.ProcessorBufferWords < 0 {
		return fmt.Errorf("core: negative processor buffer %d", o.ProcessorBufferWords)
	}
	if o.WrapperChains < 0 {
		return fmt.Errorf("core: negative wrapper width %d", o.WrapperChains)
	}
	if o.MaxSegments < 0 {
		return fmt.Errorf("core: negative segment cap %d", o.MaxSegments)
	}
	if o.MinSegmentPatterns < 0 {
		return fmt.Errorf("core: negative segment pattern floor %d", o.MinSegmentPatterns)
	}
	if o.ResumeCycles < 0 {
		return fmt.Errorf("core: negative resume cost %d", o.ResumeCycles)
	}
	switch o.Application {
	case BISTApplication, DecompressionApplication:
	default:
		return fmt.Errorf("core: unknown test application %d", int(o.Application))
	}
	switch o.Variant {
	case GreedyFirstAvailable, LookaheadFastestFinish:
	default:
		return fmt.Errorf("core: unknown variant %d", int(o.Variant))
	}
	switch o.Priority {
	case DistanceOnly, ProcessorsFirst, VolumeDescending, LongestTestFirst:
	default:
		return fmt.Errorf("core: unknown priority %d", int(o.Priority))
	}
	return nil
}

// Schedule plans the complete test of sys under opts and returns a
// validated plan: one compile, one pass under the options' variant and
// priority. Callers running many passes over one configuration should
// Compile once and drive the Model (or a Portfolio) directly.
func Schedule(sys *soc.System, opts Options) (*plan.Plan, error) {
	m, err := Compile(sys, opts)
	if err != nil {
		return nil, err
	}
	o := m.Options()
	algorithm := fmt.Sprintf("%s/%s/%s", o.Variant, o.Priority, o.Application)
	return m.Plan(context.Background(), o.Variant, m.DefaultOrder(), algorithm)
}

// reusedSet returns the processor core IDs opts reuses as interfaces.
func reusedSet(sys *soc.System, opts Options) map[int]bool {
	reused := make(map[int]bool)
	if opts.DisableReuse {
		return reused
	}
	for i, pc := range sys.Processors() {
		if opts.MaxReusedProcessors > 0 && i >= opts.MaxReusedProcessors {
			break
		}
		reused[pc.Core.ID] = true
	}
	return reused
}

// testLength estimates a core's standalone streaming test length:
// patterns times the wider of the stimulus and response widths. It
// ranks cores for LongestTestFirst without needing interface context.
func testLength(c itc02.Core) int {
	bits := c.StimulusBits()
	if r := c.ResponseBits(); r > bits {
		bits = r
	}
	return c.Patterns * bits
}

// orderCoreIndices returns the indices of sys.Cores in the priority
// rule's order, given the set of reused processor core IDs. This is the
// ordering a compiled Model caches per rule.
func orderCoreIndices(sys *soc.System, priority Priority, reused map[int]bool) []int {
	idx := make([]int, len(sys.Cores))
	for i := range idx {
		idx[i] = i
	}

	// Interface positions: tester ports plus reused processors. A
	// processor's own tile cannot test it, so its distance is taken to
	// the nearest other interface.
	type spot struct {
		tile noc.Coord
		core int // backing processor core ID, 0 for ports
	}
	var spots []spot
	for _, p := range sys.Ports {
		spots = append(spots, spot{tile: p.Tile})
	}
	for _, pc := range sys.Processors() {
		if reused[pc.Core.ID] {
			spots = append(spots, spot{tile: pc.Tile, core: pc.Core.ID})
		}
	}
	distance := func(c soc.PlacedCore) int {
		best := 1 << 30
		for _, sp := range spots {
			if sp.core != 0 && sp.core == c.Core.ID {
				continue
			}
			if d := sys.Net.Topo.Distance(c.Tile, sp.tile); d < best {
				best = d
			}
		}
		return best
	}

	sort.SliceStable(idx, func(i, j int) bool {
		a, b := sys.Cores[idx[i]], sys.Cores[idx[j]]
		switch priority {
		case ProcessorsFirst:
			ap, bp := reused[a.Core.ID], reused[b.Core.ID]
			if ap != bp {
				return ap
			}
			if da, db := distance(a), distance(b); da != db {
				return da < db
			}
		case DistanceOnly:
			if da, db := distance(a), distance(b); da != db {
				return da < db
			}
		case VolumeDescending:
			if va, vb := a.Core.TestDataVolume(), b.Core.TestDataVolume(); va != vb {
				return va > vb
			}
		case LongestTestFirst:
			if la, lb := testLength(a.Core), testLength(b.Core); la != lb {
				return la > lb
			}
		}
		if va, vb := a.Core.TestDataVolume(), b.Core.TestDataVolume(); va != vb {
			return va > vb
		}
		return a.Core.ID < b.Core.ID
	})
	return idx
}

// orderCores returns sys's cores in the priority order opts selects,
// given the set of reused processor core IDs.
func orderCores(sys *soc.System, opts Options, reused map[int]bool) []soc.PlacedCore {
	idx := orderCoreIndices(sys, opts.Priority, reused)
	cores := make([]soc.PlacedCore, len(idx))
	for i, ci := range idx {
		cores[i] = sys.Cores[ci]
	}
	return cores
}
