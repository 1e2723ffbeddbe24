package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"noctest/internal/noc"
	"noctest/internal/plan"
	"noctest/internal/power"
	"noctest/internal/soc"
	"noctest/internal/wrapper"
)

// Model is the precompiled, immutable scheduling model for one
// (system, options) pair: the compile-once half of the engine's
// compile-once/search-many split.
//
// Compile resolves everything a scheduling pass would otherwise
// recompute — interface records, NoC routes from the shared
// noc.RouteTable, dense link IDs, per-(core, interface) setup latency,
// pattern counts and per-pattern cycles, transport power draw, wrapper
// shift times and power feasibility — into flat candidate tables. A
// pass then only replays an order against cheap per-pass scratch state
// (epoch-tagged link timelines indexed by noc.LinkID and a resettable
// power.Profile), drawn from an internal pool, so search strategies can
// evaluate thousands of orders per second on shared read-only data.
// Neighbourhood searches go further through NewEvaluator, the
// incremental kernel that checkpoints a pass per position and replays
// only the order suffix a move actually changed.
//
// A Model is safe for concurrent use: every public method may be called
// from multiple goroutines at once. Slices returned by Order are shared
// and must not be mutated; copy before permuting.
type Model struct {
	sys  *soc.System
	opts Options
	// limit is the resolved absolute power ceiling, 0 when unconstrained.
	limit float64
	// notes records compile observations surfaced on every produced
	// plan, e.g. unpaired tester ports that could not form an interface.
	notes  []string
	reused map[int]bool

	cores []soc.PlacedCore
	// selfIface maps a core index to the interface backed by that core,
	// or -1: a processor cannot test itself, and completing its test
	// activates the interface.
	selfIface []int
	ifaces    []ifaceModel
	// cands is indexed [core index][interface index].
	cands [][]cand
	// scanDur mirrors cands with just the placement scan's needs — the
	// candidate's total duration, or -1 when infeasible — so the
	// per-placement interface scan streams over a compact array instead
	// of striding through the full candidate structs.
	scanDur [][]int
	// orders caches the core-index ordering of every Priority rule,
	// indexed by Priority.
	orders [priorityCount][]int

	exclusive bool
	numLinks  int
	// maxSegs is the longest segment chain of any candidate, sizing the
	// per-pass chain buffers; 1 when scheduling is non-preemptive.
	maxSegs int

	pool  sync.Pool
	stats searchCounters
}

// searchCounters aggregates search-throughput telemetry across every
// pass replayed against one model, from any goroutine. The counters are
// observational only — they never influence scheduling decisions — so
// their cross-worker interleaving cannot perturb deterministic results.
type searchCounters struct {
	orders    atomic.Uint64
	pruned    atomic.Uint64
	placed    atomic.Uint64
	replayed  atomic.Uint64
	deltaHits atomic.Uint64
}

// SearchStats is a snapshot of a model's cumulative search telemetry.
type SearchStats struct {
	// Orders counts evaluation passes started (full replays and
	// incremental evaluations alike, pruned or not).
	Orders uint64
	// Pruned counts passes aborted early by an incumbent bound.
	Pruned uint64
	// Placed counts core placements actually evaluated, also those of
	// passes that later fail or are cancelled.
	Placed uint64
	// Replayed counts core placements restored from checkpoints instead
	// of being re-evaluated — the work the incremental kernel avoided.
	Replayed uint64
	// DeltaHits counts evaluations the incremental kernel answered from
	// its checkpoints with zero placements: a resubmitted order, or a
	// reused prefix already over the bound. (The name predates this
	// meaning: it once counted the windowed splice's fast-forwards, and
	// it is kept because external readers key on it.)
	DeltaHits uint64
}

// Add accumulates o into s field by field. Aggregators (the bench
// reporter, the server's /stats) use it to sum telemetry across models
// or to combine per-run snapshot diffs.
func (s *SearchStats) Add(o SearchStats) {
	s.Orders += o.Orders
	s.Pruned += o.Pruned
	s.Placed += o.Placed
	s.Replayed += o.Replayed
	s.DeltaHits += o.DeltaHits
}

// Sub returns the field-wise difference s - o: the telemetry accrued
// between two snapshots of the same model.
func (s SearchStats) Sub(o SearchStats) SearchStats {
	d := s
	d.Orders -= o.Orders
	d.Pruned -= o.Pruned
	d.Placed -= o.Placed
	d.Replayed -= o.Replayed
	d.DeltaHits -= o.DeltaHits
	return d
}

// SearchStats returns a snapshot of the model's cumulative search
// telemetry. Counters only ever grow; diff two snapshots to meter one
// run. The counters are read individually, so a snapshot taken while
// passes are in flight is approximate.
func (m *Model) SearchStats() SearchStats {
	return SearchStats{
		Orders:    m.stats.orders.Load(),
		Pruned:    m.stats.pruned.Load(),
		Placed:    m.stats.placed.Load(),
		Replayed:  m.stats.replayed.Load(),
		DeltaHits: m.stats.deltaHits.Load(),
	}
}

// ifaceModel is the immutable record of one test interface.
type ifaceModel struct {
	name     string
	kind     plan.InterfaceKind
	procCore int // core ID of the backing processor, 0 for ATE
}

// cand is one precompiled (core, interface) placement candidate:
// everything about the reservation except its start times. The unit of
// work is the test *segment*: segs always holds at least one element,
// and the non-preemptive configuration is exactly the one-segment
// degenerate case, so there is a single placement code path.
type cand struct {
	// feasible is false when the candidate can never be placed: the
	// interface is the core's own processor, or the draw alone exceeds
	// the power ceiling.
	feasible bool
	setup    int
	patterns int
	perPat   int
	// duration is the total busy time of all segments, including every
	// resumption's re-setup; for a single segment it equals the classic
	// setup + patterns*perPat.
	duration int
	draw     float64
	// segs is the candidate's segment chain, split at pattern
	// boundaries by the options' MaxSegments/MinSegmentPatterns policy.
	// Segment 0 carries the one-time setup (e.g. the decompression
	// load); later segments pay the path setup again plus ResumeCycles.
	segs []segSpec
	// links lists the dense IDs of every directed link on the stimulus
	// and response paths; nil unless ExclusiveLinks is set. Every
	// segment crosses the same links: a preempted test resumes on the
	// same interface over the same route.
	links []noc.LinkID
	// entry is the plan record template; Start, End and the per-segment
	// fields are filled when a pass commits the candidate.
	entry plan.Entry
}

// segSpec is one precompiled segment of a candidate: a contiguous run
// of patterns with its own setup share.
type segSpec struct {
	patterns int
	setup    int
	duration int // setup + patterns*perPat
}

// ErrUnschedulable marks a scheduling failure that is a property of the
// configuration, not of the engine: some core has no feasible interface
// under the options (typically a power ceiling below the core's own
// draw). Sweep harnesses match it with errors.Is to tell infeasible
// scenarios apart from engine bugs.
var ErrUnschedulable = errors.New("no feasible interface")

// scratch is the per-pass mutable state replayed against a Model. It is
// pooled and reset between passes so a search allocates nothing per
// order beyond the plan it finally keeps. Reset cost is independent of
// mesh size: the link timelines are epoch-tagged (noc.Timelines), so a
// pass over a large mesh leaves nothing to clear.
type scratch struct {
	gen       int
	placedGen []int
	// fr packs each interface's scheduling state — last-reservation end,
	// activation time, existence — into one array, so the per-placement
	// scan walks a couple of cache lines instead of three parallel
	// slices, and checkpoint captures copy one slice instead of three.
	fr      []frontier
	lines   *noc.Timelines
	profile *power.Profile
	// chain and trial hold candidate segment start times while placing
	// one core: trial is the interface currently being scanned, chain
	// the best chain found so far (the buffers swap instead of copying).
	chain []int
	trial []int
	// probeS/probeE/probeOK are the window buffers of the batched power
	// probe (power.Profile.CanAddBatch): the tight back-to-back segment
	// chain tested with one amortised gallop before the per-segment
	// feasibility walk.
	probeS  []int
	probeE  []int
	probeOK []bool
	// scan holds the feasible interfaces of the core being placed,
	// sorted by the lower bound of their placement key, so the cheap
	// bound ordering decides which interfaces ever pay for a full
	// feasibility walk.
	scan []scanEnt
}

// scanEnt is one interface candidate in a placement scan: its index,
// its frontier, and the lower bound of its placement key.
type scanEnt struct {
	lower, from, iface int
}

// frontier is one interface's scheduling state: the time its last
// reservation ends (free), the earliest time it may be used at all
// (activated — a processor interface opens when its processor's first
// test ends), and whether it exists yet in the pass.
type frontier struct {
	free      int
	activated int
	active    bool
}

// Compile builds the immutable scheduling model of sys under opts. The
// returned model embeds opts with defaults applied; Variant and
// Priority act only as defaults for Schedule-style entry points, since
// both are per-pass search parameters.
func Compile(sys *soc.System, opts Options) (*Model, error) {
	opts = opts.withDefaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}

	limit := 0.0
	switch {
	case opts.PowerLimit > 0:
		limit = opts.PowerLimit
	case opts.PowerLimitFraction > 0:
		limit = opts.PowerLimitFraction * sys.TotalPower()
	}

	topo := sys.Net.Topo
	routes, err := noc.NewRouteTable(topo)
	if err != nil {
		return nil, err
	}

	m := &Model{
		sys:       sys,
		opts:      opts,
		limit:     limit,
		reused:    reusedSet(sys, opts),
		cores:     sys.Cores,
		exclusive: opts.ExclusiveLinks,
		numLinks:  topo.LinkCount(),
	}
	// The fabric is recorded on every plan the model produces, so a
	// serialised plan names its topology and routing algorithm without
	// out-of-band context.
	m.notes = append(m.notes, fmt.Sprintf("fabric: %s, routing %s", topo, topo.RoutingName()))
	if opts.MaxSegments > 1 {
		// Preemption changes what a plan's entries mean (several per
		// core), so the configuration is recorded on every plan. The
		// one-segment case adds no note: it is defined to be
		// indistinguishable from the non-preemptive engine.
		m.notes = append(m.notes, fmt.Sprintf(
			"preemptive: tests split into at most %d segments (min %d patterns each, resume cost %d cycles)",
			opts.MaxSegments, opts.MinSegmentPatterns, opts.ResumeCycles))
	}
	ifaces, err := m.compileInterfaces()
	if err != nil {
		return nil, err
	}
	if err := m.compileCandidates(routes, ifaces); err != nil {
		return nil, err
	}
	for p := Priority(0); p < priorityCount; p++ {
		m.orders[p] = orderCoreIndices(sys, p, m.reused)
	}
	m.pool.New = func() any { return m.newScratch() }
	return m, nil
}

// compIface carries the compile-time geometry of one interface; only
// the ifaceModel part survives into the model.
type compIface struct {
	ifaceModel
	src, dst   noc.Coord
	perPattern int
	runPower   float64
	loadHops   int
}

// compileInterfaces creates one interface per ATE port pair and one per
// reused processor. Tester ports are paired in declaration order; ports
// beyond the shorter direction list cannot form an interface and are
// recorded in the model's notes instead of being silently dropped.
func (m *Model) compileInterfaces() ([]compIface, error) {
	var ins, outs []soc.Port
	for _, p := range m.sys.Ports {
		if p.Dir == soc.In {
			ins = append(ins, p)
		} else {
			outs = append(outs, p)
		}
	}
	pairs := len(ins)
	if len(outs) < pairs {
		pairs = len(outs)
	}
	if len(ins) != len(outs) {
		var dropped []string
		for _, p := range ins[pairs:] {
			dropped = append(dropped, fmt.Sprintf("%s(%s)", p.Name, p.Dir))
		}
		for _, p := range outs[pairs:] {
			dropped = append(dropped, fmt.Sprintf("%s(%s)", p.Name, p.Dir))
		}
		m.notes = append(m.notes, fmt.Sprintf(
			"unpaired tester ports not usable as ATE interfaces: %s (%d in, %d out)",
			strings.Join(dropped, ", "), len(ins), len(outs)))
	}

	var ifaces []compIface
	for i := 0; i < pairs; i++ {
		ifaces = append(ifaces, compIface{
			ifaceModel: ifaceModel{name: fmt.Sprintf("ate%d", i), kind: plan.ATE},
			src:        ins[i].Tile,
			dst:        outs[i].Tile,
			perPattern: m.opts.ATECyclesPerPattern,
		})
	}
	for _, pc := range m.sys.Processors() {
		if !m.reused[pc.Core.ID] {
			continue
		}
		loadHops := 1 << 30
		for _, p := range ins {
			if d := m.sys.Net.Topo.Distance(p.Tile, pc.Tile); d < loadHops {
				loadHops = d
			}
		}
		ifaces = append(ifaces, compIface{
			ifaceModel: ifaceModel{name: pc.Core.Name, kind: plan.Processor, procCore: pc.Core.ID},
			src:        pc.Tile,
			dst:        pc.Tile,
			perPattern: pc.Processor.CyclesPerPattern,
			runPower:   pc.Processor.Power,
			loadHops:   loadHops,
		})
	}
	if len(ifaces) == 0 {
		return nil, fmt.Errorf("core: system %s has no test interfaces", m.sys.Name)
	}
	m.ifaces = make([]ifaceModel, len(ifaces))
	for i, ifx := range ifaces {
		m.ifaces[i] = ifx.ifaceModel
	}
	return ifaces, nil
}

// compileCandidates fills the per-(core, interface) candidate table.
func (m *Model) compileCandidates(routes *noc.RouteTable, ifaces []compIface) error {
	timing := m.sys.Net.Timing
	m.cands = make([][]cand, len(m.cores))
	m.scanDur = make([][]int, len(m.cores))
	m.selfIface = make([]int, len(m.cores))
	for ci, pc := range m.cores {
		m.selfIface[ci] = -1
		shift := 0
		if m.opts.WrapperChains > 0 {
			d, err := wrapper.BFD(pc.Core, m.opts.WrapperChains)
			if err != nil {
				return fmt.Errorf("core: wrapper for core %d: %w", pc.Core.ID, err)
			}
			shift = d.ShiftCycles()
		}
		inFlits := timing.Flits(pc.Core.StimulusBits())
		outFlits := timing.Flits(pc.Core.ResponseBits())
		streamFlits := inFlits
		if outFlits > streamFlits {
			streamFlits = outFlits
		}
		basePerPattern := timing.StreamCycles(streamFlits) + m.opts.CaptureCycles
		if shift > basePerPattern {
			// The core's wrapper shifts serially; a narrow wrapper caps
			// the pattern rate below what the NoC could deliver.
			basePerPattern = shift
		}

		row := make([]cand, len(ifaces))
		for ii, ifx := range ifaces {
			if ifx.kind == plan.Processor && ifx.procCore == pc.Core.ID {
				m.selfIface[ci] = ii // a processor cannot test itself
				continue
			}
			pathIn, err := routes.Path(ifx.src, pc.Tile)
			if err != nil {
				return err
			}
			pathOut, err := routes.Path(pc.Tile, ifx.dst)
			if err != nil {
				return err
			}
			hopsIn, hopsOut := len(pathIn)-1, len(pathOut)-1

			perPattern := basePerPattern
			pathSetup := timing.PathSetupLatency(hopsIn) + timing.PathSetupLatency(hopsOut)
			oneTime := 0 // paid by the first segment only
			patterns := pc.Core.Patterns
			switch {
			case ifx.kind == plan.ATE:
				perPattern += ifx.perPattern
			case m.opts.Application == BISTApplication:
				// Software pattern generation: extra cycles per pattern,
				// and optionally more pseudo-random patterns for equal
				// coverage.
				perPattern += ifx.perPattern
				if m.opts.BISTPatternFactor > 1 {
					patterns = int(math.Ceil(float64(patterns) * m.opts.BISTPatternFactor))
				}
			case m.opts.Application == DecompressionApplication:
				// Deterministic patterns decompressed in software: the
				// word production rate competes with the NoC streaming
				// rate, and the compressed set is first loaded from the
				// tester port into the processor's buffer (charged as
				// one-time setup, chunked by buffer size).
				inWords := (pc.Core.StimulusBits() + 31) / 32
				if produce := inWords * m.opts.DecompressionCyclesPerWord; produce > timing.StreamCycles(streamFlits) {
					perPattern = produce + m.opts.CaptureCycles
				}
				oneTime = m.loadCycles(ifx.loadHops, inWords*pc.Core.Patterns)
			}
			setup := pathSetup + oneTime

			// Split the pattern run into the candidate's segment chain.
			// Every segment re-establishes the transport path; segment 0
			// additionally pays the one-time setup, later segments the
			// resume cost. With MaxSegments <= 1 this is one segment of
			// exactly the classic setup and duration.
			segCounts := wrapper.SegmentPatterns(patterns, m.opts.MaxSegments, m.opts.MinSegmentPatterns)
			segs := make([]segSpec, len(segCounts))
			duration := 0
			for j, p := range segCounts {
				su := pathSetup
				if j == 0 {
					su += oneTime
				} else {
					su += m.opts.ResumeCycles
				}
				segs[j] = segSpec{patterns: p, setup: su, duration: su + p*perPattern}
				duration += segs[j].duration
			}
			if len(segs) > m.maxSegs {
				m.maxSegs = len(segs)
			}

			draw := pc.Core.Power + transportPower(m.sys.Net.Power, pathIn, pathOut) + ifx.runPower
			if m.limit > 0 && draw > m.limit+1e-9 {
				continue // permanently infeasible on this interface
			}

			var links []noc.LinkID
			if m.exclusive {
				idsIn, err := routes.LinkIDs(ifx.src, pc.Tile)
				if err != nil {
					return err
				}
				idsOut, err := routes.LinkIDs(pc.Tile, ifx.dst)
				if err != nil {
					return err
				}
				links = make([]noc.LinkID, 0, len(idsIn)+len(idsOut))
				links = append(append(links, idsIn...), idsOut...)
			}

			row[ii] = cand{
				feasible: true,
				setup:    setup,
				patterns: patterns,
				perPat:   perPattern,
				duration: duration,
				draw:     draw,
				segs:     segs,
				links:    links,
				entry: plan.Entry{
					CoreID:          pc.Core.ID,
					CoreName:        pc.Core.Name,
					IsProcessor:     pc.IsProcessor(),
					Interface:       ifx.name,
					InterfaceKind:   ifx.kind,
					InterfaceCoreID: ifx.procCore,
					Setup:           setup,
					Patterns:        patterns,
					PerPattern:      perPattern,
					PathIn:          pathIn,
					PathOut:         pathOut,
					Power:           draw,
				},
			}
		}
		m.cands[ci] = row
		durs := make([]int, len(row))
		for ii := range row {
			if row[ii].feasible {
				durs[ii] = row[ii].duration
			} else {
				durs[ii] = -1
			}
		}
		m.scanDur[ci] = durs
	}

	return nil
}

// loadCycles is the one-time cost of shipping a core's compressed test
// set (rawWords stimulus words before compression) from the tester port
// into the processor's buffer, reloading per chunk when the set exceeds
// the buffer.
func (m *Model) loadCycles(loadHops, rawWords int) int {
	timing := m.sys.Net.Timing
	comp := int(math.Ceil(float64(rawWords) * m.opts.CompressionRatio))
	if comp < 1 {
		comp = 1
	}
	chunks := (comp + m.opts.ProcessorBufferWords - 1) / m.opts.ProcessorBufferWords
	flits := timing.Flits(comp * 32)
	return chunks*timing.PathSetupLatency(loadHops) + timing.StreamCycles(flits)
}

// transportPower charges the per-router figure once per distinct router
// on the stimulus and response paths.
func transportPower(tp noc.TransportPower, pathIn, pathOut []noc.Coord) float64 {
	seen := make(map[noc.Coord]bool, len(pathIn)+len(pathOut))
	for _, c := range pathIn {
		seen[c] = true
	}
	for _, c := range pathOut {
		seen[c] = true
	}
	return tp.PathPower(len(seen))
}

// System returns the compiled system.
func (m *Model) System() *soc.System { return m.sys }

// Options returns the compiled options with defaults applied.
func (m *Model) Options() Options { return m.opts }

// PowerLimit returns the resolved absolute ceiling, 0 when unlimited.
func (m *Model) PowerLimit() float64 { return m.limit }

// Notes returns compile observations (e.g. dropped unpaired tester
// ports) that are attached to every plan the model produces. The slice
// is the model's own and must not be modified; plans get their own
// copy.
func (m *Model) Notes() []string { return m.notes }

// Order returns the core indices in the given priority rule's order.
// The slice is shared across all callers: copy it before permuting.
// An unknown priority panics: it is a programming error (every rule is
// cached at compile time), and silently substituting another order
// would mislabel every plan the caller produces.
func (m *Model) Order(p Priority) []int {
	if p < 0 || p >= priorityCount {
		panic(fmt.Sprintf("core: unknown priority %d, model caches %d rules", int(p), int(priorityCount)))
	}
	return m.orders[p]
}

// DefaultOrder returns Order for the compiled options' priority rule.
func (m *Model) DefaultOrder() []int { return m.Order(m.opts.Priority) }

// newScratch allocates pass state sized for the model.
func (m *Model) newScratch() *scratch {
	segs := m.maxSegs
	if segs < 1 {
		segs = 1
	}
	s := &scratch{
		placedGen: make([]int, len(m.cores)),
		fr:        make([]frontier, len(m.ifaces)),
		profile:   power.NewProfile(m.limit),
		chain:     make([]int, segs),
		trial:     make([]int, segs),
		probeS:    make([]int, segs),
		probeE:    make([]int, segs),
		probeOK:   make([]bool, segs),
		scan:      make([]scanEnt, len(m.ifaces)),
	}
	if m.exclusive {
		s.lines = noc.NewTimelines(m.numLinks)
	}
	return s
}

// reset prepares the scratch for a fresh pass. The cost is O(interfaces)
// — never O(mesh) or O(previous pass's work): the link timelines and the
// placed-core set roll their epochs forward, and the power profile
// truncates in place.
func (s *scratch) reset(m *Model) {
	s.gen++
	for i, ifx := range m.ifaces {
		s.fr[i] = frontier{active: ifx.kind == plan.ATE}
	}
	if s.lines != nil {
		s.lines.Reset()
	}
	s.profile.Reset(m.limit)
}

// Makespan replays order against the model under the variant's
// interface-choice rule and returns the resulting makespan without
// materialising a plan — the cheap inner loop of the search strategies.
func (m *Model) Makespan(ctx context.Context, v Variant, order []int) (int, error) {
	ms, _, err := m.run(ctx, v, order, noBound, nil)
	return ms, err
}

// MakespanBounded is Makespan with an early-abort incumbent bound: the
// pass aborts as soon as its partial makespan exceeds bound and reports
// pruned=true with the partial value. The abort is sound for search
// pruning because placements only ever extend a schedule — the running
// makespan is monotone in the number of cores placed — so a partial
// value above bound proves the full value is too. A non-positive bound
// disables pruning.
func (m *Model) MakespanBounded(ctx context.Context, v Variant, order []int, bound int) (ms int, pruned bool, err error) {
	if bound <= 0 {
		bound = noBound
	}
	return m.run(ctx, v, order, bound, nil)
}

// Plan replays order against the model and returns the full validated
// plan. An empty algorithm records "variant/application".
func (m *Model) Plan(ctx context.Context, v Variant, order []int, algorithm string) (*plan.Plan, error) {
	segs := m.maxSegs
	if segs < 1 {
		segs = 1
	}
	entries := make([]plan.Entry, 0, len(m.cores)*segs)
	if _, _, err := m.run(ctx, v, order, noBound, &entries); err != nil {
		return nil, err
	}
	if algorithm == "" {
		algorithm = fmt.Sprintf("%s/%s", v, m.opts.Application)
	}
	p := &plan.Plan{
		System:         m.sys.Name,
		Algorithm:      algorithm,
		PowerLimit:     m.limit,
		ExclusiveLinks: m.exclusive,
		// The notes are copied, not aliased: plans outlive the run that
		// produced them, and a consumer appending its own note to a plan
		// must never race another plan built from the same cached model
		// (the slice has spare capacity from compile-time appends).
		Notes:   append([]string(nil), m.notes...),
		Entries: entries,
	}
	sort.Slice(p.Entries, func(i, j int) bool {
		if p.Entries[i].Start != p.Entries[j].Start {
			return p.Entries[i].Start < p.Entries[j].Start
		}
		return p.Entries[i].CoreID < p.Entries[j].CoreID
	})
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("core: produced invalid plan: %w", err)
	}
	return p, nil
}

// noBound disables early-abort pruning: no makespan reaches it.
const noBound = int(^uint(0) >> 1)

// run is one scheduling pass: place every core of order, in order, on
// the best feasible interface under the variant rule. It returns the
// makespan; when entries is non-nil the committed reservations are
// appended to it. The pass aborts with pruned=true as soon as the
// running makespan exceeds bound (sound: the running makespan is
// monotone in list order, so the full value can only be larger).
func (m *Model) run(ctx context.Context, v Variant, order []int, bound int, entries *[]plan.Entry) (int, bool, error) {
	if len(order) != len(m.cores) {
		return 0, false, fmt.Errorf("core: explicit order covers %d of %d cores", len(order), len(m.cores))
	}
	s := m.pool.Get().(*scratch)
	defer m.pool.Put(s)
	s.reset(m)
	m.stats.orders.Add(1)
	// Every placement made counts, also on a failed or cancelled pass.
	placed := 0
	defer func() { m.stats.placed.Add(uint64(placed)) }()

	makespan := 0
	for _, ci := range order {
		if err := ctx.Err(); err != nil {
			return 0, false, err
		}
		if ci < 0 || ci >= len(m.cores) {
			return 0, false, fmt.Errorf("core: order names core index %d outside [0,%d)", ci, len(m.cores))
		}
		if s.placedGen[ci] == s.gen {
			return 0, false, fmt.Errorf("core: order repeats core %d", m.cores[ci].Core.ID)
		}
		s.placedGen[ci] = s.gen

		end, err := m.place(s, v, ci, entries, nil)
		if err != nil {
			return 0, false, err
		}
		placed++
		if end > makespan {
			makespan = end
		}
		if makespan > bound {
			m.stats.pruned.Add(1)
			return makespan, true, nil
		}
	}
	return makespan, false, nil
}

// place commits core ci on the best interface per the variant rule and
// returns the end of the core's last segment. Candidates are placed as
// segment chains: segment j's window is searched forward from segment
// j-1's end, so precedence (segment k before k+1) holds by
// construction, every segment on the same interface over the same
// route. The greedy rule keys on the first segment's start (the paper's
// first-available convention, unchanged for one-segment chains) and the
// lookahead rule on the chain's completion. Ties keep the first
// interface scanned. When undo is non-nil every committed link
// reservation is journalled in it, so the incremental kernel can pop
// the placement's link spans again; the kernel restores the power
// profile from its checkpoint snapshots instead.
func (m *Model) place(s *scratch, v Variant, ci int, entries *[]plan.Entry, undo *[]noc.LinkID) (int, error) {
	row := m.cands[ci]
	// Collect the feasible interfaces with the lower bound of their
	// placement key (the chain can only start at or after the frontier,
	// and its segments run back-to-back at best, so both keys are
	// bounded below), tracking the minimum (lower bound, index) as the
	// scan goes. The selection below minimises (key, index) exactly like
	// an index-order scan of every interface would; the bounds only
	// decide which interfaces ever pay for a full feasibility walk.
	minAt, minLower, minFrom := -1, 0, 0
	for ii, d := range m.scanDur[ci] {
		f := &s.fr[ii]
		if d < 0 || !f.active {
			continue
		}
		from := f.free
		if f.activated > from {
			from = f.activated
		}
		lower := from
		if v == LookaheadFastestFinish {
			lower = from + d
		}
		if minAt < 0 || lower < minLower {
			minAt, minLower, minFrom = ii, lower, from
		}
	}
	if minAt < 0 {
		pc := m.cores[ci]
		return 0, fmt.Errorf("core: core %d (%s) cannot be scheduled on any interface (power limit %.1f too tight?): %w",
			pc.Core.ID, pc.Core.Name, m.limit, ErrUnschedulable)
	}
	// Walk the minimum-bound interface first. When its key lands exactly
	// on its lower bound no other interface can win — every other bound
	// is at least this key, and an equal-bound interface has a higher
	// index, so at best it ties and loses the tie — which makes the
	// common placement a single feasibility walk with no sorting at all.
	key, end := s.walkChain(&row[minAt], minFrom, v)
	bestIface, bestKey, bestEnd := minAt, key, end
	s.chain, s.trial = s.trial, s.chain
	if key > minLower {
		// Inconclusive: collect the feasible interfaces ordered by
		// (lower bound, index) — built only now, so the common
		// conclusive placement never writes a scan entry — and walk
		// until the bounds prove the incumbent optimal. The insertion
		// keeps equal bounds in index order, exactly like sorting a
		// collected array would.
		nscan := 0
		for ii, d := range m.scanDur[ci] {
			f := &s.fr[ii]
			if d < 0 || !f.active {
				continue
			}
			from := f.free
			if f.activated > from {
				from = f.activated
			}
			lower := from
			if v == LookaheadFastestFinish {
				lower = from + d
			}
			at := nscan
			for at > 0 && s.scan[at-1].lower > lower {
				s.scan[at] = s.scan[at-1]
				at--
			}
			s.scan[at] = scanEnt{lower: lower, from: from, iface: ii}
			nscan++
		}
		for si := 0; si < nscan; si++ {
			ent := &s.scan[si]
			if ent.lower > bestKey {
				break // sorted: nothing later can beat or tie the incumbent
			}
			if ent.iface == minAt {
				continue // already walked, seeded the incumbent
			}
			if ent.lower == bestKey && ent.iface > bestIface {
				continue // can at best tie, and then loses to the lower index
			}
			key, end = s.walkChain(&row[ent.iface], ent.from, v)
			if key < bestKey || (key == bestKey && ent.iface < bestIface) {
				bestIface, bestKey, bestEnd = ent.iface, key, end
				s.chain, s.trial = s.trial, s.chain
			}
		}
	}

	c := &row[bestIface]
	for j := range c.segs {
		sg := &c.segs[j]
		st := s.chain[j]
		end := st + sg.duration
		for _, id := range c.links {
			s.lines.Add(id, noc.Span{Start: st, End: end})
		}
		if undo != nil {
			// earliestFeasible proved the window clears the ceiling, so
			// the commit skips the probe; no profile journal is kept —
			// the kernel snapshots the profile at every checkpoint and
			// rewinds by restoring, and the differential oracles
			// cross-check the committed state against full replays.
			*undo = append(*undo, c.links...)
			s.profile.Add(st, end, c.draw)
		} else if !s.profile.TryAdd(st, end, c.draw) {
			panic(fmt.Sprintf("core: committing feasible placement of core %d failed", m.cores[ci].Core.ID))
		}
		if entries != nil {
			e := c.entry
			e.Segment, e.Segments = j, len(c.segs)
			e.Setup, e.Patterns = sg.setup, sg.patterns
			e.Start, e.End = st, end
			*entries = append(*entries, e)
		}
	}
	s.fr[bestIface].free = bestEnd
	if si := m.selfIface[ci]; si >= 0 {
		s.fr[si] = frontier{free: s.fr[si].free, activated: bestEnd, active: true}
	}
	return bestEnd, nil
}

// walkChain finds the candidate chain's segment starts read-only: each
// segment's window is the earliest feasible one at or after its
// predecessor's end, left in s.trial. The windows are disjoint by
// construction, so committing the chain later cannot invalidate them.
// It returns the variant's placement key (first start, or chain
// completion for the lookahead rule) and the chain's end.
func (s *scratch) walkChain(c *cand, from int, v Variant) (key, end int) {
	if len(c.segs) > 1 && len(c.links) == 0 {
		// Batched probe: with no exclusive links the only obstacle is
		// the power profile, so test the tight back-to-back chain with
		// one amortised gallop. When every window clears the ceiling
		// the chain is exactly what the per-segment walk would produce
		// — each earliestFeasible call returns its lower bound — and
		// the loop below is skipped entirely.
		n := len(c.segs)
		t := from
		for j := range c.segs {
			s.probeS[j] = t
			t += c.segs[j].duration
			s.probeE[j] = t
		}
		if s.profile.CanAddBatch(s.probeS[:n], s.probeE[:n], c.draw, s.probeOK[:n]) {
			copy(s.trial[:n], s.probeS[:n])
			key = s.trial[0]
			if v == LookaheadFastestFinish {
				key = t
			}
			return key, t
		}
	}
	t := from
	for j := range c.segs {
		st := s.earliestFeasible(t, c.segs[j].duration, c)
		end = st + c.segs[j].duration
		s.trial[j] = st
		t = end
	}
	key = s.trial[0]
	if v == LookaheadFastestFinish {
		key = end
	}
	return key, end
}

// earliestFeasible advances a segment start time past link and power
// conflicts until the whole [t, t+dur) window is clear. It terminates
// because every conflict yields a strictly later restart bound and the
// reservation sets are finite.
func (s *scratch) earliestFeasible(from, dur int, c *cand) int {
	t := from
	for {
		if next, ok := s.linkConflict(t, t+dur, c.links); ok {
			t = next
			continue
		}
		next := s.profile.FirstFit(t, dur, c.draw)
		if next < 0 {
			// Only reachable when the draw alone exceeds the ceiling,
			// which compilation filtered out.
			panic("core: power search stuck with empty profile ahead")
		}
		if next == t {
			return t
		}
		t = next
	}
}

// linkConflict reports the earliest restart time if any link is busy
// during [start, end): past the latest conflicting occupancy, so
// repeated scans converge quickly.
func (s *scratch) linkConflict(start, end int, links []noc.LinkID) (int, bool) {
	restart, found := 0, false
	for _, id := range links {
		for _, sp := range s.lines.Spans(id) {
			if start < sp.End && sp.Start < end {
				if !found || sp.End > restart {
					restart = sp.End
					found = true
				}
			}
		}
	}
	return restart, found
}
