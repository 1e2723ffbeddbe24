// Package verify is the randomized scenario-sweep verification engine:
// the safety net every engine change runs against. It draws placed
// systems from internal/socgen across the space the ROADMAP demands —
// core counts, processor counts, mesh shapes, power spreads, pattern
// skews — runs the scheduler portfolio on each under a grid of option
// regimes, and checks every result against oracles that do not trust
// the schedulers:
//
//   - incremental-replay: the incremental search kernel
//     (core.Evaluator) and the stateless full-replay path score a
//     seeded random walk of related orders identically — same
//     makespans, same early-abort decisions — on every compiled
//     regime, so checkpoint restore and bound pruning are re-proven
//     against the model every sweep.
//   - validate: every produced plan passes plan.Validate.
//   - lower-bound: every makespan is at or above the analytic floor
//     (core.Model.LowerBound) — schedules are measured against what the
//     resources permit, not only against each other.
//   - more-processors-help: reusing the embedded processors never
//     worsens the best makespan. Any no-reuse plan remains feasible
//     when interfaces are added, so the engine warm-starts the
//     unconstrained search with the constrained winners' orders and
//     inherits their plans outright when the search fails to beat
//     them; the oracle then guards that dominance reasoning (and the
//     inherited plans' validity) rather than betting on search noise.
//   - more-power-helps: lifting the power ceiling never worsens the
//     best makespan, by the same warm-start-plus-inheritance
//     construction.
//   - replay-window: circuit-switched (ExclusiveLinks) plans meet their
//     windows on the cycle-accurate wormhole simulator via
//     internal/replay. Only endpoint-disjoint plans on the plain mesh
//     are checked: when concurrent tests share a stream endpoint tile
//     (packed meshes) the single-virtual-channel wire serialises them
//     at the tile's local port, which the analytic model deliberately
//     abstracts away (see wireReplayable), and the simulator has no
//     wire model for torus wrap channels or degraded detours.
//   - mesh-torus-identity / mesh-degraded-identity: the topology layer
//     is behaviour-preserving for the paper's fabric. Every scenario is
//     rebuilt on the two degenerate fabrics — a torus with its wrap
//     channels disabled and a DegradedMesh wrapper with no failures —
//     and must produce exactly the mesh's deterministic plans and
//     analytic floor.
//   - single-segment-identity: the preemptive generalisation is
//     behaviour-preserving for the classic engine. Every scenario is
//     recompiled with MaxSegments=1 (a nonzero resume cost attached,
//     which nothing may ever observe) and must produce exactly the
//     plain model's deterministic plans, analytic floor and
//     feasibility verdicts, under plain, link-exclusive and
//     power-limited options.
//   - preemption-dominance: allowing preemption never worsens the best
//     power-limited makespan. Any atomic halfpower plan is a legal
//     outcome under the preemptive regime (chains of one), so the
//     engine warm-starts the segmented search with halfpower's winning
//     order and inherits its plan outright when the search fails to
//     beat it; the oracle then guards that dominance reasoning, like
//     more-processors-help does for interface reuse.
//
// Scenarios draw their fabric (mesh, torus, degraded mesh with failed
// links) and their preemption mode (a segment cap and resume cost, or
// the classic atomic engine) from the generator; two cross-fabric
// regimes additionally reschedule every scenario on the fabrics it did
// not draw, and the preemptive regime reschedules every scenario under
// a segment cap, so each sweep exercises compile, the incremental
// kernel, validation and the lower bound on all three topologies and
// both engines.
//
// On any oracle failure the engine auto-shrinks the scenario — dropping
// cores, halving pattern counts, shrinking the mesh, removing
// processors and ports — to a minimal reproduction that still fails the
// same oracle, and writes it as a single itc02-format file (see
// socgen.Scenario.Encode) naming the seed and the oracle, so a failure
// found in a 30-core sweep comes back as a handful of cores that fit in
// a unit test.
//
// The engine is exposed twice: as a deterministic seeded go test in
// this package (tier-1 sized) and as `noctest -sweep N -seed S`, which
// emits the machine-readable Summary consumed by CI.
package verify

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"

	"noctest/internal/core"
	"noctest/internal/itc02"
	"noctest/internal/noc"
	"noctest/internal/plan"
	"noctest/internal/replay"
	"noctest/internal/report"
	"noctest/internal/soc"
	"noctest/internal/socgen"
)

// Oracle names, in reporting order. The first three are plumbing checks
// (a scenario that fails to build, compile or schedule is itself a
// finding); the rest are the scheduling oracles described in the
// package comment.
var oracleNames = []string{
	"build", "compile", "incremental-replay", "schedule",
	"validate", "lower-bound", "more-processors-help", "more-power-helps",
	"preemption-dominance", "replay-window",
	"mesh-torus-identity", "mesh-degraded-identity", "single-segment-identity",
}

// regime is one configuration every scenario is scheduled under: an
// option set, optionally on a different fabric than the scenario drew.
type regime struct {
	name string
	opts core.Options
	// topology, when non-empty, moves the scenario onto that fabric
	// (socgen.Scenario.WithTopology) before compiling. Cross-fabric
	// regimes run the absolute oracles (compile, incremental-replay,
	// schedule, validate, lower-bound) but take no part in the
	// warm-start/inheritance monotonicity construction: a fabric change
	// reroutes every candidate, so no dominance argument relates its
	// makespans to the base regime's.
	topology string
	// failedLinks is the failed-channel count a "degraded" topology
	// override uses.
	failedLinks int
	// preemptive marks the regime whose options come from the
	// scenario's preemption draw (segment cap and resume cost on top of
	// the halfpower ceiling) rather than from opts. It anchors on
	// "halfpower" — warm starts, inheritance and the analytic floor —
	// so it runs only when halfpower produced a plan.
	preemptive bool
}

// regimes is the sweep's option grid. "base" dominates "noreuse"
// (strictly more interfaces: a no-reuse plan never touches the
// processor interfaces, so it stays feasible when they appear) and
// "halfpower" (strictly higher budget), so its best makespan may never
// be worse than theirs — the differential oracles. The constrained
// regimes are listed before "base" so their winning orders can
// warm-start it; see Check.
var regimes = []regime{
	{name: "noreuse", opts: core.Options{DisableReuse: true}},
	{name: "halfpower", opts: core.Options{PowerLimitFraction: 0.5}},
	// The preemptive regime re-runs halfpower's ceiling with the
	// scenario's segment cap; it must follow halfpower (it inherits
	// from it) and precede nothing — base takes no plans from it.
	{name: "preemptive", preemptive: true},
	{name: "base", opts: core.Options{}},
	{name: "exclusive", opts: core.Options{ExclusiveLinks: true}},
	// Cross-fabric regimes: the same system on the other fabrics, so
	// every sweep schedules every topology no matter what the scenario
	// drew. A regime matching the scenario's own fabric is skipped —
	// "base" already covered it.
	{name: "torus", topology: "torus"},
	{name: "degraded", topology: "degraded", failedLinks: 2},
}

// Engine checks scenarios against the oracles. The zero value is ready
// to use.
type Engine struct {
	// Portfolio builds the scheduler set raced on each regime; nil
	// selects core.DefaultPortfolio. The seed passed in is the
	// scenario's, so randomized searches differ per scenario but are
	// reproducible from the scenario file.
	Portfolio func(seed int64) []core.Scheduler
	// ReplayPatterns caps the patterns replayed per test on the
	// simulator; zero selects 4.
	ReplayPatterns int
	// ReplayMaxMakespan skips the wire replay for plans longer than this
	// (the simulator is cycle-accurate and its cost is the plan horizon);
	// zero selects 150000 cycles, negative disables replay entirely.
	ReplayMaxMakespan int
	// MutatePlan, when set, corrupts every winning plan before the
	// oracles see it. It exists so tests can prove the oracles catch —
	// and the shrinker minimises — broken plans.
	MutatePlan func(*plan.Plan)
}

func (e Engine) withDefaults() Engine {
	if e.Portfolio == nil {
		e.Portfolio = core.DefaultPortfolio
	}
	if e.ReplayPatterns == 0 {
		e.ReplayPatterns = 4
	}
	if e.ReplayMaxMakespan == 0 {
		e.ReplayMaxMakespan = 150_000
	}
	return e
}

// Failure is one oracle violation.
type Failure struct {
	// ScenarioSeed reproduces the scenario via socgen.NewScenario.
	ScenarioSeed int64 `json:"scenario_seed"`
	// Regime names the option configuration ("base", "noreuse",
	// "halfpower", "exclusive"), empty for scenario-level failures.
	Regime string `json:"regime,omitempty"`
	// Oracle names the violated check.
	Oracle string `json:"oracle"`
	// Error is the violation detail.
	Error string `json:"error"`
	// ShrunkFile is the written reproduction, when shrinking ran.
	ShrunkFile string `json:"shrunk_file,omitempty"`
	// ShrunkCores is the reproduction's benchmark core count.
	ShrunkCores int `json:"shrunk_cores,omitempty"`
}

// Report is the outcome of checking one scenario.
type Report struct {
	// Failures lists the oracle violations, in check order.
	Failures []Failure
	// Checked counts the oracle evaluations performed, by oracle name.
	Checked map[string]int
	// Gaps maps each regime that produced a valid plan to the ratio of
	// its best makespan over the analytic lower bound (>= 1 when the
	// lower-bound oracle holds).
	Gaps map[string]float64
	// PreemptionChecked reports whether both halfpower and the
	// preemptive regime produced plans; PreemptionDelta is then
	// halfpower's best makespan minus the preemptive best — positive
	// exactly when splitting tests strictly improved the schedule.
	PreemptionChecked bool
	PreemptionDelta   int
}

// Failed reports whether any oracle was violated.
func (r *Report) Failed() bool { return len(r.Failures) > 0 }

// Check runs every oracle on one scenario.
func (e Engine) Check(ctx context.Context, sc socgen.Scenario) (*Report, error) {
	return e.check(ctx, sc, "")
}

// check optionally restricts the run to one regime (the shrinker's
// fast path); the empty filter runs everything. Only regimes whose
// plan production is independent of the others may be filtered —
// "base" takes warm starts and inherited plans from the constrained
// regimes, so it (like the cross-regime oracles that anchor on it)
// always requires the full run.
func (e Engine) check(ctx context.Context, sc socgen.Scenario, only string) (*Report, error) {
	e = e.withDefaults()
	rep := &Report{Checked: make(map[string]int), Gaps: make(map[string]float64)}
	fail := func(regimeName, oracle string, err error) {
		rep.Failures = append(rep.Failures, Failure{
			ScenarioSeed: sc.Seed, Regime: regimeName, Oracle: oracle, Error: err.Error(),
		})
	}

	rep.Checked["build"]++
	sys, err := sc.Build()
	if err != nil {
		fail("", "build", err)
		return rep, nil
	}

	best := make(map[string]*plan.Plan, len(regimes))
	pf := core.Portfolio{Schedulers: e.Portfolio(sc.Seed), Workers: 1}
	// The constrained regimes run first so their winning core orders can
	// warm-start the dominant "base" search: a ceiling or a smaller
	// interface set explores parts of the order space the unconstrained
	// searches never visit, and any order they surface is a legal input
	// for the base model. Without this cross-seeding the monotonicity
	// oracles would measure search noise instead of engine soundness.
	var warmOrders [][]int
	var inherited []*plan.Plan
	var hpBound core.Bound
	scKind := sc.Topology
	if scKind == "" {
		scKind = "mesh"
	}
	for _, reg := range regimes {
		if only != "" && reg.name != only {
			continue
		}
		regSys := sys
		if reg.topology != "" {
			if reg.topology == scKind {
				continue // the scenario's own fabric; "base" covered it
			}
			rep.Checked["build"]++
			regSys, err = sc.WithTopology(reg.topology, reg.failedLinks).Build()
			if err != nil {
				fail(reg.name, "build", err)
				continue
			}
		}
		opts := reg.opts
		if reg.preemptive {
			if best["halfpower"] == nil {
				// No anchor: the halfpower ceiling was unschedulable for
				// this system (or the regime was filtered out), so the
				// dominance construction has nothing to stand on.
				continue
			}
			segCap := sc.MaxSegments
			if segCap == 0 {
				segCap = 3 // plain scenarios still exercise the segmented engine
			}
			opts = core.Options{PowerLimitFraction: 0.5, MaxSegments: segCap, ResumeCycles: sc.ResumeCost}
		}
		rep.Checked["compile"]++
		m, err := core.Compile(regSys, opts)
		if err != nil {
			fail(reg.name, "compile", err)
			continue
		}
		rep.Checked["incremental-replay"]++
		if err := incrementalReplayCheck(ctx, m, sc.Seed); err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			fail(reg.name, "incremental-replay", err)
			continue
		}
		rep.Checked["schedule"]++
		res, err := pf.ScheduleModel(ctx, m)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if reg.name == "halfpower" && errors.Is(err, core.ErrUnschedulable) {
				// A fractional ceiling below some core's own draw is a
				// property of the drawn system, not an engine bug: the
				// regime is skipped, not failed.
				continue
			}
			fail(reg.name, "schedule", err)
			continue
		}
		p := res.Plan
		switch reg.name {
		case "noreuse", "halfpower":
			if order, ok := coreOrder(regSys, p); ok {
				warmOrders = append(warmOrders, order)
			}
			inherited = append(inherited, transplant(p, reg.name, 0))
		case "preemptive":
			// Warm-start with halfpower's winning order and inherit its
			// plan outright, ceiling kept: an atomic plan is a legal
			// outcome of a regime that merely *allows* preemption, so
			// permitting splits may never lose to it. This mirrors the
			// base regime's construction over noreuse/halfpower.
			hp := best["halfpower"]
			if order, ok := coreOrder(regSys, hp); ok {
				for _, v := range []core.Variant{core.GreedyFirstAvailable, core.LookaheadFastestFinish} {
					warm, err := m.Plan(ctx, v, order, fmt.Sprintf("warm-start(%s)", v))
					if err != nil {
						continue
					}
					p = plan.Best(p, warm)
				}
			}
			p = plan.Best(p, transplant(hp, "halfpower", hp.PowerLimit))
		case "base":
			// Warm starts: replay the constrained winners' orders on the
			// unconstrained model, where the greedy placement may find
			// plans the unconstrained searches missed.
			for _, order := range warmOrders {
				for _, v := range []core.Variant{core.GreedyFirstAvailable, core.LookaheadFastestFinish} {
					warm, err := m.Plan(ctx, v, order, fmt.Sprintf("warm-start(%s)", v))
					if err != nil {
						continue // an order can be infeasible on another model; the portfolio result stands
					}
					p = plan.Best(p, warm)
				}
			}
			// Inheritance: a dominated regime's plan is feasible under
			// base verbatim (the ceiling is lifted, the interfaces it
			// used all still exist), so the engine keeps it when the
			// search failed to beat it. This is what makes the monotone
			// oracles an engine invariant rather than a bet on search
			// noise; they now guard the dominance reasoning itself.
			p = plan.Best(append([]*plan.Plan{p}, inherited...)...)
		}
		if e.MutatePlan != nil {
			e.MutatePlan(p)
		}
		rep.Checked["validate"]++
		if err := p.Validate(); err != nil {
			fail(reg.name, "validate", err)
			continue
		}
		bound := m.LowerBound()
		if reg.name == "halfpower" {
			hpBound = bound
		}
		if reg.preemptive {
			// The segmented model's own floor counts resume re-setups in
			// every chain total, which the inherited atomic plan never
			// pays; the plain halfpower floor is sound for both shapes
			// (the segmented floor dominates it component by component).
			bound = hpBound
		}
		rep.Checked["lower-bound"]++
		if p.Makespan() < bound.Cycles() {
			fail(reg.name, "lower-bound", fmt.Errorf(
				"best makespan %d (%s) below analytic floor: %v", p.Makespan(), res.Best, bound))
			continue
		}
		best[reg.name] = p
		rep.Gaps[reg.name] = float64(p.Makespan()) / float64(bound.Cycles())

		// The wire oracle needs the cycle-accurate simulator, which
		// models the paper's plain mesh only — torus wrap channels and
		// degraded detours have no wire model, so those fabrics skip it.
		_, _, onMesh := regSys.Net.MeshFabric()
		if reg.name == "exclusive" && onMesh && e.ReplayMaxMakespan > 0 &&
			p.Makespan() <= e.ReplayMaxMakespan && wireReplayable(p) {
			rep.Checked["replay-window"]++
			if _, err := replay.Verify(regSys, p, replay.Config{MaxPatternsPerTest: e.ReplayPatterns}, 0); err != nil {
				fail(reg.name, "replay-window", err)
			}
		}
	}

	// Identity oracles: the mesh must be bit-identical to its two
	// degenerate encodings — a torus whose wrap channels are disabled,
	// and a DegradedMesh wrapper with no failures. Both rebuild the
	// scenario's system on the degenerate fabric and demand the same
	// deterministic plans and the same analytic floor, re-proving on
	// every sweep that the topology abstraction did not perturb the
	// paper's fabric.
	if only == "" {
		idErrs, err := e.identityChecks(ctx, sc)
		if err != nil {
			return nil, err
		}
		for _, oracle := range []string{"mesh-torus-identity", "mesh-degraded-identity"} {
			rep.Checked[oracle]++
			if ierr := idErrs[oracle]; ierr != nil {
				fail("", oracle, ierr)
			}
		}
		// The preemption layer's own degenerate-case identity: a cap of
		// one segment must be indistinguishable from the classic engine.
		rep.Checked["single-segment-identity"]++
		vErr, err := singleSegmentIdentity(ctx, sys, sc.ResumeCost)
		if err != nil {
			return nil, err
		}
		if vErr != nil {
			fail("", "single-segment-identity", vErr)
		}
	}

	// Differential oracles: the dominated regimes may never beat "base".
	if base, ok := best["base"]; ok {
		for _, dom := range []struct{ name, oracle string }{
			{"noreuse", "more-processors-help"},
			{"halfpower", "more-power-helps"},
		} {
			other, ok := best[dom.name]
			if !ok {
				continue
			}
			rep.Checked[dom.oracle]++
			if base.Makespan() > other.Makespan() {
				fail("base", dom.oracle, fmt.Errorf(
					"best makespan %d under base options worse than %d under %s, yet every %s plan is feasible under base",
					base.Makespan(), other.Makespan(), dom.name, dom.name))
			}
		}
	}
	// Preemption anchors on halfpower instead of base: under the same
	// ceiling, allowing splits (plus inheriting the atomic winner) may
	// never worsen the best makespan.
	if hp, ok := best["halfpower"]; ok {
		if pre, ok := best["preemptive"]; ok {
			rep.Checked["preemption-dominance"]++
			rep.PreemptionChecked = true
			rep.PreemptionDelta = hp.Makespan() - pre.Makespan()
			if pre.Makespan() > hp.Makespan() {
				fail("preemptive", "preemption-dominance", fmt.Errorf(
					"best makespan %d under the preemptive regime worse than %d under halfpower, yet every halfpower plan is a legal preemptive outcome",
					pre.Makespan(), hp.Makespan()))
			}
		}
	}
	return rep, nil
}

// identityVariants are the (options, variant) cells every identity
// oracle compares across fabrics.
var identityOpts = []core.Options{{}, {ExclusiveLinks: true}}
var identityVariants = []core.Variant{core.GreedyFirstAvailable, core.LookaheadFastestFinish}

// identityChecks verifies the degenerate-fabric identities for the
// scenario: the system rebuilt on each degenerate fabric (a no-wrap
// torus, a DegradedMesh with zero failures) must produce exactly the
// mesh system's deterministic plans (same makespans, same entries,
// under plain and link-exclusive options and both variant rules) and
// the same analytic lower bound. Feasibility must agree too: an order
// that fails on one fabric must fail on the other. The mesh side is
// built, compiled and scheduled once and shared by both oracles; the
// returned map holds one violation (or nil) per oracle name. The error
// return is reserved for harness-level problems (cancellation).
func (e Engine) identityChecks(ctx context.Context, sc socgen.Scenario) (map[string]error, error) {
	const torusOracle, degradedOracle = "mesh-torus-identity", "mesh-degraded-identity"
	errs := make(map[string]error, 2)
	both := func(err error) (map[string]error, error) {
		errs[torusOracle], errs[degradedOracle] = err, err
		return errs, nil
	}
	meshSys, err := sc.WithTopology("mesh", 0).Build()
	if err != nil {
		return both(fmt.Errorf("mesh build: %w", err))
	}
	w, h := meshSys.Net.Topo.Dims()
	deg, err := noc.NewDegradedMesh(meshSys.Net.Topo, nil)
	if err != nil {
		return both(fmt.Errorf("degraded wrapper: %w", err))
	}
	alts := make(map[string]*soc.System, 2)
	for oracle, topo := range map[string]noc.Topology{
		torusOracle:    noc.Torus{Width: w, Height: h, NoWrapX: true, NoWrapY: true},
		degradedOracle: deg,
	} {
		alt, err := sc.BuildOn(topo)
		if err != nil {
			errs[oracle] = fmt.Errorf("degenerate build: %w", err)
			continue
		}
		alts[oracle] = alt
	}

	for _, opts := range identityOpts {
		// The mesh side of the comparison is shared across both oracles.
		mMesh, err := core.Compile(meshSys, opts)
		if err != nil {
			return both(fmt.Errorf("mesh compile: %w", err))
		}
		meshBound := mMesh.LowerBound()
		meshPlans := make([]*plan.Plan, len(identityVariants))
		meshErrs := make([]error, len(identityVariants))
		for vi, v := range identityVariants {
			meshPlans[vi], meshErrs[vi] = mMesh.Plan(ctx, v, mMesh.DefaultOrder(), "identity")
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
		}

		for oracle, alt := range alts {
			if errs[oracle] != nil {
				continue
			}
			mAlt, err := core.Compile(alt, opts)
			if err != nil {
				errs[oracle] = fmt.Errorf("degenerate fabric %s failed to compile where the mesh did: %w", alt.Net.Topo, err)
				continue
			}
			if ba := mAlt.LowerBound(); meshBound != ba {
				errs[oracle] = fmt.Errorf("lower bounds diverge (exclusive=%v): mesh %v vs %s %v",
					opts.ExclusiveLinks, meshBound, alt.Net.Topo, ba)
				continue
			}
			for vi, v := range identityVariants {
				pa, errA := mAlt.Plan(ctx, v, mAlt.DefaultOrder(), "identity")
				if cerr := ctx.Err(); cerr != nil {
					return nil, cerr
				}
				pm, errM := meshPlans[vi], meshErrs[vi]
				switch {
				case (errM != nil) != (errA != nil):
					errs[oracle] = fmt.Errorf("feasibility diverges (%s, exclusive=%v): mesh err %v vs %s err %v",
						v, opts.ExclusiveLinks, errM, alt.Net.Topo, errA)
				case errM != nil:
					// Both infeasible: identical by agreement.
				case pm.Makespan() != pa.Makespan():
					errs[oracle] = fmt.Errorf("makespans diverge (%s, exclusive=%v): mesh %d vs %s %d",
						v, opts.ExclusiveLinks, pm.Makespan(), alt.Net.Topo, pa.Makespan())
				case !reflect.DeepEqual(pm.Entries, pa.Entries):
					errs[oracle] = fmt.Errorf("plans diverge entry-wise (%s, exclusive=%v) at equal makespan %d",
						v, opts.ExclusiveLinks, pm.Makespan())
				}
				if errs[oracle] != nil {
					break
				}
			}
		}
	}
	return errs, nil
}

// segIdentityOpts are the option cells the single-segment identity
// oracle compares: the plain engine's three behavioural regimes.
var segIdentityOpts = []core.Options{{}, {ExclusiveLinks: true}, {PowerLimitFraction: 0.5}}

// singleSegmentIdentity verifies the preemption layer's degenerate
// case on the scenario's own system: recompiling with MaxSegments=1 —
// and a nonzero resume cost that nothing may ever observe, since a
// chain of one never resumes — must reproduce the plain model exactly:
// same analytic floor, same deterministic plans under both variant
// rules, same feasibility verdicts. The first return is the oracle
// violation (nil when the identity holds); the second is reserved for
// harness-level problems (cancellation).
func singleSegmentIdentity(ctx context.Context, sys *soc.System, resume int) (error, error) {
	if resume == 0 {
		resume = 75 // plain scenarios still pin the degenerate case
	}
	for _, opts := range segIdentityOpts {
		mPlain, errP := core.Compile(sys, opts)
		one := opts
		one.MaxSegments = 1
		one.ResumeCycles = resume
		mOne, errO := core.Compile(sys, one)
		if (errP != nil) != (errO != nil) {
			return fmt.Errorf("compile feasibility diverges (opts %+v): plain err %v vs one-segment err %v",
				opts, errP, errO), nil
		}
		if errP != nil {
			continue // both refuse: identical by agreement
		}
		if a, b := mPlain.LowerBound(), mOne.LowerBound(); a != b {
			return fmt.Errorf("lower bounds diverge (opts %+v): plain %v vs one-segment %v", opts, a, b), nil
		}
		for _, v := range identityVariants {
			pP, perr := mPlain.Plan(ctx, v, mPlain.DefaultOrder(), "identity")
			pO, oerr := mOne.Plan(ctx, v, mOne.DefaultOrder(), "identity")
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			switch {
			case (perr != nil) != (oerr != nil):
				return fmt.Errorf("feasibility diverges (%s, opts %+v): plain err %v vs one-segment err %v",
					v, opts, perr, oerr), nil
			case perr != nil:
				// Both infeasible: identical by agreement.
			case !reflect.DeepEqual(pP.Entries, pO.Entries):
				return fmt.Errorf("plans diverge entry-wise (%s, opts %+v): plain makespan %d vs one-segment %d",
					v, opts, pP.Makespan(), pO.Makespan()), nil
			}
		}
	}
	return nil, nil
}

// incrementalReplaySteps is the length of the walk of related orders
// the incremental-replay oracle scores per (regime, variant). A
// multiple of 8 so every move class in the modular schedule below gets
// equal coverage.
const incrementalReplaySteps = 48

// incrementalReplayCheck is the differential oracle for the incremental
// search kernel: it walks a seeded chain of the move shapes local
// search emits — pure adjacent swaps, no-op resubmissions of the
// identical order, swaps at the final position, near-adjacent swaps
// inside a window whose anchor sweeps across the order, and an
// occasional uniform swap — scoring each order both through a
// persistent core.Evaluator (which replays only divergent suffixes
// over its internal checkpoints) and through the stateless full-replay
// path, under the same early-abort bound. Bounds alternate so the walk
// exercises completed, tied and aborted evaluations, including aborts
// answered from the reused prefix alone. The two paths must agree
// exactly: same makespan, same pruned flag, same success/failure. Any
// disagreement means a checkpoint restored stale state or an abort
// fired unsoundly, and fails the scenario (the shrinker then minimises
// it like any other oracle violation).
func incrementalReplayCheck(ctx context.Context, m *core.Model, seed int64) error {
	rng := rand.New(rand.NewSource(seed ^ 0x1c4e))
	for _, v := range []core.Variant{core.GreedyFirstAvailable, core.LookaheadFastestFinish} {
		ev := m.NewEvaluator(v)
		order := append([]int(nil), m.DefaultOrder()...)
		n := len(order)
		prevMs := 0
		anchor := 0
		for step := 0; step < incrementalReplaySteps; step++ {
			if step > 0 && n >= 2 {
				switch step % 8 {
				case 5:
					// Uniform swap: arbitrary distance, a deep replay.
					i, j := rng.Intn(n), rng.Intn(n)
					order[i], order[j] = order[j], order[i]
				case 6:
					// No-op: resubmit the identical order. The kernel must
					// answer from its final checkpoint without placing
					// anything.
				case 7:
					// Swap at the final position: the shortest suffix.
					order[n-2], order[n-1] = order[n-1], order[n-2]
				case 3:
					// Pure adjacent swap at a random position.
					i := rng.Intn(n - 1)
					order[i], order[i+1] = order[i+1], order[i]
				default:
					// Near-adjacent swap in a window of up to 4 whose
					// anchor sweeps forward across the order, so replays
					// start at every depth.
					w := 2 + rng.Intn(3)
					if w > n-1 {
						w = n - 1
					}
					if anchor > n-1-w {
						anchor = 0
					}
					i := anchor
					j := i + 1 + rng.Intn(w)
					order[i], order[j] = order[j], order[i]
					anchor += 1 + rng.Intn(3)
				}
			}
			bound := 0
			switch {
			case step%3 == 1 && prevMs > 0:
				bound = prevMs
			case step%3 == 2 && prevMs > 1:
				bound = prevMs - 1
			}
			incMs, incPruned, incErr := ev.Evaluate(ctx, order, bound)
			fullMs, fullPruned, fullErr := m.MakespanBounded(ctx, v, order, bound)
			if err := ctx.Err(); err != nil {
				ev.Close()
				return err
			}
			if (incErr != nil) != (fullErr != nil) {
				ev.Close()
				return fmt.Errorf(
					"kernel and full replay disagree on feasibility at walk step %d (%s, bound %d): incremental err %v, full err %v",
					step, v, bound, incErr, fullErr)
			}
			if incErr != nil {
				continue // both infeasible at this order: nothing to compare
			}
			if incMs != fullMs || incPruned != fullPruned {
				ev.Close()
				return fmt.Errorf(
					"kernel and full replay disagree at walk step %d (%s, bound %d): incremental (ms %d, pruned %v) vs full (ms %d, pruned %v)",
					step, v, bound, incMs, incPruned, fullMs, fullPruned)
			}
			if !fullPruned {
				prevMs = fullMs
			}
		}
		ev.Close()
	}
	return nil
}

// transplant deep-copies a dominated regime's plan into the dominant
// regime's form: the power ceiling is replaced (zero lifts it, for
// inheritance into base; the donor's own ceiling keeps it, for
// inheritance into the preemptive regime) and the provenance recorded.
// The entries are copied so later inspection of the donor plan never
// sees mutations of the inherited one.
func transplant(p *plan.Plan, from string, limit float64) *plan.Plan {
	cp := *p
	cp.PowerLimit = limit
	cp.Algorithm = fmt.Sprintf("inherited(%s:%s)", from, p.Algorithm)
	cp.Entries = make([]plan.Entry, len(p.Entries))
	copy(cp.Entries, p.Entries)
	return &cp
}

// coreOrder recovers a scheduling order from a plan: the model core
// indices sorted by reservation start. It is not necessarily the exact
// order the producing pass used (simultaneous starts are ambiguous),
// but any permutation is a legal warm-start input.
func coreOrder(sys *soc.System, p *plan.Plan) ([]int, bool) {
	idx := make(map[int]int, len(sys.Cores))
	for i, pc := range sys.Cores {
		idx[pc.Core.ID] = i
	}
	order := make([]int, 0, len(sys.Cores))
	for _, e := range p.ByStart() {
		ci, ok := idx[e.CoreID]
		if !ok {
			return nil, false
		}
		order = append(order, ci)
	}
	if len(order) != len(sys.Cores) {
		return nil, false
	}
	return order, true
}

// wireReplayable reports whether the plan is guaranteed to meet its
// windows on the single-virtual-channel wormhole wire. Exclusive links
// keep concurrent tests off shared channels, but the simulator's
// routers still serialise streams that meet at a tile's local
// injection or ejection port — which happens exactly when two
// concurrent tests share a stream endpoint tile (packed meshes place
// several cores per tile), or when one test's stimulus and response
// paths cross the same channel. Such plans are legal (the analytic
// model assumes per-tile port bandwidth scales with its cores) but not
// wire-checkable, so the replay oracle skips them.
func wireReplayable(p *plan.Plan) bool {
	entries := p.ByStart()
	ends := func(e plan.Entry) [3]noc.Coord {
		return [3]noc.Coord{e.PathIn[0], e.PathIn[len(e.PathIn)-1], e.PathOut[len(e.PathOut)-1]}
	}
	for i, a := range entries {
		inLinks := make(map[noc.Link]bool)
		for _, l := range noc.PathLinks(a.PathIn) {
			inLinks[l] = true
		}
		for _, l := range noc.PathLinks(a.PathOut) {
			if inLinks[l] {
				return false
			}
		}
		for _, b := range entries[i+1:] {
			if b.Start >= a.End {
				break // ByStart order: no later entry overlaps a either
			}
			for _, ta := range ends(a) {
				for _, tb := range ends(b) {
					if ta == tb {
						return false
					}
				}
			}
		}
	}
	return true
}

// Config sizes a sweep.
type Config struct {
	// Scenarios is the number of scenarios drawn; zero selects 50.
	Scenarios int
	// Seed drives the whole sweep; scenario i gets a seed mixed from
	// (Seed, i), so any failing scenario reproduces from its own seed.
	Seed int64
	// Workers bounds concurrent scenario checks; zero selects
	// GOMAXPROCS.
	Workers int
	// Params shapes the scenario distributions; the zero value selects
	// the socgen defaults.
	Params socgen.ScenarioParams
	// Engine configures the oracles.
	Engine Engine
	// ShrinkDir, when non-empty, receives one shrunk reproduction file
	// per failing scenario (the first failure is minimised).
	ShrinkDir string
	// SkipBenchmarks omits the embedded-benchmark gap records (used by
	// fast unit tests; the CLI always includes them).
	SkipBenchmarks bool
}

func (c Config) withDefaults() Config {
	if c.Scenarios == 0 {
		c.Scenarios = 50
	}
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// OracleStat is one oracle's tally across a sweep.
type OracleStat struct {
	Name    string `json:"name"`
	Checked int    `json:"checked"`
	Failed  int    `json:"failed"`
}

// BenchmarkGap records how far the portfolio's best makespan sits above
// the analytic floor on one embedded benchmark under the canonical
// reproduction configuration — the tightness measure the sweep logs so
// the bound itself is kept honest against known systems.
type BenchmarkGap struct {
	Benchmark  string  `json:"benchmark"`
	Makespan   int     `json:"makespan"`
	LowerBound int     `json:"lower_bound"`
	Gap        float64 `json:"gap"`
}

// Summary is the machine-readable outcome of a sweep. For a fixed seed
// and configuration it is byte-identical across runs.
type Summary struct {
	Scenarios int          `json:"scenarios"`
	Seed      int64        `json:"seed"`
	Oracles   []OracleStat `json:"oracles"`
	// WorstGap is the largest makespan-over-bound ratio observed across
	// all scenarios and regimes, with its location.
	WorstGap   float64 `json:"worst_lower_bound_gap"`
	WorstGapAt string  `json:"worst_gap_at,omitempty"`
	// PreemptionWins counts scenarios where the preemptive regime's
	// best makespan strictly beat halfpower's; BestPreemptionDelta is
	// the largest such improvement in cycles, with its location. A
	// sweep with wins > 0 is the evidence that preemption pays on
	// contended systems, not just ties via inheritance.
	PreemptionWins      int    `json:"preemption_wins"`
	BestPreemptionDelta int    `json:"best_preemption_delta,omitempty"`
	BestPreemptionAt    string `json:"best_preemption_at,omitempty"`
	// BenchmarkGaps holds the embedded-benchmark tightness records.
	BenchmarkGaps []BenchmarkGap `json:"benchmark_gaps,omitempty"`
	Failures      []Failure      `json:"failures,omitempty"`
}

// Failed returns the total oracle violations.
func (s *Summary) Failed() int {
	n := 0
	for _, o := range s.Oracles {
		n += o.Failed
	}
	return n
}

// WriteJSON renders the summary with stable indentation.
func (s *Summary) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// scenarioSeed mixes the sweep seed and index (splitmix64 finaliser) so
// neighbouring sweeps draw unrelated scenario streams.
func scenarioSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// Sweep draws and checks cfg.Scenarios scenarios concurrently, shrinks
// any failures, and aggregates the deterministic summary. The error is
// non-nil only for harness-level problems (context cancellation, an
// unwritable shrink directory); oracle violations are reported in the
// summary, not as an error.
func Sweep(ctx context.Context, cfg Config) (*Summary, error) {
	cfg = cfg.withDefaults()
	reports := make([]*Report, cfg.Scenarios)
	scenarios := make([]socgen.Scenario, cfg.Scenarios)

	var wg sync.WaitGroup
	feed := make(chan int)
	errs := make([]error, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range feed {
				sc := socgen.NewScenario(scenarioSeed(cfg.Seed, i), cfg.Params)
				rep, err := cfg.Engine.Check(ctx, sc)
				if err != nil {
					errs[w] = err
					return
				}
				scenarios[i], reports[i] = sc, rep
			}
		}(w)
	}
feed:
	for i := 0; i < cfg.Scenarios; i++ {
		select {
		case feed <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(feed)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	sum := &Summary{Scenarios: cfg.Scenarios, Seed: cfg.Seed}
	checked := make(map[string]int)
	failed := make(map[string]int)
	for i, rep := range reports {
		if rep == nil {
			continue
		}
		for name, n := range rep.Checked {
			checked[name] += n
		}
		for _, f := range rep.Failures {
			failed[f.Oracle]++
		}
		for _, reg := range regimes {
			gap, ok := rep.Gaps[reg.name]
			if !ok {
				continue
			}
			if gap > sum.WorstGap {
				sum.WorstGap = gap
				sum.WorstGapAt = fmt.Sprintf("seed=%d regime=%s", scenarios[i].Seed, reg.name)
			}
		}
		if rep.PreemptionChecked && rep.PreemptionDelta > 0 {
			sum.PreemptionWins++
			if rep.PreemptionDelta > sum.BestPreemptionDelta {
				sum.BestPreemptionDelta = rep.PreemptionDelta
				sum.BestPreemptionAt = fmt.Sprintf("seed=%d", scenarios[i].Seed)
			}
		}
		if rep.Failed() {
			fs := rep.Failures
			if cfg.ShrinkDir != "" {
				shrunk, file, err := cfg.Engine.ShrinkToFile(ctx, scenarios[i], fs[0], cfg.ShrinkDir)
				if err != nil {
					return nil, err
				}
				fs[0].ShrunkFile = file
				fs[0].ShrunkCores = len(shrunk.SoC.Cores)
			}
			sum.Failures = append(sum.Failures, fs...)
		}
	}
	for _, name := range oracleNames {
		if checked[name] == 0 && failed[name] == 0 {
			continue
		}
		sum.Oracles = append(sum.Oracles, OracleStat{Name: name, Checked: checked[name], Failed: failed[name]})
	}
	sort.SliceStable(sum.Failures, func(a, b int) bool {
		return sum.Failures[a].ScenarioSeed < sum.Failures[b].ScenarioSeed
	})

	if !cfg.SkipBenchmarks {
		gaps, err := benchmarkGaps(ctx, cfg.Seed, cfg.Workers)
		if err != nil {
			return nil, err
		}
		sum.BenchmarkGaps = gaps
	}
	return sum, nil
}

// benchmarkGaps schedules the embedded benchmarks on the canonical
// reproduction cell (report.CanonicalSystem, the cell
// TestCanonicalMakespansPinned pins) and records makespan, floor and
// their ratio.
func benchmarkGaps(ctx context.Context, seed int64, workers int) ([]BenchmarkGap, error) {
	pf := core.Portfolio{Schedulers: core.DefaultPortfolio(seed), Workers: workers}
	var gaps []BenchmarkGap
	for _, name := range itc02.BenchmarkNames() {
		sys, opts, err := report.CanonicalSystem(name)
		if err != nil {
			return nil, err
		}
		m, err := core.Compile(sys, opts)
		if err != nil {
			return nil, err
		}
		res, err := pf.ScheduleModel(ctx, m)
		if err != nil {
			return nil, fmt.Errorf("verify: benchmark %s: %w", name, err)
		}
		bound := m.LowerBound().Cycles()
		gaps = append(gaps, BenchmarkGap{
			Benchmark:  name,
			Makespan:   res.Makespan(),
			LowerBound: bound,
			Gap:        float64(res.Makespan()) / float64(bound),
		})
	}
	return gaps, nil
}
