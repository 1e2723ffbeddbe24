// Package fault is a seeded, deterministic fault injector for the
// serving layer's robustness tests. An Injector owns a set of named
// failure points — places in the server where production has seen (or
// will see) things go wrong: a compile that errors, a compile that
// stalls, a scheduler that panics or stalls, a result-store write that
// fails, a journal record torn in half by a crash. Each point carries a
// firing probability drawn from its own seeded stream, so the nth
// decision at a point is a pure function of (seed, point, n) no matter
// how calls to *other* points interleave — a chaos run is reproducible
// from its seed alone.
//
// Injection is off by default everywhere: a nil *Injector is valid,
// answers "no" at every point for free, and is what production runs.
// Tests and chaos drills enable it with a spec string:
//
//	seed=7;compile.err=0.2;compile.slow=0.1:25ms;sched.panic=0.05;sched.slow=0.1:1s;store.write=0.3
//
// Grammar: entries separated by ";" (whitespace around entries is
// ignored). "seed=N" sets the decision seed (default 1). Every other
// entry is "<point>=<probability>" with an optional ":<duration>"
// argument (used by the delay points compile.slow and sched.slow).
// Probabilities are floats in [0, 1]; unknown point names are errors so
// a typo can never silently disable a drill. The empty string and "off"
// parse to a nil Injector.
package fault

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Point names one failure site threaded through the server.
type Point string

// The known failure points. Each names the operation that fails, not
// the symptom: the site decides what an injected failure looks like.
const (
	// CompileErr makes a model compile return an injected error
	// (wrapping ErrInjected) instead of running.
	CompileErr Point = "compile.err"
	// CompileSlow stalls a model compile for the point's duration
	// argument (default 10ms) before it runs.
	CompileSlow Point = "compile.slow"
	// SchedPanic adds a panicking strategy to a request's portfolio
	// race, exercising the engine's panic isolation.
	SchedPanic Point = "sched.panic"
	// SchedSlow adds a strategy to a request's portfolio race that
	// waits out the point's duration argument (default 10ms) or the
	// request's context, whichever ends first, and finds nothing: a
	// race that outlasts any deadline shorter than the argument.
	SchedSlow Point = "sched.slow"
	// StoreWrite makes a result-store append fail cleanly: nothing is
	// written, the store stays usable.
	StoreWrite Point = "store.write"
	// StoreTorn tears a result-store append in half — the journal gets
	// a partial record, as a crash mid-write would leave — and the
	// store considers its writer dead from then on.
	StoreTorn Point = "store.torn"
)

// Points lists every known failure point, in spec order.
var Points = []Point{CompileErr, CompileSlow, SchedPanic, SchedSlow, StoreWrite, StoreTorn}

// ErrInjected marks an error as injected by a fault drill rather than
// produced by real work. Handlers classify injected failures as
// transient server errors (retryable 5xx), never as client errors.
var ErrInjected = errors.New("injected fault")

// Count is one point's telemetry: how many decisions were drawn and
// how many fired.
type Count struct {
	Checked uint64 `json:"checked"`
	Fired   uint64 `json:"fired"`
}

// pointState is one point's probability, optional argument, and seeded
// decision stream. The rng is guarded by mu: decisions at one point
// are serialized, which is what makes the nth decision deterministic.
type pointState struct {
	mu      sync.Mutex
	prob    float64
	arg     time.Duration
	rng     *rand.Rand
	checked uint64
	fired   uint64
}

// Injector draws seeded fault decisions at named points. The zero
// value is not useful; build one with Parse. A nil Injector is the
// production configuration: every method is nil-safe and inert.
type Injector struct {
	seed   int64
	mu     sync.RWMutex // guards the points map (SetProbability may grow it)
	points map[Point]*pointState
}

// state looks a point up under the read lock.
func (in *Injector) state(p Point) *pointState {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.points[p]
}

// Parse builds an Injector from a spec string. The empty string and
// "off" return (nil, nil): injection disabled.
func Parse(spec string) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "off" {
		return nil, nil
	}
	in := &Injector{seed: 1, points: make(map[Point]*pointState)}
	known := make(map[Point]bool, len(Points))
	for _, p := range Points {
		known[p] = true
	}
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, value, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("fault: entry %q is not name=value", entry)
		}
		name = strings.TrimSpace(name)
		value = strings.TrimSpace(value)
		if name == "seed" {
			s, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: invalid seed %q: %v", value, err)
			}
			in.seed = s
			continue
		}
		p := Point(name)
		if !known[p] {
			return nil, fmt.Errorf("fault: unknown point %q (have %s)", name, pointNames())
		}
		probStr, argStr, hasArg := strings.Cut(value, ":")
		prob, err := strconv.ParseFloat(probStr, 64)
		if err != nil || prob < 0 || prob > 1 {
			return nil, fmt.Errorf("fault: invalid probability %q for %s: want a float in [0, 1]", probStr, name)
		}
		st := &pointState{prob: prob}
		if hasArg {
			d, err := time.ParseDuration(argStr)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("fault: invalid argument %q for %s: want a non-negative duration", argStr, name)
			}
			st.arg = d
		}
		in.points[p] = st
	}
	// Each point draws from its own stream, seeded by (seed, point), so
	// decision sequences are independent across points and reproducible
	// per point regardless of cross-point interleaving.
	for p, st := range in.points {
		h := fnv.New64a()
		h.Write([]byte(p))
		st.rng = rand.New(rand.NewSource(in.seed ^ int64(h.Sum64())))
	}
	return in, nil
}

func pointNames() string {
	names := make([]string, len(Points))
	for i, p := range Points {
		names[i] = string(p)
	}
	return strings.Join(names, ", ")
}

// Should draws the point's next decision: true means the fault fires.
// A nil Injector, and a point absent from the spec, never fire.
func (in *Injector) Should(p Point) bool {
	if in == nil {
		return false
	}
	st := in.state(p)
	if st == nil {
		return false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.checked++
	if st.prob <= 0 || st.rng.Float64() >= st.prob {
		return false
	}
	st.fired++
	return true
}

// Delay draws the point's next decision and, when it fires, returns
// the point's duration argument (10ms when the spec gave none).
func (in *Injector) Delay(p Point) (time.Duration, bool) {
	if !in.Should(p) {
		return 0, false
	}
	st := in.state(p)
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.arg <= 0 {
		return 10 * time.Millisecond, true
	}
	return st.arg, true
}

// SetProbability replaces a point's firing probability at runtime —
// the lever tests and drills use to script phase changes ("now the
// store is gone": SetProbability(StoreWrite, 1)). Setting a point the
// spec did not name adds it with a fresh seeded stream. Values outside
// [0, 1] are clamped. Safe on a nil Injector (no-op).
func (in *Injector) SetProbability(p Point, prob float64) {
	if in == nil {
		return
	}
	if prob < 0 {
		prob = 0
	}
	if prob > 1 {
		prob = 1
	}
	in.mu.Lock()
	st, ok := in.points[p]
	if !ok {
		h := fnv.New64a()
		h.Write([]byte(p))
		st = &pointState{rng: rand.New(rand.NewSource(in.seed ^ int64(h.Sum64())))}
		in.points[p] = st
	}
	in.mu.Unlock()
	st.mu.Lock()
	st.prob = prob
	st.mu.Unlock()
}

// Seed returns the injector's decision seed (0 for nil: no drill).
func (in *Injector) Seed() int64 {
	if in == nil {
		return 0
	}
	return in.seed
}

// Counts returns per-point telemetry, keyed by point name. Nil
// injectors return nil.
func (in *Injector) Counts() map[string]Count {
	if in == nil {
		return nil
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	out := make(map[string]Count, len(in.points))
	for p, st := range in.points {
		st.mu.Lock()
		out[string(p)] = Count{Checked: st.checked, Fired: st.fired}
		st.mu.Unlock()
	}
	return out
}

// String renders the injector back into canonical spec form (sorted
// points). A nil Injector renders "off".
func (in *Injector) String() string {
	if in == nil {
		return "off"
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	entries := []string{fmt.Sprintf("seed=%d", in.seed)}
	names := make([]string, 0, len(in.points))
	for p := range in.points {
		names = append(names, string(p))
	}
	sort.Strings(names)
	for _, name := range names {
		st := in.points[Point(name)]
		st.mu.Lock()
		e := fmt.Sprintf("%s=%g", name, st.prob)
		if st.arg > 0 {
			e += ":" + st.arg.String()
		}
		st.mu.Unlock()
		entries = append(entries, e)
	}
	return strings.Join(entries, ";")
}

// Errorf builds an error wrapping ErrInjected, so handlers can
// classify drill failures with errors.Is.
func Errorf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInjected, fmt.Sprintf(format, args...))
}
