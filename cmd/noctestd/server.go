package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"noctest/internal/core"
	"noctest/internal/fault"
	"noctest/internal/itc02"
	"noctest/internal/resultstore"
	"noctest/internal/soc"
	"noctest/internal/socgen"
)

// serverConfig bounds the server's resources. Zero fields select the
// documented defaults via normalize.
type serverConfig struct {
	// cacheEntries bounds the compiled-model LRU.
	cacheEntries int
	// workers bounds concurrent scheduling jobs (compile + portfolio
	// race); queueDepth the extra requests parked waiting for a slot
	// before the server answers 429.
	workers    int
	queueDepth int
	// requestWorkers is the portfolio's Workers per request: 1 keeps a
	// request on one CPU so concurrent requests, not strategies, fill
	// the machine.
	requestWorkers int
	// defaultTimeout is the per-request deadline when ?timeout= is
	// absent; maxTimeout clamps client-supplied deadlines.
	defaultTimeout time.Duration
	maxTimeout     time.Duration
	// maxBody bounds uploads, bytes.
	maxBody int64
	// drainTimeout bounds graceful drain: after BeginDrain, in-flight
	// requests that outlive it are cancelled (returning their anytime
	// partial plans, as an expired ?timeout= already does).
	drainTimeout time.Duration
	// store, when non-nil, memoizes complete results persistently: a
	// repeat (model, search params) request replays the journalled
	// plan without re-racing. Nil disables memoization.
	store *resultstore.Store
	// faults, when non-nil, injects seeded failures at the named
	// points for chaos drills. Nil (production) is inert.
	faults *fault.Injector
}

func (c serverConfig) normalize() serverConfig {
	if c.cacheEntries == 0 {
		c.cacheEntries = 64
	}
	if c.workers < 1 {
		c.workers = runtime.GOMAXPROCS(0)
	}
	if c.queueDepth < 0 {
		c.queueDepth = 0
	}
	if c.requestWorkers < 1 {
		c.requestWorkers = 1
	}
	if c.defaultTimeout <= 0 {
		c.defaultTimeout = 30 * time.Second
	}
	if c.maxTimeout <= 0 {
		c.maxTimeout = 5 * time.Minute
	}
	if c.maxBody <= 0 {
		c.maxBody = 8 << 20
	}
	if c.drainTimeout <= 0 {
		c.drainTimeout = 30 * time.Second
	}
	return c
}

// server is the scheduling service: a model cache in front of the
// compile-once/search-many engine, plus a bounded scheduling pool so a
// request burst degrades into queueing and then explicit 429s instead
// of unbounded goroutines fighting for the CPUs.
type server struct {
	cfg   serverConfig
	cache *modelCache

	// slots is the scheduling pool: a job runs while it holds a slot.
	// queued counts requests holding-or-waiting-for slots; admission
	// compares it against workers+queueDepth before blocking, which is
	// what turns overload into 429 instead of a pile-up.
	slots  chan struct{}
	queued atomic.Int64

	requests, okCount, clientErrs, serverErrs, rejected atomic.Uint64

	// Drain state: draining flips on SIGTERM (readiness goes false, new
	// scheduling work is refused with 503), and drainCtx is cancelled
	// once the drain deadline passes, which cancels in-flight requests
	// into their anytime-partial path.
	draining    atomic.Bool
	drainOnce   sync.Once
	drainCtx    context.Context
	drainCancel context.CancelFunc
	drained     atomic.Uint64 // requests refused while draining

	// Robustness telemetry: HTTP handlers recovered to a 500 (each gets
	// an incident ID), and portfolio strategies that panicked but were
	// isolated by the engine.
	incidents      atomic.Uint64
	strategyPanics atomic.Uint64

	// Memoization telemetry (persistent result store, when configured).
	memoHits, memoMisses, memoStores, memoErrs atomic.Uint64
}

func newServer(cfg serverConfig) *server {
	cfg = cfg.normalize()
	s := &server{
		cfg:   cfg,
		cache: newModelCache(cfg.cacheEntries),
		slots: make(chan struct{}, cfg.workers),
	}
	s.drainCtx, s.drainCancel = context.WithCancel(context.Background())
	return s
}

// BeginDrain flips the server into draining: readiness reports 503,
// new /schedule requests are refused with 503 + Retry-After (a
// load balancer or retrying client moves them to another replica),
// and a timer arms so in-flight requests outliving cfg.drainTimeout
// are cancelled — each returns its anytime partial plan, exactly as
// an expired per-request deadline does. Idempotent.
func (s *server) BeginDrain() {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		time.AfterFunc(s.cfg.drainTimeout, s.drainCancel)
	})
}

// Handler returns the service's routes. Every route runs inside the
// panic guard: a handler panic is recovered to a 500 carrying an
// incident ID instead of killing the connection (or, unguarded, the
// whole process under http.Server's per-connection recover).
func (s *server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/schedule", s.guard(s.handleSchedule))
	mux.HandleFunc("/stats", s.guard(s.handleStats))
	// Liveness: the process is up and able to answer. Stays 200 while
	// draining — a liveness probe that failed during drain would get
	// the pod killed before its in-flight work finished.
	mux.HandleFunc("/healthz", s.guard(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.draining.Load() {
			io.WriteString(w, "ok (draining)\n")
			return
		}
		io.WriteString(w, "ok\n")
	}))
	// Readiness: willing to accept new scheduling work. 503 while
	// draining, so load balancers stop routing here before the drain
	// deadline starts cancelling anything.
	mux.HandleFunc("/readyz", s.guard(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, "draining\n")
			return
		}
		io.WriteString(w, "ready\n")
	}))
	return mux
}

// guard wraps a handler with recover-to-500: the panic is logged with
// a stack and an incident ID the 500 body echoes, so an operator can
// match a client-reported failure to one server-side stack. A request
// that already streamed its headers gets the incident line in its
// body — still a terminal, parse-stopping end to the stream.
func (s *server) guard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler {
				panic(v) // deliberate connection abort, not an incident
			}
			id := fmt.Sprintf("incident-%06d", s.incidents.Add(1))
			s.serverErrs.Add(1)
			log.Printf("noctestd: %s: panic serving %s %s: %v\n%s", id, r.Method, r.URL.Path, v, debug.Stack())
			http.Error(w, fmt.Sprintf("internal error (%s)", id), http.StatusInternalServerError)
		}()
		h(w, r)
	}
}

// scheduleParams is one request's decoded query string.
type scheduleParams struct {
	timeout     time.Duration
	stream      bool
	bypassCache bool
	search      string // "quick" (list rules only) or "full" (DefaultPortfolio)
	seed        int64

	// Placement and option parameters; all participate in the cache key.
	procs       int
	cpu         string
	topology    string
	failedLinks int
	power       float64
	bist        float64
	reuse       int // -1 all processors, 0 none, N first N
	exclusive   bool
	app         string
	maxSegments int
	resumeCost  int

	// placementSet records whether any placement parameter was given
	// explicitly; scenario uploads carry their own placement and reject
	// the conflict instead of silently ignoring half of it.
	placementSet bool
}

// scheduleParamNames lists every query parameter /schedule reads.
var scheduleParamNames = []string{
	"timeout", "stream", "cache", "search", "seed",
	"procs", "cpu", "topology", "failed-links", "power", "bist",
	"reuse", "exclusive-links", "app", "max-segments", "resume-cost",
}

// parseScheduleParams decodes a /schedule query string. An unknown
// parameter is an error: ignoring it would schedule a typo such as
// max_segments=4, or a parameter a client expects an older server to
// honour, with defaults while the client believes it was applied.
func parseScheduleParams(q url.Values, cfg serverConfig) (scheduleParams, error) {
	var unknown []string
	for name := range q {
		if !slices.Contains(scheduleParamNames, name) {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		slices.Sort(unknown)
		return scheduleParams{}, fmt.Errorf("unknown parameter %q: want one of %s", unknown[0], strings.Join(scheduleParamNames, ", "))
	}
	p := scheduleParams{
		timeout: cfg.defaultTimeout,
		search:  "full",
		seed:    1,
		cpu:     "leon",
		reuse:   -1,
		app:     "bist",
	}
	if raw := q.Get("timeout"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil {
			return p, fmt.Errorf("invalid timeout %q: %v", raw, err)
		}
		if d <= 0 {
			return p, fmt.Errorf("invalid timeout %q: per-request deadline must be positive", raw)
		}
		if d > cfg.maxTimeout {
			d = cfg.maxTimeout
		}
		p.timeout = d
	}
	var err error
	boolParam := func(name string, dst *bool) {
		if err != nil || !q.Has(name) {
			return
		}
		raw := q.Get(name)
		switch strings.ToLower(raw) {
		case "", "1", "true", "yes", "on":
			*dst = true
		case "0", "false", "no", "off":
			*dst = false
		default:
			err = fmt.Errorf("invalid %s %q: want a boolean", name, raw)
		}
	}
	intParam := func(name string, dst *int, min int, placement bool) {
		if err != nil || !q.Has(name) {
			return
		}
		v, perr := strconv.Atoi(q.Get(name))
		if perr != nil || v < min {
			err = fmt.Errorf("invalid %s %q: want an integer >= %d", name, q.Get(name), min)
			return
		}
		*dst = v
		if placement {
			p.placementSet = true
		}
	}
	floatParam := func(name string, dst *float64, min float64) {
		if err != nil || !q.Has(name) {
			return
		}
		v, perr := strconv.ParseFloat(q.Get(name), 64)
		if perr != nil || v < min {
			err = fmt.Errorf("invalid %s %q: want a number >= %g", name, q.Get(name), min)
			return
		}
		*dst = v
	}
	stringParam := func(name string, dst *string, allowed []string, placement bool) {
		if err != nil || !q.Has(name) {
			return
		}
		raw := strings.ToLower(q.Get(name))
		for _, a := range allowed {
			if raw == a {
				*dst = raw
				if placement {
					p.placementSet = true
				}
				return
			}
		}
		err = fmt.Errorf("invalid %s %q: want one of %s", name, q.Get(name), strings.Join(allowed, "|"))
	}
	boolParam("stream", &p.stream)
	if q.Has("cache") {
		switch strings.ToLower(q.Get("cache")) {
		case "no", "bypass", "0", "false", "off":
			p.bypassCache = true
		case "", "yes", "1", "true", "on":
		default:
			err = fmt.Errorf("invalid cache %q: want yes or no", q.Get("cache"))
		}
	}
	stringParam("search", &p.search, []string{"quick", "full"}, false)
	if err == nil && q.Has("seed") {
		v, perr := strconv.ParseInt(q.Get("seed"), 10, 64)
		if perr != nil {
			err = fmt.Errorf("invalid seed %q: want an integer", q.Get("seed"))
		} else {
			p.seed = v
		}
	}
	intParam("procs", &p.procs, 0, true)
	stringParam("cpu", &p.cpu, []string{"leon", "plasma"}, true)
	stringParam("topology", &p.topology, []string{"mesh", "torus"}, true)
	intParam("failed-links", &p.failedLinks, 0, true)
	floatParam("power", &p.power, 0)
	floatParam("bist", &p.bist, 0)
	intParam("reuse", &p.reuse, -1, false)
	boolParam("exclusive-links", &p.exclusive)
	stringParam("app", &p.app, []string{"bist", "decompression"}, false)
	intParam("max-segments", &p.maxSegments, 0, false)
	intParam("resume-cost", &p.resumeCost, 0, false)
	return p, err
}

// coreOptions translates the request into engine options. Placement
// fields are consumed by buildModel instead.
func (p scheduleParams) coreOptions() core.Options {
	opts := core.Options{
		PowerLimitFraction: p.power,
		BISTPatternFactor:  p.bist,
		ExclusiveLinks:     p.exclusive,
		MaxSegments:        p.maxSegments,
		ResumeCycles:       p.resumeCost,
	}
	switch p.reuse {
	case -1:
	case 0:
		opts.DisableReuse = true
	default:
		opts.MaxReusedProcessors = p.reuse
	}
	if p.app == "decompression" {
		opts.Application = core.DecompressionApplication
	}
	return opts
}

// cacheKey hashes the upload together with every compile-relevant
// parameter, so one cached model is exactly one (system, options,
// topology) point. Search-side parameters — seed, search,
// timeout, stream — stay out: they shape the race, not the model, and
// one cached model serves them all. The failed-link seed enters only
// when links actually fail; otherwise it does not affect the build.
func (p scheduleParams) cacheKey(body []byte) string {
	flSeed := int64(0)
	if p.failedLinks > 0 {
		flSeed = p.seed
	}
	params := fmt.Sprintf("procs=%d|cpu=%s|topology=%s|failed=%d|flseed=%d|power=%g|bist=%g|reuse=%d|exclusive=%t|app=%s|maxsegs=%d|resume=%d",
		p.procs, p.cpu, p.topology, p.failedLinks, flSeed,
		p.power, p.bist, p.reuse, p.exclusive, p.app, p.maxSegments, p.resumeCost)
	h := sha256.New()
	h.Write(body)
	h.Write([]byte{0})
	h.Write([]byte(params))
	return hex.EncodeToString(h.Sum(nil))
}

// memoKey extends the model cache key with the search-side parameters
// that shape the race's outcome. A complete (non-partial) result is a
// pure function of (model, scheduler set, seed) — ScheduleModel is
// interleaving-independent by contract — so the memo key must add
// exactly search and seed to the compile key, and nothing
// timing-dependent like the request deadline.
func (p scheduleParams) memoKey(body []byte) string {
	return p.cacheKey(body) + fmt.Sprintf("|search=%s|seed=%d", p.search, p.seed)
}

// memoHead is the journalled form of one complete result, less its
// plan: exactly the response fields a replay reproduces
// bit-identically. Timings and per-strategy statistics stay out — they
// describe the original run, not the answer.
type memoHead struct {
	System   string `json:"system"`
	Makespan int    `json:"makespan"`
	Best     string `json:"best"`
}

// memoRecord is one journal record: the head's fields, then the plan's
// compact JSON, written by withPlan and read back verbatim.
type memoRecord struct {
	memoHead
	Plan json.RawMessage `json:"plan"`
}

// memoResponse renders a journal record as a memo-hit response. The
// journalled plan bytes go out as they were written: compact, the one
// plan format.
func memoResponse(raw []byte) ([]byte, error) {
	var rec memoRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return nil, err
	}
	return withPlan(&resultHead{System: rec.System, Makespan: rec.Makespan, Best: rec.Best, Cache: "memo"}, rec.Plan)
}

// panicStrategy is the fault injector's sched.panic payload: a
// portfolio member that panics mid-race, exercising the engine's
// panic isolation end to end (the race must degrade to the surviving
// strategies and the request must still answer 200).
type panicStrategy struct{}

func (panicStrategy) Name() string { return "fault.panic" }

func (panicStrategy) Search(context.Context, *core.Model, *core.Incumbent) (core.Candidate, error) {
	panic("injected strategy panic (sched.panic)")
}

// slowStrategy is the fault injector's sched.slow payload: a portfolio
// member that finds nothing and returns only once its delay has passed
// or the request's context has ended. It holds a race open past any
// shorter deadline, so tests can exercise the anytime-partial, drain
// and disconnect paths deterministically.
type slowStrategy struct{ delay time.Duration }

func (slowStrategy) Name() string { return "fault.slow" }

func (s slowStrategy) Search(ctx context.Context, _ *core.Model, _ *core.Incumbent) (core.Candidate, error) {
	t := time.NewTimer(s.delay)
	defer t.Stop()
	select {
	case <-t.C:
		return core.Candidate{}, fault.Errorf("slow strategy waited %v and found nothing", s.delay)
	case <-ctx.Done():
		return core.Candidate{}, ctx.Err()
	}
}

// isScenario reports whether an upload is a socgen scenario file (its
// "# scenario" header line) rather than a plain itc02 description.
func isScenario(body []byte) bool {
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "# scenario ") {
			return true
		}
	}
	return false
}

// buildModel parses the upload and compiles it under the request's
// options. Every error here is the client's: a malformed upload or an
// inconsistent parameter set.
func buildModel(body []byte, p scheduleParams) (*core.Model, error) {
	opts := p.coreOptions()
	if isScenario(body) {
		sc, err := socgen.ParseScenario(string(body))
		if err != nil {
			return nil, err
		}
		sys, err := sc.Build()
		if err != nil {
			return nil, err
		}
		// The scenario header, not the query string, carries the
		// preemption regime of a scenario upload.
		opts.MaxSegments = sc.MaxSegments
		opts.ResumeCycles = sc.ResumeCost
		return core.Compile(sys, opts)
	}
	bench, err := itc02.Parse(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	cfg := soc.BuildConfig{
		Processors:      p.procs,
		Topology:        p.topology,
		FailedLinkCount: p.failedLinks,
		FailedLinkSeed:  p.seed,
	}
	if p.procs > 0 {
		profile, err := soc.ProfileByName(p.cpu)
		if err != nil {
			return nil, err
		}
		cfg.Profile = profile
	}
	sys, err := soc.Build(bench, cfg)
	if err != nil {
		return nil, err
	}
	return core.Compile(sys, opts)
}

// schedulers returns the request's strategy set: "quick" is the seven
// deterministic list rules (microsecond-scale, throughput serving),
// "full" the whole default portfolio (search-quality serving).
func (p scheduleParams) schedulers() []core.Scheduler {
	if p.search == "quick" {
		return core.ListRules()
	}
	return core.DefaultPortfolio(p.seed)
}

// strategyJSON is one portfolio member's outcome in the response.
type strategyJSON struct {
	Name      string  `json:"name"`
	Makespan  int     `json:"makespan,omitempty"`
	ElapsedMs float64 `json:"elapsed_ms"`
	Err       string  `json:"err,omitempty"`
}

// resultHead is the final JSON document of a /schedule call (and the
// "result" event of a streamed one), less its last field, the plan.
type resultHead struct {
	Event      string         `json:"event,omitempty"`
	System     string         `json:"system"`
	Makespan   int            `json:"makespan"`
	Best       string         `json:"best"`
	Cache      string         `json:"cache"` // hit | miss | bypass | memo
	CompileMs  float64        `json:"compile_ms"`
	ScheduleMs float64        `json:"schedule_ms"`
	Partial    bool           `json:"partial"`
	Strategies []strategyJSON `json:"strategies"`
}

// withPlan returns head's JSON object with one more, last field,
// "plan", holding planJSON verbatim. The plan is encoded once,
// compactly, by plan.WriteJSON; splicing those bytes in, instead of
// wrapping them in a json.RawMessage, spares encoding/json re-scanning
// and re-compacting the largest field of every response and journal
// record. The result has room for a trailing newline.
func withPlan(head any, planJSON []byte) ([]byte, error) {
	b, err := json.Marshal(head)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(b)+len(planJSON)+len(`,"plan":}`)+1)
	out = append(out, b[:len(b)-1]...) // the object minus its closing brace
	if len(b) > 2 {
		out = append(out, ',')
	}
	out = append(out, `"plan":`...)
	out = append(out, planJSON...)
	return append(out, '}'), nil
}

// streamEvent is one NDJSON line before the result: the model became
// ready, or the race's running best improved.
type streamEvent struct {
	Event     string  `json:"event"` // "model" | "improvement" | "error"
	System    string  `json:"system,omitempty"`
	Cache     string  `json:"cache,omitempty"`
	CompileMs float64 `json:"compile_ms,omitempty"`
	Scheduler string  `json:"scheduler,omitempty"`
	Makespan  int     `json:"makespan,omitempty"`
	ElapsedMs float64 `json:"elapsed_ms,omitempty"`
	Error     string  `json:"error,omitempty"`
	Status    int     `json:"status,omitempty"`
}

func (s *server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if r.Method != http.MethodPost {
		s.clientErrs.Add(1)
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST an itc02 or scenario description", http.StatusMethodNotAllowed)
		return
	}
	if s.draining.Load() {
		// Draining: this replica finishes what it holds but takes no
		// new scheduling work. 503 + Retry-After sends retrying
		// clients (and load balancers watching /readyz) elsewhere.
		s.drained.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "server is draining", http.StatusServiceUnavailable)
		return
	}
	p, err := parseScheduleParams(r.URL.Query(), s.cfg)
	if err != nil {
		s.clientErrs.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.maxBody))
	if err != nil {
		s.clientErrs.Add(1)
		http.Error(w, fmt.Sprintf("reading upload: %v", err), http.StatusBadRequest)
		return
	}
	if len(bytes.TrimSpace(body)) == 0 {
		s.clientErrs.Add(1)
		http.Error(w, "empty upload: POST an itc02 or scenario description", http.StatusBadRequest)
		return
	}
	scenario := isScenario(body)
	if scenario && p.placementSet {
		s.clientErrs.Add(1)
		http.Error(w, "scenario uploads carry their own placement: procs/cpu/topology/failed-links query parameters conflict with the \"# scenario\" header", http.StatusBadRequest)
		return
	}

	// Persistent memoization: a complete result for the same (model,
	// search params) replays from the journal without taking a pool
	// slot or re-racing anything. ?cache=no bypasses it (the cold
	// regime must stay measurable) and streams skip the lookup — a
	// streaming client asked to watch the race, not read its cache.
	memoKey := ""
	if s.cfg.store != nil && !p.bypassCache {
		memoKey = p.memoKey(body)
		if !p.stream {
			if raw, ok := s.cfg.store.Get(memoKey); ok {
				if out, err := memoResponse(raw); err == nil {
					s.memoHits.Add(1)
					s.okCount.Add(1)
					w.Header().Set("Content-Type", "application/json")
					w.Write(append(out, '\n'))
					return
				}
				// An undecodable record is treated as a miss; the journal
				// checksums make this unreachable short of a logic bug.
				s.memoErrs.Add(1)
			}
			s.memoMisses.Add(1)
		}
	}

	// The deadline covers the whole job — queue wait, compile, race —
	// so a client's budget bounds its true latency, not just the search.
	ctx, cancel := context.WithTimeout(r.Context(), p.timeout)
	defer cancel()
	// Drain integration: once the drain deadline passes, in-flight
	// requests are cancelled too, collapsing into the same anytime-
	// partial path an expired ?timeout= takes.
	defer context.AfterFunc(s.drainCtx, cancel)()

	// Admission: refuse immediately once workers+queueDepth jobs are
	// already holding or awaiting slots, otherwise wait for a slot (the
	// deadline still ticking).
	if s.queued.Add(1) > int64(s.cfg.workers+s.cfg.queueDepth) {
		s.queued.Add(-1)
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "scheduling queue full", http.StatusTooManyRequests)
		return
	}
	defer s.queued.Add(-1)
	select {
	case s.slots <- struct{}{}:
		defer func() { <-s.slots }()
	case <-ctx.Done():
		s.clientErrs.Add(1)
		http.Error(w, "deadline expired while queued for a scheduling slot", http.StatusGatewayTimeout)
		return
	}

	// Resolve the model: cache hit, shared in-flight compile, or a
	// fresh compile (miss or explicit bypass). The compile function is
	// where the compile fault points live: a slow compile stalls here
	// (bounded by the request deadline), an injected compile error
	// surfaces as a transient 500 below — and is never cached.
	compile := func() (*core.Model, error) {
		if d, ok := s.cfg.faults.Delay(fault.CompileSlow); ok {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if s.cfg.faults.Should(fault.CompileErr) {
			return nil, fault.Errorf("compile of %d-byte upload", len(body))
		}
		return buildModel(body, p)
	}
	compileStart := time.Now()
	var m *core.Model
	cacheState := "miss"
	if p.bypassCache {
		cacheState = "bypass"
		m, err = s.cache.Bypass(compile)
	} else {
		var hit bool
		m, hit, err = s.cache.Get(p.cacheKey(body), compile)
		if hit {
			cacheState = "hit"
		}
	}
	compileMs := float64(time.Since(compileStart)) / float64(time.Millisecond)
	if err != nil {
		switch {
		case errors.Is(err, fault.ErrInjected):
			// A drill-injected transient, not a property of the upload:
			// answer a retryable 500 (and the cache has already dropped
			// the errored entry, so the retry recompiles).
			s.serverErrs.Add(1)
			http.Error(w, fmt.Sprintf("transient compile failure: %v", err), http.StatusInternalServerError)
		case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
			s.clientErrs.Add(1)
			http.Error(w, "deadline expired while compiling the model", http.StatusGatewayTimeout)
		default:
			s.clientErrs.Add(1)
			http.Error(w, fmt.Sprintf("upload does not compile: %v", err), http.StatusBadRequest)
		}
		return
	}

	var stream *json.Encoder
	flush := func() {}
	if p.stream {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		stream = json.NewEncoder(w)
		if f, ok := w.(http.Flusher); ok {
			flush = f.Flush
		}
		stream.Encode(streamEvent{Event: "model", System: m.System().Name, Cache: cacheState, CompileMs: compileMs})
		flush()
	}

	// Race the portfolio. Run state is per-call, so concurrent requests
	// may share one cached model freely; the Progress hook forwards the
	// run's anytime improvements onto the stream as they land. A
	// sched.panic drill appends a panicking member: the engine isolates
	// it and the race degrades to the survivors. A sched.slow drill
	// appends a member that holds the race open for its delay.
	scheds := p.schedulers()
	if s.cfg.faults.Should(fault.SchedPanic) {
		scheds = append(scheds, panicStrategy{})
	}
	if d, ok := s.cfg.faults.Delay(fault.SchedSlow); ok {
		scheds = append(scheds, slowStrategy{delay: d})
	}
	pf := core.Portfolio{Schedulers: scheds, Workers: s.cfg.requestWorkers}
	if stream != nil {
		pf.Progress = func(ev core.ProgressEvent) {
			if stream.Encode(streamEvent{
				Event:     "improvement",
				Scheduler: ev.Scheduler,
				Makespan:  ev.Makespan,
				ElapsedMs: float64(ev.Elapsed) / float64(time.Millisecond),
			}) != nil {
				// The streaming client is gone (net/http usually cancels
				// r.Context() itself, but a half-dead proxied connection
				// can surface only as write errors): cancel the race so
				// the pool slot frees promptly instead of searching for a
				// reader that left.
				cancel()
			}
			flush()
		}
	}
	scheduleStart := time.Now()
	res, err := pf.ScheduleModel(ctx, m)
	scheduleMs := float64(time.Since(scheduleStart)) / float64(time.Millisecond)
	if res != nil {
		if n := res.Panics(); n > 0 {
			s.strategyPanics.Add(uint64(n))
		}
	}
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, core.ErrUnschedulable):
			// A property of the uploaded system under these options, not
			// of the server: no interface can carry some test.
			status = http.StatusUnprocessableEntity
		case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
			// The deadline expired before any strategy finished, so there
			// is no anytime plan to return.
			status = http.StatusGatewayTimeout
		}
		if status == http.StatusInternalServerError {
			s.serverErrs.Add(1)
		} else {
			s.clientErrs.Add(1)
		}
		if stream != nil {
			stream.Encode(streamEvent{Event: "error", Error: err.Error(), Status: status})
			flush()
			return
		}
		http.Error(w, err.Error(), status)
		return
	}

	resp := resultHead{
		System:     m.System().Name,
		Makespan:   res.Plan.Makespan(),
		Best:       res.Best,
		Cache:      cacheState,
		CompileMs:  compileMs,
		ScheduleMs: scheduleMs,
		// The deadline fired mid-race and this is the anytime best of
		// the strategies that did finish.
		Partial: ctx.Err() != nil,
	}
	for _, vr := range res.Results {
		if vr.Scheduler == "" {
			continue // never started before the deadline
		}
		sj := strategyJSON{Name: vr.Scheduler, Makespan: vr.Makespan,
			ElapsedMs: float64(vr.Elapsed) / float64(time.Millisecond)}
		if vr.Err != nil {
			sj.Err = vr.Err.Error()
		}
		resp.Strategies = append(resp.Strategies, sj)
	}
	// The plan is encoded exactly once; the response, the stream's
	// result event and the journal record all splice in these bytes.
	var planBuf bytes.Buffer
	if err := res.Plan.WriteJSON(&planBuf); err != nil {
		s.serverErrs.Add(1)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	planJSON := bytes.TrimSpace(planBuf.Bytes())
	if stream != nil {
		resp.Event = "result"
	}
	out, err := withPlan(&resp, planJSON)
	if err != nil {
		s.serverErrs.Add(1)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	// Journal complete results only: a partial plan depends on when the
	// deadline fired, a complete one is a deterministic function of the
	// memo key. A failed journal append is counted, never fatal — losing
	// a memo costs a future re-race, not this answer.
	if memoKey != "" && !resp.Partial {
		rec, merr := withPlan(&memoHead{System: resp.System, Makespan: resp.Makespan, Best: resp.Best}, planJSON)
		if merr == nil {
			merr = s.cfg.store.Put(memoKey, rec)
		}
		if merr != nil {
			s.memoErrs.Add(1)
		} else {
			s.memoStores.Add(1)
		}
	}
	s.okCount.Add(1)
	if stream == nil {
		w.Header().Set("Content-Type", "application/json")
	}
	w.Write(append(out, '\n'))
	flush()
}

// statsResponse is the /stats document; the load benchmark diffs it
// around each phase.
type statsResponse struct {
	Cache struct {
		Entries   int    `json:"entries"`
		Capacity  int    `json:"capacity"`
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Bypassed  uint64 `json:"bypassed"`
		Evictions uint64 `json:"evictions"`
		Compiles  uint64 `json:"compiles"`
	} `json:"cache"`
	Pool struct {
		Workers    int    `json:"workers"`
		QueueDepth int    `json:"queue_depth"`
		Running    int    `json:"running"`
		Queued     int64  `json:"queued"`
		Rejected   uint64 `json:"rejected"`
	} `json:"pool"`
	Requests struct {
		Total        uint64 `json:"total"`
		OK           uint64 `json:"ok"`
		ClientErrors uint64 `json:"client_errors"`
		ServerErrors uint64 `json:"server_errors"`
	} `json:"requests"`
	Memo struct {
		Enabled bool `json:"enabled"`
		// Entries/Recovered/TruncatedBytes/Dead mirror the store; Hits
		// are requests answered from the journal without re-racing.
		Entries        int    `json:"entries"`
		Hits           uint64 `json:"hits"`
		Misses         uint64 `json:"misses"`
		Stores         uint64 `json:"stores"`
		WriteErrors    uint64 `json:"write_errors"`
		Recovered      int    `json:"recovered"`
		TruncatedBytes int64  `json:"truncated_bytes"`
		Dead           bool   `json:"dead"`
	} `json:"memo"`
	Robustness struct {
		// Draining reports the readiness state; DrainRejected the
		// requests refused while draining.
		Draining      bool   `json:"draining"`
		DrainRejected uint64 `json:"drain_rejected"`
		// Incidents counts handler panics recovered to 500s;
		// StrategyPanics portfolio members that panicked and were
		// isolated while their race degraded to the survivors.
		Incidents      uint64 `json:"incidents"`
		StrategyPanics uint64 `json:"strategy_panics"`
	} `json:"robustness"`
	Faults struct {
		// Spec is the active injection spec ("off" in production);
		// Points per-point drawn/fired telemetry.
		Spec   string                 `json:"spec"`
		Points map[string]fault.Count `json:"points,omitempty"`
	} `json:"faults"`
	Search struct {
		// Models is how many ready cached models the counters below
		// aggregate over; in-flight compiles are skipped, so the numbers
		// lag an active compile but never block the endpoint.
		Models   int    `json:"models"`
		Orders   uint64 `json:"orders"`
		Placed   uint64 `json:"placed"`
		Replayed uint64 `json:"replayed"`
		Pruned   uint64 `json:"pruned"`
		// DeltaHits counts evaluations answered from the kernel's
		// checkpoints with zero placements (core.SearchStats.DeltaHits).
		DeltaHits    uint64  `json:"delta_hits"`
		DeltaHitRate float64 `json:"delta_hit_rate"`
	} `json:"search"`
}

func (s *server) stats() statsResponse {
	var st statsResponse
	st.Cache.Entries = s.cache.Len()
	st.Cache.Capacity = s.cfg.cacheEntries
	st.Cache.Hits = s.cache.hits.Load()
	st.Cache.Misses = s.cache.misses.Load()
	st.Cache.Bypassed = s.cache.bypassed.Load()
	st.Cache.Evictions = s.cache.evictions.Load()
	st.Cache.Compiles = s.cache.compiles.Load()
	st.Pool.Workers = s.cfg.workers
	st.Pool.QueueDepth = s.cfg.queueDepth
	st.Pool.Running = len(s.slots)
	st.Pool.Queued = s.queued.Load()
	st.Pool.Rejected = s.rejected.Load()
	st.Requests.Total = s.requests.Load()
	st.Requests.OK = s.okCount.Load()
	st.Requests.ClientErrors = s.clientErrs.Load()
	st.Requests.ServerErrors = s.serverErrs.Load()
	if s.cfg.store != nil {
		ss := s.cfg.store.Stats()
		st.Memo.Enabled = true
		st.Memo.Entries = ss.Entries
		st.Memo.Recovered = ss.Recovered
		st.Memo.TruncatedBytes = ss.TruncatedBytes
		st.Memo.Dead = ss.Dead
		st.Memo.Hits = s.memoHits.Load()
		st.Memo.Misses = s.memoMisses.Load()
		st.Memo.Stores = s.memoStores.Load()
		st.Memo.WriteErrors = s.memoErrs.Load()
	}
	st.Robustness.Draining = s.draining.Load()
	st.Robustness.DrainRejected = s.drained.Load()
	st.Robustness.Incidents = s.incidents.Load()
	st.Robustness.StrategyPanics = s.strategyPanics.Load()
	st.Faults.Spec = s.cfg.faults.String()
	st.Faults.Points = s.cfg.faults.Counts()
	search, models := s.cache.SearchStats()
	st.Search.Models = models
	st.Search.Orders = search.Orders
	st.Search.Placed = search.Placed
	st.Search.Replayed = search.Replayed
	st.Search.Pruned = search.Pruned
	st.Search.DeltaHits = search.DeltaHits
	if search.Orders > 0 {
		st.Search.DeltaHitRate = float64(search.DeltaHits) / float64(search.Orders)
	}
	return st
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.stats())
}
