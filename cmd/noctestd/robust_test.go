package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"noctest/internal/core"
	"noctest/internal/fault"
	"noctest/internal/resultstore"
)

func openStore(t *testing.T, path string, opts resultstore.Options) *resultstore.Store {
	t.Helper()
	store, err := resultstore.Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

// TestMemoization pins the persistent-memo contract: a repeat complete
// request replays from the journal ("memo") bit-identically, a
// different search seed is a different memo key, and ?cache=no skips
// the memo entirely so cold costs stay measurable.
func TestMemoization(t *testing.T) {
	leakCheck(t)
	store := openStore(t, filepath.Join(t.TempDir(), "j"), resultstore.Options{})
	s := newServer(serverConfig{store: store})
	body := benchBody(t, "d695")
	q := "procs=6&cpu=leon&power=0.5&bist=3&search=quick"

	first := decodeSchedule(t, post(s, q, body))
	if first.Cache != "miss" {
		t.Fatalf("first request cache = %q, want miss", first.Cache)
	}
	second := decodeSchedule(t, post(s, q, body))
	if second.Cache != "memo" {
		t.Fatalf("repeat request cache = %q, want memo", second.Cache)
	}
	if second.Makespan != first.Makespan || second.Best != first.Best {
		t.Errorf("memo answer differs: %d/%s vs %d/%s", second.Makespan, second.Best, first.Makespan, first.Best)
	}
	if !bytes.Equal(second.Plan, first.Plan) {
		t.Error("memoized plan is not bit-identical to the original")
	}
	requireCompact(t, first.Plan)
	// The seed shapes the race, so it partitions the memo key even when
	// the model cache (compile-side) still hits.
	third := decodeSchedule(t, post(s, q+"&seed=2", body))
	if third.Cache != "hit" {
		t.Errorf("different-seed request cache = %q, want hit (model cache, memo miss)", third.Cache)
	}
	// Bypass skips both caches.
	fourth := decodeSchedule(t, post(s, q+"&cache=no", body))
	if fourth.Cache != "bypass" {
		t.Errorf("bypassed request cache = %q, want bypass", fourth.Cache)
	}
	st := s.stats()
	if !st.Memo.Enabled || st.Memo.Hits != 1 || st.Memo.Stores != 2 {
		t.Errorf("memo stats = %+v, want enabled, 1 hit, 2 stores", st.Memo)
	}
}

// TestMemoizationSkipsPartial pins the validity rule: a partial result
// depends on when the deadline fired, so it must never be journalled.
// An injected slow member (sched.slow) holds the race past the deadline.
func TestMemoizationSkipsPartial(t *testing.T) {
	leakCheck(t)
	store := openStore(t, filepath.Join(t.TempDir(), "j"), resultstore.Options{})
	s := newServer(serverConfig{workers: 1, requestWorkers: 1, store: store, faults: slowFaults(t)})
	body := benchBody(t, "p93791")
	q := "procs=8&cpu=leon&power=0.5&bist=3&search=quick&timeout=400ms"
	resp := decodeSchedule(t, post(s, q, body))
	if !resp.Partial {
		t.Fatal("deadline did not bite; cannot exercise the partial path")
	}
	requireSlowMemberErr(t, resp, "context deadline exceeded")
	if st := s.stats(); st.Memo.Stores != 0 || store.Len() != 0 {
		t.Errorf("partial result was memoized: stores=%d entries=%d", st.Memo.Stores, store.Len())
	}
}

// TestMemoizationSurvivesRestart pins the crash-safe half: a new server
// over the same journal answers the repeat request from the replayed
// index, bit-identically, without re-racing.
func TestMemoizationSurvivesRestart(t *testing.T) {
	leakCheck(t)
	path := filepath.Join(t.TempDir(), "j")
	body := benchBody(t, "d695")
	q := "procs=6&cpu=leon&power=0.5&bist=3&search=quick"

	store1 := openStore(t, path, resultstore.Options{})
	s1 := newServer(serverConfig{store: store1})
	first := decodeSchedule(t, post(s1, q, body))
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	store2 := openStore(t, path, resultstore.Options{})
	if st := store2.Stats(); st.Recovered != 1 {
		t.Fatalf("restart recovered %d records, want 1", st.Recovered)
	}
	s2 := newServer(serverConfig{store: store2})
	replayed := decodeSchedule(t, post(s2, q, body))
	if replayed.Cache != "memo" {
		t.Fatalf("post-restart cache = %q, want memo", replayed.Cache)
	}
	if !bytes.Equal(replayed.Plan, first.Plan) || replayed.Makespan != first.Makespan {
		t.Error("post-restart memo answer is not bit-identical")
	}
	requireCompact(t, replayed.Plan)
	if st := s2.stats(); st.Cache.Compiles != 0 {
		t.Errorf("memo replay compiled %d models, want 0", st.Cache.Compiles)
	}
}

// TestMemoReplaysIndentedJournal pins journal compatibility across the
// switch to compact plan JSON: a record written the way earlier servers
// wrote it — json.Marshal of a memo record around the trimmed, indented
// plan — still replays, and its plan goes out byte for byte as a fresh
// compact response's.
func TestMemoReplaysIndentedJournal(t *testing.T) {
	leakCheck(t)
	path := filepath.Join(t.TempDir(), "j")
	body := benchBody(t, "d695")
	q := "procs=6&cpu=leon&power=0.5&bist=3&search=quick"
	fresh := decodeSchedule(t, post(newServer(serverConfig{}), q, body))
	requireCompact(t, fresh.Plan)

	var indented bytes.Buffer
	if err := json.Indent(&indented, fresh.Plan, "", "  "); err != nil {
		t.Fatal(err)
	}
	indented.WriteByte('\n') // as the indenting encoder ended it
	rec, err := json.Marshal(struct {
		System   string          `json:"system"`
		Makespan int             `json:"makespan"`
		Best     string          `json:"best"`
		Plan     json.RawMessage `json:"plan"`
	}{fresh.System, fresh.Makespan, fresh.Best, json.RawMessage(bytes.TrimSpace(indented.Bytes()))})
	if err != nil {
		t.Fatal(err)
	}
	qv, err := url.ParseQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	p, err := parseScheduleParams(qv, serverConfig{}.normalize())
	if err != nil {
		t.Fatal(err)
	}
	old := openStore(t, path, resultstore.Options{})
	if err := old.Put(p.memoKey([]byte(body)), rec); err != nil {
		t.Fatal(err)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	s := newServer(serverConfig{store: openStore(t, path, resultstore.Options{})})
	w := post(s, q, body)
	if w.Code != http.StatusOK {
		t.Fatalf("old-format memo record answered %d: %s", w.Code, w.Body.String())
	}
	replayed := decodeSchedule(t, w)
	if replayed.Cache != "memo" {
		t.Fatalf("cache = %q, want memo", replayed.Cache)
	}
	if !bytes.Equal(replayed.Plan, fresh.Plan) {
		t.Errorf("old-format memo plan differs from a fresh compact response:\n%s\n%s", replayed.Plan, fresh.Plan)
	}
	if replayed.Makespan != fresh.Makespan || replayed.Best != fresh.Best {
		t.Errorf("memo answer %d/%s, fresh %d/%s", replayed.Makespan, replayed.Best, fresh.Makespan, fresh.Best)
	}
}

// requireCompact fails the test unless raw is compact JSON: nothing a
// compactor would remove.
func requireCompact(t *testing.T, raw []byte) {
	t.Helper()
	var c bytes.Buffer
	if err := json.Compact(&c, raw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c.Bytes(), raw) {
		t.Errorf("plan is not compact JSON: %.120s", raw)
	}
}

// TestDrainLifecycle pins the drain contract: readiness flips to 503
// while liveness stays 200, new scheduling work is refused with 503 +
// Retry-After, and the stats document records it all.
func TestDrainLifecycle(t *testing.T) {
	leakCheck(t)
	s := newServer(serverConfig{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if c := get("/readyz"); c != 200 {
		t.Fatalf("/readyz before drain = %d", c)
	}
	s.BeginDrain()
	s.BeginDrain() // idempotent
	if c := get("/readyz"); c != 503 {
		t.Errorf("/readyz while draining = %d, want 503", c)
	}
	if c := get("/healthz"); c != 200 {
		t.Errorf("/healthz while draining = %d, want 200 (liveness must hold)", c)
	}
	w := post(s, "search=quick", benchBody(t, "d695"))
	if w.Code != 503 {
		t.Fatalf("schedule while draining = %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("draining 503 missing Retry-After")
	}
	st := s.stats()
	if !st.Robustness.Draining || st.Robustness.DrainRejected != 1 {
		t.Errorf("robustness stats = %+v", st.Robustness)
	}
}

// TestDrainFinishesInflightPartial pins the graceful half: a request
// already racing when drain starts keeps its slot, and when the drain
// deadline fires it returns its anytime partial plan — a 200, not a
// dropped connection.
func TestDrainFinishesInflightPartial(t *testing.T) {
	leakCheck(t)
	s := newServer(serverConfig{workers: 1, requestWorkers: 1, drainTimeout: 300 * time.Millisecond, faults: slowFaults(t)})
	body := benchBody(t, "p93791")
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		// The slow member makes the race far longer than the drain
		// budget, under a generous request deadline: only the drain
		// cancellation can end it early.
		done <- post(s, "procs=8&cpu=leon&power=0.5&bist=3&search=quick&timeout=1m", body)
	}()
	// Wait until the request holds the pool slot, then drain.
	for i := 0; len(s.slots) == 0; i++ {
		if i > 2000 {
			t.Fatal("request never took a slot")
		}
		time.Sleep(5 * time.Millisecond)
	}
	start := time.Now()
	s.BeginDrain()
	var w *httptest.ResponseRecorder
	select {
	case w = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight request did not finish under drain")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("drained request took %v, want roughly the 300ms drain budget", elapsed)
	}
	resp := decodeSchedule(t, w)
	if !resp.Partial {
		t.Error("drained request not marked partial (race would have run for ~1m)")
	}
	if resp.Makespan <= 0 {
		t.Error("drained request returned no plan")
	}
	requireSlowMemberErr(t, resp, "context canceled")
}

// slowFaults returns an injector whose sched.slow point fires on every
// request with a one-minute delay: each race then outlasts any shorter
// deadline, drain budget or client.
func slowFaults(t *testing.T) *fault.Injector {
	t.Helper()
	inj, err := fault.Parse("sched.slow=1:1m")
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// TestStreamDisconnectFreesSlot is the regression test for pool-slot
// lifetime on client disconnect: a streaming client that walks away
// mid-race must release the scheduling slot long before the request
// deadline, or a few abandoned streams wedge the whole pool.
func TestStreamDisconnectFreesSlot(t *testing.T) {
	leakCheck(t)
	inj := slowFaults(t)
	s := newServer(serverConfig{workers: 1, requestWorkers: 1, faults: inj})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	body := benchBody(t, "p93791")
	q := "procs=8&cpu=leon&power=0.5&bist=3&search=quick&timeout=1m&stream=1"
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/schedule?"+q, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// The first NDJSON line (the model event) proves the race is live
	// and the slot held.
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Fatalf("reading model event: %v", err)
	}
	if len(s.slots) != 1 {
		t.Fatalf("slot not held after model event: %d", len(s.slots))
	}
	// Walk away mid-race.
	cancel()
	resp.Body.Close()
	deadline := time.Now().Add(15 * time.Second)
	for len(s.slots) != 0 || s.queued.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("slot still held %v after disconnect (slots=%d queued=%d)",
				15*time.Second, len(s.slots), s.queued.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The freed pool serves the next caller normally.
	inj.SetProbability(fault.SchedSlow, 0)
	w := post(s, "procs=6&cpu=leon&search=quick", benchBody(t, "d695"))
	if w.Code != 200 {
		t.Fatalf("request after disconnect: status %d: %s", w.Code, w.Body.String())
	}
}

// TestGuardRecoversPanics pins the HTTP panic guard: a panicking
// handler answers a 500 carrying an incident ID, the incident counter
// moves, and http.ErrAbortHandler passes through untouched.
func TestGuardRecoversPanics(t *testing.T) {
	s := newServer(serverConfig{})
	h := s.guard(func(w http.ResponseWriter, r *http.Request) { panic("kaboom") })
	w := httptest.NewRecorder()
	h(w, httptest.NewRequest("GET", "/schedule", nil))
	if w.Code != 500 {
		t.Fatalf("status %d, want 500", w.Code)
	}
	if !strings.Contains(w.Body.String(), "incident-") {
		t.Errorf("500 body %q carries no incident ID", w.Body.String())
	}
	if st := s.stats(); st.Robustness.Incidents != 1 || st.Requests.ServerErrors != 1 {
		t.Errorf("stats after panic: %+v", st.Robustness)
	}

	abort := s.guard(func(w http.ResponseWriter, r *http.Request) { panic(http.ErrAbortHandler) })
	func() {
		defer func() {
			if recover() != http.ErrAbortHandler {
				t.Error("http.ErrAbortHandler was swallowed; net/http needs it to abort the connection")
			}
		}()
		abort(httptest.NewRecorder(), httptest.NewRequest("GET", "/schedule", nil))
	}()
}

// TestScheduleInjectedCompileFault pins satellite semantics for
// compile faults: an injected compile error answers a retryable 500 —
// never a 400, it is not the upload's fault — and is never cached, so
// the retry recompiles and succeeds.
func TestScheduleInjectedCompileFault(t *testing.T) {
	inj, err := fault.Parse("seed=3;compile.err=1")
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(serverConfig{faults: inj})
	body := benchBody(t, "d695")
	q := "procs=6&cpu=leon&search=quick"
	w := post(s, q, body)
	if w.Code != 500 || !strings.Contains(w.Body.String(), "transient compile failure") {
		t.Fatalf("injected compile error: status %d body %q", w.Code, w.Body.String())
	}
	if s.cache.Len() != 0 {
		t.Fatal("errored compile left a cache entry")
	}
	// Drill over: the same key compiles cleanly — nothing was poisoned.
	inj.SetProbability(fault.CompileErr, 0)
	resp := decodeSchedule(t, post(s, q, body))
	if resp.Cache != "miss" {
		t.Errorf("retry cache = %q, want miss (fresh compile)", resp.Cache)
	}
	st := s.stats()
	if st.Requests.ServerErrors != 1 {
		t.Errorf("server errors = %d, want 1", st.Requests.ServerErrors)
	}
	if st.Faults.Spec == "off" || st.Faults.Points["compile.err"].Fired == 0 {
		t.Errorf("fault telemetry missing: %+v", st.Faults)
	}
}

// TestScheduleInjectedStrategyPanic pins panic isolation end to end: a
// sched.panic drill adds a panicking member, the race degrades to the
// survivors, the request still answers 200 with a valid plan, and the
// panic is counted in /stats.
func TestScheduleInjectedStrategyPanic(t *testing.T) {
	inj, err := fault.Parse("seed=3;sched.panic=1")
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(serverConfig{faults: inj})
	resp := decodeSchedule(t, post(s, "procs=6&cpu=leon&power=0.5&bist=3&search=quick", benchBody(t, "d695")))
	if resp.Makespan <= 0 {
		t.Fatal("race with a panicking member returned no plan")
	}
	sawPanic := false
	for _, sj := range resp.Strategies {
		if sj.Name == "fault.panic" && strings.Contains(sj.Err, "panicked") {
			sawPanic = true
		}
	}
	if !sawPanic {
		t.Error("panicking strategy's result not reported")
	}
	if st := s.stats(); st.Robustness.StrategyPanics != 1 {
		t.Errorf("strategyPanics = %d, want 1", st.Robustness.StrategyPanics)
	}
}

// TestCachePanickingCompile pins the singleflight repair: a compile
// that panics must propagate to its caller (the HTTP guard's job), but
// waiters sharing the flight get an error instead of hanging, and the
// key is dropped so the next Get retries cleanly.
func TestCachePanickingCompile(t *testing.T) {
	mc := newModelCache(4)
	started := make(chan struct{})
	release := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		mc.Get("k", func() (*core.Model, error) {
			close(started)
			<-release
			panic("compile exploded")
		})
	}()
	<-started
	// A sibling request joins the in-flight compile before it panics.
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := mc.Get("k", func() (*core.Model, error) { return &core.Model{}, nil })
		waiterErr <- err
	}()
	for mc.hits.Load() == 0 {
		time.Sleep(time.Millisecond) // waiter registered once hits moves
	}
	close(release)
	if v := <-panicked; v != "compile exploded" {
		t.Fatalf("panic did not propagate to the compiling caller: %v", v)
	}
	select {
	case err := <-waiterErr:
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Errorf("waiter error = %v, want the panic surfaced as an error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter hung: panicking compile stranded the in-flight entry")
	}
	// The key is not poisoned.
	m, hit, err := mc.Get("k", func() (*core.Model, error) { return &core.Model{}, nil })
	if err != nil || hit || m == nil {
		t.Fatalf("Get after panic: model=%v hit=%v err=%v, want fresh compile", m, hit, err)
	}
}
