package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"noctest/internal/itc02"
	"noctest/internal/plan"
	"noctest/internal/socgen"
)

// benchBody renders an embedded benchmark as an upload.
func benchBody(t *testing.T, name string) string {
	t.Helper()
	bench, err := itc02.Benchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	body, err := itc02.WriteString(bench)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// post drives the schedule handler directly.
func post(s *server, query, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", "/schedule?"+query, strings.NewReader(body))
	w := httptest.NewRecorder()
	s.handleSchedule(w, req)
	return w
}

// scheduleResponse is the whole result document as a client decodes
// it: the server writes a resultHead and splices the plan in after it.
type scheduleResponse struct {
	resultHead
	Plan json.RawMessage `json:"plan"`
}

// decodeSchedule parses a 200 response.
func decodeSchedule(t *testing.T, w *httptest.ResponseRecorder) scheduleResponse {
	t.Helper()
	if w.Code != 200 {
		t.Fatalf("status %d, want 200: %s", w.Code, w.Body.String())
	}
	var resp scheduleResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("response does not parse: %v\n%s", err, w.Body.String())
	}
	return resp
}

// TestScheduleCacheHitMiss pins the serving contract on the happy
// path: the first request compiles (miss), the second reuses the
// cached model (hit), both return the same validated plan, and the
// stats counters record it.
func TestScheduleCacheHitMiss(t *testing.T) {
	s := newServer(serverConfig{})
	body := benchBody(t, "d695")
	q := "procs=6&cpu=leon&power=0.5&bist=3&search=quick"

	w := post(s, q, body)
	first := decodeSchedule(t, w)
	if first.Cache != "miss" {
		t.Errorf("first request cache = %q, want miss", first.Cache)
	}
	// One compact line whose last field is the plan, spliced verbatim.
	raw := w.Body.Bytes()
	if bytes.Count(raw, []byte("\n")) != 1 || !bytes.HasSuffix(raw, append([]byte(`"plan":`+string(first.Plan)), "}\n"...)) {
		t.Errorf("response is not one compact line ending in its plan: %.200s", raw)
	}
	second := decodeSchedule(t, post(s, q, body))
	if second.Cache != "hit" {
		t.Errorf("second request cache = %q, want hit", second.Cache)
	}
	if first.Makespan <= 0 || first.Makespan != second.Makespan {
		t.Errorf("makespans %d vs %d, want equal and positive", first.Makespan, second.Makespan)
	}
	if first.System != "d695+6xleon" && first.System == "" {
		t.Errorf("missing system name, got %q", first.System)
	}
	p, err := plan.ParseJSON(bytes.NewReader(first.Plan))
	if err != nil {
		t.Fatalf("embedded plan does not parse: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("embedded plan does not validate: %v", err)
	}
	if len(first.Strategies) != 7 {
		t.Errorf("quick search reported %d strategies, want 7", len(first.Strategies))
	}
	// A bypassed request compiles again but leaves the cache alone.
	third := decodeSchedule(t, post(s, q+"&cache=no", body))
	if third.Cache != "bypass" {
		t.Errorf("bypass request cache = %q, want bypass", third.Cache)
	}
	st := s.stats()
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 || st.Cache.Bypassed != 1 || st.Cache.Compiles != 2 {
		t.Errorf("cache counters %+v, want hits=1 misses=1 bypassed=1 compiles=2", st.Cache)
	}
	if st.Requests.OK != 3 {
		t.Errorf("ok count = %d, want 3", st.Requests.OK)
	}
}

// TestLoadbenchSmoke puts the serving contract under concurrent load
// over the paper's trio: 8 requests in flight at once all answer 200;
// with cache=no each one compiles, and once the trio is warm each one
// is a hit that compiles nothing.
func TestLoadbenchSmoke(t *testing.T) {
	const inFlight = 8
	// The queue parks a whole concurrent burst, so none is shed with 429.
	s := newServer(serverConfig{queueDepth: inFlight})
	trio := []struct{ query, body string }{
		{"procs=6&cpu=leon&power=0.5&bist=3&search=quick", benchBody(t, "d695")},
		{"procs=8&cpu=leon&power=0.5&bist=3&search=quick", benchBody(t, "p22810")},
		{"procs=8&cpu=leon&power=0.5&bist=3&search=quick", benchBody(t, "p93791")},
	}
	type cacheDelta struct{ Hits, Misses, Bypassed, Compiles uint64 }
	burst := func(phase, suffix string) cacheDelta {
		t.Helper()
		before := s.stats().Cache
		codes := make([]int, inFlight)
		var wg sync.WaitGroup
		for i := range codes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := trio[i%len(trio)]
				codes[i] = post(s, r.query+suffix, r.body).Code
			}()
		}
		wg.Wait()
		for i, code := range codes {
			if code != 200 {
				t.Errorf("%s burst: request %d answered %d, want 200", phase, i, code)
			}
		}
		after := s.stats().Cache
		return cacheDelta{
			Hits:     after.Hits - before.Hits,
			Misses:   after.Misses - before.Misses,
			Bypassed: after.Bypassed - before.Bypassed,
			Compiles: after.Compiles - before.Compiles,
		}
	}
	if d := burst("bypass", "&cache=no"); d.Compiles != inFlight || d.Bypassed != inFlight || d.Hits != 0 || d.Misses != 0 {
		t.Errorf("bypass burst counters %+v, want %d compiles and bypasses, no hits or misses", d, inFlight)
	}
	for _, r := range trio {
		decodeSchedule(t, post(s, r.query, r.body))
	}
	if d := burst("warm", ""); d.Hits != inFlight || d.Compiles != 0 || d.Misses != 0 {
		t.Errorf("warm burst counters %+v, want %d hits and no compile or miss", d, inFlight)
	}
	if st := s.stats(); st.Requests.OK != 2*inFlight+uint64(len(trio)) {
		t.Errorf("ok count = %d, want %d", st.Requests.OK, 2*inFlight+len(trio))
	}
}

// TestScheduleRejectsBadUploads pins the 400 paths: malformed itc02,
// empty body, bad parameters, and a scenario upload that also passes
// placement parameters.
func TestScheduleRejectsBadUploads(t *testing.T) {
	s := newServer(serverConfig{})
	cases := []struct {
		name  string
		query string
		body  string
		want  int
	}{
		{"malformed upload", "search=quick", "this is not an itc02 file\n", 400},
		{"empty upload", "search=quick", "   \n", 400},
		{"zero timeout", "timeout=0s", benchBody(t, "d695"), 400},
		{"negative timeout", "timeout=-5s", benchBody(t, "d695"), 400},
		{"garbage timeout", "timeout=soon", benchBody(t, "d695"), 400},
		{"bad search", "search=exhaustive", benchBody(t, "d695"), 400},
		{"bad procs", "procs=-1", benchBody(t, "d695"), 400},
		{"bad cpu", "procs=2&cpu=z80", benchBody(t, "d695"), 400},
	}
	for _, tc := range cases {
		if w := post(s, tc.query, tc.body); w.Code != tc.want {
			t.Errorf("%s: status %d, want %d: %s", tc.name, w.Code, tc.want, w.Body.String())
		}
	}
	if st := s.stats(); st.Requests.ClientErrors != uint64(len(cases)) {
		t.Errorf("client error count = %d, want %d", st.Requests.ClientErrors, len(cases))
	}
}

// TestScheduleUnschedulable checks a system that cannot be scheduled
// under its options answers 422, not 500: the failure is a property of
// the upload.
func TestScheduleUnschedulable(t *testing.T) {
	s := newServer(serverConfig{})
	// A power cap far below any single core's test power makes every
	// placement infeasible.
	w := post(s, "search=quick&power=0.000001", benchBody(t, "d695"))
	if w.Code != 422 {
		t.Fatalf("status %d, want 422: %s", w.Code, w.Body.String())
	}
}

// TestScheduleBackpressure exercises admission control white-box: with
// the single slot occupied and no queue, the next request is refused
// with 429 + Retry-After; with one queue position, it is admitted but
// times out waiting and answers 504.
func TestScheduleBackpressure(t *testing.T) {
	s := newServer(serverConfig{workers: 1, queueDepth: 0})
	// Occupy the only slot as a running job would.
	s.queued.Add(1)
	s.slots <- struct{}{}
	w := post(s, "search=quick", benchBody(t, "d695"))
	if w.Code != 429 {
		t.Fatalf("status %d, want 429: %s", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	if st := s.stats(); st.Pool.Rejected != 1 {
		t.Errorf("rejected counter = %d, want 1", st.Pool.Rejected)
	}

	// With a queue position the request waits for the slot instead —
	// until its own deadline expires.
	s2 := newServer(serverConfig{workers: 1, queueDepth: 1})
	s2.queued.Add(1)
	s2.slots <- struct{}{}
	start := time.Now()
	w = post(s2, "search=quick&timeout=50ms", benchBody(t, "d695"))
	if w.Code != 504 {
		t.Fatalf("queued past deadline: status %d, want 504: %s", w.Code, w.Body.String())
	}
	if waited := time.Since(start); waited < 50*time.Millisecond {
		t.Errorf("answered after %v, before the 50ms deadline", waited)
	}
}

// TestScheduleDeadlineAnytimePartial gives a large system a budget far
// below its race's runtime: the list rules finish in microseconds, then
// an injected slow member (sched.slow) holds the race open past the
// deadline. The response must still be 200 with a valid plan — the
// anytime best of the strategies that finished — and flagged partial,
// and the slow member must report the deadline as its error.
func TestScheduleDeadlineAnytimePartial(t *testing.T) {
	s := newServer(serverConfig{workers: 1, requestWorkers: 1, faults: slowFaults(t)})
	body := benchBody(t, "p93791")
	resp := decodeSchedule(t, post(s, "procs=8&cpu=leon&power=0.5&bist=3&search=quick&timeout=400ms", body))
	if !resp.Partial {
		t.Fatalf("response not marked partial; strategies=%d best=%s", len(resp.Strategies), resp.Best)
	}
	if resp.Makespan <= 0 || resp.Best == "" {
		t.Errorf("partial response has no plan: makespan=%d best=%q", resp.Makespan, resp.Best)
	}
	requireSlowMemberErr(t, resp, "context deadline exceeded")
	p, err := plan.ParseJSON(bytes.NewReader(resp.Plan))
	if err != nil {
		t.Fatalf("partial plan does not parse: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("partial plan does not validate: %v", err)
	}
}

// requireSlowMemberErr checks that the injected slow member raced and
// ended with an error containing want: proof that the race was cut
// short rather than run to completion.
func requireSlowMemberErr(t *testing.T, resp scheduleResponse, want string) {
	t.Helper()
	for _, sj := range resp.Strategies {
		if sj.Name == "fault.slow" {
			if !strings.Contains(sj.Err, want) {
				t.Errorf("slow member err = %q, want it to contain %q", sj.Err, want)
			}
			return
		}
	}
	t.Errorf("slow member missing from the strategies: %+v", resp.Strategies)
}

// TestScheduleStream checks the NDJSON contract: a model event first,
// strictly improving improvement events, and a final result line whose
// makespan equals the last improvement.
func TestScheduleStream(t *testing.T) {
	s := newServer(serverConfig{})
	w := post(s, "procs=6&cpu=leon&power=0.5&bist=3&search=quick&stream=1", benchBody(t, "d695"))
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q, want application/x-ndjson", ct)
	}
	var events []streamEvent
	var result scheduleResponse
	sawResult := false
	sc := bufio.NewScanner(w.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Event string `json:"event"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("stream line does not parse: %v\n%s", err, line)
		}
		if probe.Event == "result" {
			if err := json.Unmarshal(line, &result); err != nil {
				t.Fatal(err)
			}
			sawResult = true
			continue
		}
		var ev streamEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	if !sawResult {
		t.Fatal("stream ended without a result event")
	}
	if len(events) < 2 || events[0].Event != "model" {
		t.Fatalf("want model event then improvements, got %+v", events)
	}
	last := -1
	for _, ev := range events[1:] {
		if ev.Event != "improvement" {
			t.Fatalf("unexpected event %q", ev.Event)
		}
		if last >= 0 && ev.Makespan >= last {
			t.Errorf("improvement did not improve: %d after %d", ev.Makespan, last)
		}
		last = ev.Makespan
	}
	if result.Makespan != last {
		t.Errorf("result makespan %d != last streamed improvement %d", result.Makespan, last)
	}
}

// TestScheduleScenarioUpload checks a socgen scenario file schedules
// end to end, and that placement query parameters conflict with it.
func TestScheduleScenarioUpload(t *testing.T) {
	s := newServer(serverConfig{})
	sc := socgen.NewScenario(7, socgen.ScenarioParams{MinCores: 5, MaxCores: 8, Topology: "mesh"})
	var buf bytes.Buffer
	if err := sc.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	resp := decodeSchedule(t, post(s, "search=quick", buf.String()))
	if resp.Makespan <= 0 {
		t.Errorf("scenario schedule makespan = %d, want positive", resp.Makespan)
	}
	if w := post(s, "search=quick&procs=2", buf.String()); w.Code != 400 {
		t.Errorf("scenario upload with placement params: status %d, want 400", w.Code)
	}
}

// TestStatsAndHealthz drives the auxiliary endpoints through the full
// handler stack.
func TestStatsAndHealthz(t *testing.T) {
	s := newServer(serverConfig{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, path := range []string{"/healthz", "/stats"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
	req := httptest.NewRequest("GET", "/schedule", nil)
	w := httptest.NewRecorder()
	s.handleSchedule(w, req)
	if w.Code != 405 {
		t.Errorf("GET /schedule: status %d, want 405", w.Code)
	}
}

// TestCacheKeyCoversOptions pins that compile-relevant parameters
// partition the cache while search-side ones share it.
func TestCacheKeyCoversOptions(t *testing.T) {
	body := []byte(benchBody(t, "d695"))
	base := scheduleParams{cpu: "leon", procs: 6, power: 0.5, bist: 3, reuse: -1, app: "bist", seed: 1}
	k := base.cacheKey(body)
	diff := base
	diff.power = 0.25
	if diff.cacheKey(body) == k {
		t.Error("power change did not change the cache key")
	}
	sameModel := base
	sameModel.seed = 99 // search seed without failed links: same model
	if sameModel.cacheKey(body) != k {
		t.Error("search seed changed the key despite no failed links")
	}
	degraded := base
	degraded.failedLinks = 2
	k2 := degraded.cacheKey(body)
	degradedSeed := degraded
	degradedSeed.seed = 99 // now the seed picks which links fail
	if degradedSeed.cacheKey(body) == k2 {
		t.Error("failed-link seed did not partition the key")
	}
	if other := base.cacheKey(append([]byte(nil), append(body, '\n', 'x')...)); other == k {
		t.Error("different upload bytes share a key")
	}
}

// TestStatsSearchCounters pins the /stats search section: after a
// schedule request the ready cached model's kernel telemetry — orders
// scored, placements and the delta-hit rate — is aggregated and
// exported under the names of the core.SearchStats counters.
func TestStatsSearchCounters(t *testing.T) {
	s := newServer(serverConfig{})
	if resp := decodeSchedule(t, post(s, "search=quick", benchBody(t, "d695"))); resp.Makespan <= 0 {
		t.Fatalf("schedule makespan = %d, want positive", resp.Makespan)
	}
	st := s.stats()
	if st.Search.Models < 1 {
		t.Fatalf("search.models = %d, want >= 1", st.Search.Models)
	}
	if st.Search.Orders == 0 {
		t.Error("search.orders = 0 after a schedule request")
	}
	if st.Search.Placed == 0 {
		t.Error("search.placed = 0 after a schedule request")
	}
	if st.Search.DeltaHitRate < 0 || st.Search.DeltaHitRate > 1 {
		t.Errorf("search.delta_hit_rate = %v, want within [0, 1]", st.Search.DeltaHitRate)
	}
}

// TestScheduleRejectsUnknownParams pins query-string strictness: a
// parameter /schedule does not read answers 400 instead of scheduling
// with defaults, and every query an in-repo client sends is accepted.
func TestScheduleRejectsUnknownParams(t *testing.T) {
	s := newServer(serverConfig{})
	body := benchBody(t, "d695")
	for _, tc := range []struct{ name, query string }{
		{"removed lanes", "search=full&lanes=4"},
		{"underscore typo", "search=quick&max_segments=4"},
		{"wrong case", "Search=quick"},
		{"bare key", "search=quick&verbose"},
	} {
		w := post(s, tc.query, body)
		if w.Code != 400 || !strings.Contains(w.Body.String(), "unknown parameter") {
			t.Errorf("%s (%s): status %d, want 400 naming the unknown parameter: %s", tc.name, tc.query, w.Code, w.Body.String())
		}
	}

	// Every known name parses; a value of "1" is valid for each except
	// the enumerations and the timeout, which get one of their values.
	valid := map[string]string{"search": "quick", "cpu": "leon", "topology": "mesh", "app": "bist", "timeout": "1s"}
	q := url.Values{}
	for _, name := range scheduleParamNames {
		v, ok := valid[name]
		if !ok {
			v = "1"
		}
		q.Set(name, v)
	}
	if _, err := parseScheduleParams(q, serverConfig{maxTimeout: time.Minute}); err != nil {
		t.Errorf("every known parameter at once: %v", err)
	}
	// The query noctest -serve-url builds and the trio queries the
	// benchmark module sends parse as sent, also with a cache bypass.
	queries := []string{
		"procs=8&cpu=plasma&topology=torus&failed-links=1&power=0.5&bist=3&reuse=2&exclusive-links=1&app=decompression&max-segments=4&resume-cost=5&search=full&seed=7&timeout=2m0s",
	}
	for _, procs := range []int{6, 8} {
		trio := fmt.Sprintf("procs=%d&cpu=leon&power=0.5&bist=3&search=quick", procs)
		queries = append(queries, trio, trio+"&cache=no")
	}
	for _, raw := range queries {
		q, err := url.ParseQuery(raw)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := parseScheduleParams(q, serverConfig{maxTimeout: time.Minute}); err != nil {
			t.Errorf("client query %q rejected: %v", raw, err)
		}
	}
}
