package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// readyTimeout bounds a noctestd start-up; stopTimeout its drain on
// SIGTERM before it is killed; readyPoll is the interval between
// /readyz probes, short against the few milliseconds a start takes.
const (
	readyTimeout = 20 * time.Second
	stopTimeout  = 10 * time.Second
	readyPoll    = 200 * time.Microsecond
)

// noctestd is one server child process.
type noctestd struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	err    error // the process's exit status, once exited is closed
}

// serverLog is where a run's noctestd children log.
func serverLog(cfg config) string {
	return filepath.Join(cfg.out, fmt.Sprintf("noctestd-%s-seed%d.log", cfg.workload, cfg.seed))
}

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startNoctestd execs the server and returns once /readyz answers 200,
// with the time from exec to ready.
// The server's log goes to logPath.
func startNoctestd(bin, logPath string, args ...string) (*noctestd, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logFile, err := os.OpenFile(logPath, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	// The child holds its own descriptor once started.
	defer logFile.Close()
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stderr = logFile
	// A benchmark killed from outside takes its server with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting noctestd: %w", err)
	}
	s := &noctestd{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	defer probe.CloseIdleConnections()
	for {
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("noctestd exited before it was ready (log in %s): %v", logPath, s.err)
		default:
		}
		if resp, err := probe.Get(s.base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		if time.Since(start) > readyTimeout {
			s.stop()
			return nil, 0, fmt.Errorf("noctestd not ready after %v", readyTimeout)
		}
		time.Sleep(readyPoll)
	}
}

// stop drains the server with SIGTERM, kills it if the drain overruns,
// and waits for it to exit.
func (s *noctestd) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-s.exited:
		return s.err
	case <-time.After(stopTimeout):
		s.cmd.Process.Kill()
		<-s.exited
		return fmt.Errorf("noctestd did not drain within %v", stopTimeout)
	}
}

func (s *noctestd) cpuSeconds() (float64, error) {
	return cpuSeconds(strconv.Itoa(s.cmd.Process.Pid))
}

func (s *noctestd) peakRSSMB() (float64, error) {
	return peakRSSMB(strconv.Itoa(s.cmd.Process.Pid))
}

// serverStats is the part of /stats the benchmark reads.
type serverStats struct {
	Cache struct {
		Hits, Misses, Evictions uint64
	}
	Pool struct {
		Rejected uint64
	}
	Requests struct {
		Total uint64
	}
	Memo struct {
		Hits, Misses, Stores uint64
		Recovered            int
	}
}

func (s *noctestd) stats() (*serverStats, error) {
	resp, err := http.Get(s.base + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/stats: HTTP %d", resp.StatusCode)
	}
	var st serverStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("/stats: %w", err)
	}
	return &st, nil
}

// scheduleReply is the part of a /schedule response's head the
// benchmark checks and times.
type scheduleReply struct {
	Makespan   int     `json:"makespan"`
	Cache      string  `json:"cache"`
	CompileMs  float64 `json:"compile_ms"`
	ScheduleMs float64 `json:"schedule_ms"`
	Partial    bool    `json:"partial"`
}

// serveSpec is one serve workload.
type serveSpec struct {
	name string
	// rate is the open-loop arrival rate, requests per second.
	rate float64
	// args are noctestd's flags for set-up i; cleanup removes what
	// that set-up left behind.
	args    func(i int) []string
	cleanup func(i int)
	// prewarm is sent once, in order, as part of every set-up.
	prewarm []upload
	// sequence returns the workload's seeded request sequence, with
	// its inputs' references computed, for an open loop of open
	// requests followed by a closed loop of the given length.
	sequence func(open int, closed time.Duration) (sequence, error)
	inputs   func() []*serveInput
	// afterRun, when set, runs on the traced pass after the measured
	// server stopped, with the set-up index the run used.
	afterRun func(i int, o *outcome) error
}

// serveInput is one distinct upload with its in-process reference.
type serveInput struct {
	name     string
	body     []byte
	query    string
	scenario bool
	procs    int    // processors, itc02 uploads
	fabric   string // fabric kind, set when compiled
	// ref is the makespan the seven quick list rules reach in-process,
	// planForms the hashes of their plan's JSON as the server may send
	// it; denom is the makespan_ratio denominator.
	ref       int
	planForms [][32]byte
	denom     float64
}

// openShare is the open-loop phase's share of a serve run; the
// closed-loop phase takes the rest.
const openShare = 0.75

// runServe runs a serve workload: set-ups, an open-loop phase at
// spec.rate, a closed-loop phase with one client, then the checks.
//
// The gated figures are chosen to hold still on a shared machine whose
// hypervisor steals CPU from its virtual CPUs for minutes at a time.
// Steal lengthens every wake-up of an idle CPU, and an open-loop
// request wakes several, so the client-side latency of the same code
// rose by half at 10% steal. latency_p50_ms is therefore the median of
// the server's own service time (the response's compile_ms plus
// schedule_ms), which runs on a CPU already awake, and cpu_ms_per_op
// the server's CPU time per closed-loop request, which leaves stolen
// time out. Both still rise with steal, through caches and cores shared
// with other machines, but by a quarter or less at 8% steal. The
// client-side latency from the due time, its tails and the closed-loop
// rate are printed on stderr.
func runServe(cfg config, d time.Duration, tr *tracer, setups int, spec serveSpec) (*outcome, error) {
	// This process is only the load generator here: its collector runs
	// less often, so fewer of its pauses land in measured latencies.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	o := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	openPhase := time.Duration(openShare * float64(d))
	closedPhase := d - openPhase
	due := poissonSchedule(cfg.seed, spec.rate, openPhase)
	seq, err := spec.sequence(len(due), closedPhase)
	if err != nil {
		return nil, err
	}

	var srv *noctestd
	var setupTimes []float64
	last := max(setups, 1) - 1
	for i := 0; i <= last; i++ {
		s, ready, err := startNoctestd(cfg.noctestd, serverLog(cfg), spec.args(i)...)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		err = prewarm(s, spec.prewarm, newChecker(spec.inputs()))
		setupTimes = append(setupTimes, (ready + time.Since(start)).Seconds())
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("pre-warm: %w", err)
		}
		if i < last {
			if err := s.stop(); err != nil {
				return nil, err
			}
			spec.cleanup(i)
			continue
		}
		srv = s
	}
	defer spec.cleanup(last)
	if setups > 0 {
		o.e2e["setup_s"] = median(setupTimes)
		fmt.Fprintf(os.Stderr, "%s: set-up times %.4f s\n", spec.name, setupTimes)
	}

	inputs := spec.inputs()
	g := newLoadgen(srv.base, tr, newChecker(inputs))
	var (
		before, after *serverStats
		cpu0, cpu1    float64
		wall          time.Duration
		open, closed  []sample
		ended         bool
	)
	err = func() (err error) {
		if before, err = srv.stats(); err != nil {
			return err
		}
		open = g.openLoop(seq, due)
		// The high-water mark after the open loop covers a fixed request
		// set; the closed loop's request count grows with the server's
		// speed.
		if o.e2e["peak_rss_mb"], err = srv.peakRSSMB(); err != nil {
			return err
		}
		if cpu0, err = srv.cpuSeconds(); err != nil {
			return err
		}
		closed, wall, ended = g.closedLoop(seq, len(due), closedPhase)
		if cpu1, err = srv.cpuSeconds(); err != nil {
			return err
		}
		after, err = srv.stats()
		return err
	}()
	g.close()
	if serr := srv.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	if spec.afterRun != nil && tr != nil {
		if err := spec.afterRun(last, o); err != nil {
			return nil, err
		}
	}

	samples := append(open, closed...)
	for i := range samples {
		if !samples[i].ok() {
			o.fail("%s", samples[i].describe())
		}
	}
	o.attempted = len(samples)

	var lat, service, lag, connWait []float64
	var at []time.Duration
	for _, s := range open {
		lag = append(lag, ms(s.dispatched-s.due))
		connWait = append(connWait, ms(s.sent-s.dispatched))
		if !s.ok() {
			continue
		}
		lat = append(lat, ms(s.end-s.due))
		at = append(at, s.due)
		if s.reply.Cache != "memo" { // a memo hit neither compiles nor searches
			service = append(service, s.reply.CompileMs+s.reply.ScheduleMs)
		}
	}
	if len(service) == 0 {
		return nil, fmt.Errorf("%s: no open-loop request was served", spec.name)
	}
	summarize(at, lat, openPhase).report(spec.name + " client latency from due time")
	// The whole sample's median: a stall of the machine delays only the
	// few requests in service during it.
	sort.Float64s(service)
	top := supportedPercentile(len(service))
	fmt.Fprintf(os.Stderr, "%s service time: %d samples support up to p%g; p50 %.3f p%g %.3f ms\n",
		spec.name, len(service), top, percentile(service, 50), top, percentile(service, top))
	o.e2e["latency_p50_ms"] = percentile(service, 50)
	done := 0
	for _, s := range closed {
		if s.ok() {
			done++
		}
	}
	if done == 0 {
		return nil, fmt.Errorf("%s: no closed-loop request succeeded", spec.name)
	}
	o.e2e["cpu_ms_per_op"] = (cpu1 - cpu0) * 1000 / float64(done)
	fmt.Fprintf(os.Stderr, "%s: closed loop: %d requests in %v, %.1f/s\n", spec.name, done, wall.Round(time.Millisecond), float64(done)/wall.Seconds())
	if ended {
		fmt.Fprintf(os.Stderr, "%s: closed loop ran out of prepared uploads\n", spec.name)
	}
	var ratios []float64
	for i := range open {
		u, _ := seq(i)
		ratios = append(ratios, float64(inputs[u.input].ref)/inputs[u.input].denom)
	}
	o.e2e["makespan_ratio"] = geomean(ratios)
	if tr == nil {
		return o, nil
	}

	// Per-layer figures of the traced pass.
	var schedMs, compileMs, otherMs, respBytes []float64
	for _, s := range samples {
		r := s.reply
		if r == nil {
			continue
		}
		respBytes = append(respBytes, float64(s.bytes))
		if r.Cache == "memo" {
			continue
		}
		schedMs = append(schedMs, r.ScheduleMs)
		if r.Cache == "miss" {
			compileMs = append(compileMs, r.CompileMs)
		}
		otherMs = append(otherMs, ms(s.end-s.sent)-r.CompileMs-r.ScheduleMs)
		// The server times its compile (parse, build, compile) and its
		// search back to back; place them at the start of the request.
		start := tr.startOf(s.span)
		compileD := time.Duration(r.CompileMs * float64(time.Millisecond))
		tr.derive(s.req, s.span, "core.compile", "noctestd.compile_ms", start, compileD)
		tr.derive(s.req, s.span, "core.search", "noctestd.schedule_ms", start.Add(compileD),
			time.Duration(r.ScheduleMs*float64(time.Millisecond)))
	}
	// A warm run compiles nothing: its compile_ms stays unset (0).
	putMedian(o.layer, "noctestd.schedule_ms", schedMs)
	putMedian(o.layer, "noctestd.compile_ms", compileMs)
	putMedian(o.layer, "noctestd.other_ms", otherMs)
	o.layer["noctestd.response_bytes"] = mean(respBytes)
	o.layer["noctestd.cache_hit_ratio"] = ratio(float64(after.Cache.Hits-before.Cache.Hits),
		float64(after.Cache.Hits-before.Cache.Hits+after.Cache.Misses-before.Cache.Misses))
	o.layer["noctestd.evictions_per_req"] = ratio(float64(after.Cache.Evictions-before.Cache.Evictions),
		float64(after.Requests.Total-before.Requests.Total))
	o.layer["noctestd.rejected_429"] = float64(after.Pool.Rejected - before.Pool.Rejected)
	o.layer["resultstore.memo_hit_ratio"] = ratio(float64(after.Memo.Hits-before.Memo.Hits),
		float64(after.Memo.Hits-before.Memo.Hits+after.Memo.Misses-before.Memo.Misses))
	sort.Float64s(lag)
	o.layer["loadgen.lag_p99_ms"] = percentile(lag, 99)
	o.layer["loadgen.conn_wait_ms"] = mean(connWait)
	var sent []upload
	for _, s := range samples {
		u, _ := seq(s.req)
		sent = append(sent, u)
	}
	return o, replay(tr, cfg, spec.prewarm, sent, inputs, o)
}

// prewarm sends each upload once and checks the answer.
func prewarm(s *noctestd, ups []upload, check *checker) error {
	g := newLoadgen(s.base, nil, check)
	defer g.close()
	t0 := time.Now()
	var buf bytes.Buffer
	for _, u := range ups {
		var smp sample
		if g.send(u, &smp, t0, &buf); !smp.ok() {
			return errors.New(smp.describe())
		}
	}
	return nil
}

// checker checks responses against their inputs' references without
// decoding the plan: encoding/json reads a plan far slower than the
// server writes it, and would make the load generator, not the server,
// set the closed-loop rate. A response's head (every field before the
// strategies) is decoded; its plan's bytes are hashed and must match
// one of the forms of the reference plan, which was parsed back and
// validated before timing. Any other plan is parsed back and validated
// here, once per distinct plan.
type checker struct {
	inputs []*serveInput
	mu     sync.Mutex
	plans  map[[32]byte]int // hash of a plan checked here -> its makespan
}

func newChecker(inputs []*serveInput) *checker {
	return &checker{inputs: inputs, plans: map[[32]byte]int{}}
}

func (c *checker) check(u upload, body []byte) (*scheduleReply, error) {
	in := c.inputs[u.input]
	head, plan, ok := splitReply(body)
	if !ok {
		return nil, fmt.Errorf("%s: response without a head and a trailing plan: %.80q", in.name, body)
	}
	var r scheduleReply
	if err := json.Unmarshal(head, &r); err != nil {
		return nil, fmt.Errorf("%s: response: %w", in.name, err)
	}
	if r.Partial || r.Makespan != in.ref {
		return nil, fmt.Errorf("%s: makespan %d (partial %t), reference %d", in.name, r.Makespan, r.Partial, in.ref)
	}
	key := sha256.Sum256(plan)
	for _, f := range in.planForms {
		if key == f {
			return &r, nil
		}
	}
	c.mu.Lock()
	got, ok := c.plans[key]
	c.mu.Unlock()
	if !ok {
		var err error
		if got, err = checkPlanJSON(plan); err != nil {
			return nil, fmt.Errorf("%s: plan: %w", in.name, err)
		}
		c.mu.Lock()
		c.plans[key] = got
		c.mu.Unlock()
	}
	if got != r.Makespan {
		return nil, fmt.Errorf("%s: plan makespan %d, response says %d", in.name, got, r.Makespan)
	}
	return &r, nil
}

// splitReply cuts a /schedule response into its head, re-closed as a
// JSON object, and the raw bytes of its last field, the plan.
func splitReply(body []byte) (head, plan []byte, ok bool) {
	i := bytes.Index(body, []byte(`"strategies"`))
	j := bytes.LastIndex(body, []byte(`"plan"`))
	k := bytes.LastIndexByte(body, '}')
	if i < 0 || j < i || k < j {
		return nil, nil, false
	}
	head = append(bytes.TrimRight(bytes.TrimSpace(body[:i:i]), ","), '}')
	plan, ok = bytes.CutPrefix(bytes.TrimSpace(body[j+len(`"plan"`):k]), []byte(":"))
	return head, bytes.TrimSpace(plan), ok
}

// planForms returns the hashes of a plan's JSON as the server may send
// it: compact, or indented one level deep the way a json.Encoder with a
// two-space indent writes a nested raw message.
func planForms(compact []byte) ([][32]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(struct {
		Strategies []int           `json:"strategies"`
		Plan       json.RawMessage `json:"plan"`
	}{nil, compact}); err != nil {
		return nil, err
	}
	_, indented, ok := splitReply(buf.Bytes())
	if !ok {
		return nil, fmt.Errorf("indented plan form not found")
	}
	return [][32]byte{sha256.Sum256(compact), sha256.Sum256(indented)}, nil
}

// warmRate is serve_warm_quick's open-loop rate, well under the
// closed-loop peak (about 600/s on two CPUs), so requests seldom queue
// and the printed client-side latency is close to the service time.
const warmRate = 40

// runServeWarm is the serve_warm_quick workload: every request a model
// cache hit, so the time goes to the quick search, plan building and
// validation, JSON encoding and HTTP.
func runServeWarm(cfg config, d time.Duration, tr *tracer, setups int) (*outcome, error) {
	inputs, err := loadTrio()
	if err != nil {
		return nil, err
	}
	var warm []upload
	for i, in := range inputs {
		if err := reference(in); err != nil {
			return nil, fmt.Errorf("reference %s: %w", in.name, err)
		}
		in.denom = float64(canonicalMakespans[in.name])
		warm = append(warm, upload{body: in.body, query: in.query, input: i})
	}
	return runServe(cfg, d, tr, setups, serveSpec{
		name:    "serve_warm_quick",
		rate:    warmRate,
		args:    func(int) []string { return []string{"-workers", "2"} },
		cleanup: func(int) {},
		prewarm: warm,
		sequence: func(int, time.Duration) (sequence, error) {
			return func(i int) (upload, bool) { return warm[i%len(warm)], true }, nil
		},
		inputs: func() []*serveInput { return inputs },
	})
}
