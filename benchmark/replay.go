package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"noctest/internal/core"
	"noctest/internal/itc02"
	"noctest/internal/noc"
	"noctest/internal/resultstore"
	"noctest/internal/soc"
	"noctest/internal/socgen"
)

// quickRules is the server's search=quick strategy set: the seven
// deterministic list rules.
var quickRules = []core.Scheduler{
	core.ListScheduler{Variant: core.GreedyFirstAvailable, Priority: core.ProcessorsFirst},
	core.ListScheduler{Variant: core.LookaheadFastestFinish, Priority: core.ProcessorsFirst},
	core.ListScheduler{Variant: core.GreedyFirstAvailable, Priority: core.VolumeDescending},
	core.ListScheduler{Variant: core.LookaheadFastestFinish, Priority: core.VolumeDescending},
	core.ListScheduler{Variant: core.GreedyFirstAvailable, Priority: core.LongestTestFirst},
	core.ListScheduler{Variant: core.LookaheadFastestFinish, Priority: core.LongestTestFirst},
	core.ListScheduler{Variant: core.LookaheadFastestFinish, Priority: core.DistanceOnly},
}

// layerSamples collects per-call figures by metric name.
type layerSamples map[string][]float64

func (ls layerSamples) add(name string, v float64) {
	if ls != nil {
		ls[name] = append(ls[name], v)
	}
}

// summarize records each figure's median, or its mean for the counts
// and sizes, into m.
func (ls layerSamples) summarize(m map[string]float64) {
	for name, xs := range ls {
		switch name {
		case "core.compile_allocs", "plan.json_bytes":
			m[name] = mean(xs)
		default:
			m[name] = median(xs)
		}
	}
}

// compileUpload runs the server's parse, build and compile path for one
// upload under the options the server derives from it, timing each
// layer call into ls and recording spans under parent when traced. The route table
// and the parse of a scenario's itc02 body run inside other calls; they
// are timed by separate, identical calls and nested into the enclosing
// span.
func compileUpload(in *serveInput, tr *tracer, op, parent int, ls layerSamples) (*core.Model, error) {
	var (
		sys  *soc.System
		opts core.Options
		err  error
	)
	if in.scenario {
		var sc socgen.Scenario
		d, id, err := tr.call(op, parent, "socgen", "socgen.ParseScenario", func() (e error) {
			sc, e = socgen.ParseScenario(string(in.body))
			return e
		})
		if err != nil {
			return nil, err
		}
		ls.add("socgen.parse_scenario_us", us(d))
		if ls != nil {
			start := time.Now()
			if _, err := itc02.ParseString(string(in.body)); err != nil {
				return nil, err
			}
			pd := time.Since(start)
			ls.add("itc02.parse_us", us(pd))
			tr.nest(op, id, "itc02", "itc02.Parse", pd)
		}
		if d, _, err = tr.call(op, parent, "soc", "soc.Build", func() (e error) {
			sys, e = sc.Build()
			return e
		}); err != nil {
			return nil, err
		}
		ls.add("soc.build_us", us(d))
		opts = core.Options{MaxSegments: sc.MaxSegments, ResumeCycles: sc.ResumeCost}
		in.fabric = sc.Topology
	} else {
		var bench *itc02.SoC
		d, _, err := tr.call(op, parent, "itc02", "itc02.Parse", func() (e error) {
			bench, e = itc02.Parse(bytes.NewReader(in.body))
			return e
		})
		if err != nil {
			return nil, err
		}
		ls.add("itc02.parse_us", us(d))
		if d, _, err = tr.call(op, parent, "soc", "soc.Build", func() (e error) {
			sys, e = soc.Build(bench, soc.BuildConfig{Processors: in.procs, Profile: soc.Leon(), FailedLinkSeed: 1})
			return e
		}); err != nil {
			return nil, err
		}
		ls.add("soc.build_us", us(d))
		opts = paperOptions()
		in.fabric = "mesh"
	}
	var m *core.Model
	var a, b runtime.MemStats
	if ls != nil {
		runtime.ReadMemStats(&a)
	}
	d, id, err := tr.call(op, parent, "core.compile", "core.Compile", func() (e error) {
		m, e = core.Compile(sys, opts)
		return e
	})
	if err != nil {
		return nil, err
	}
	if ls != nil {
		runtime.ReadMemStats(&b)
		ls.add("core.compile_us", us(d))
		ls.add("core.compile_allocs", float64(b.Mallocs-a.Mallocs))
		start := time.Now()
		if _, err := noc.NewRouteTable(sys.Net.Topo); err != nil {
			return nil, err
		}
		rt := time.Since(start)
		ls.add("noc.route_table_us."+in.fabric, us(rt))
		tr.nest(op, id, "noc", "noc.NewRouteTable", rt)
	}
	return m, nil
}

// reference fills in an input's in-process reference: the quick
// rules' makespan, the hash of their plan's compact JSON (parsed back
// and validated here), and the model's lower bound.
func reference(in *serveInput) error {
	m, err := compileUpload(in, nil, 0, -1, nil)
	if err != nil {
		return err
	}
	res, err := core.Portfolio{Schedulers: quickRules, Workers: 1}.ScheduleModel(context.Background(), m)
	if err != nil {
		return err
	}
	var raw, compact bytes.Buffer
	if err := res.Plan.WriteJSON(&raw); err != nil {
		return err
	}
	if err := json.Compact(&compact, raw.Bytes()); err != nil {
		return err
	}
	if got, err := checkPlanJSON(compact.Bytes()); err != nil || got != res.Makespan() {
		return fmt.Errorf("reference plan does not parse back to makespan %d (got %d): %v", res.Makespan(), got, err)
	}
	in.ref = res.Makespan()
	in.denom = float64(m.LowerBound().Cycles())
	in.planForms, err = planForms(compact.Bytes())
	return err
}

// replay runs the traced pass's uploads in-process through the layer
// calls, doing per upload what the server did: a model-cache hit runs
// the search and builds the plan, a miss first parses, builds and
// compiles, and a scenario result is journalled (a re-posted scenario
// only reads the journal). Each replayed upload shares its request's op
// ID, so the self-time table splits the request's server time by layer.
func replay(tr *tracer, cfg config, prewarm, ups []upload, inputs []*serveInput, o *outcome) error {
	path := filepath.Join(cfg.out, fmt.Sprintf("replay-%s-seed%d.journal", cfg.workload, cfg.seed))
	os.Remove(path)
	store, err := resultstore.Open(path, resultstore.Options{})
	if err != nil {
		return err
	}
	defer os.Remove(path)
	defer store.Close()

	ls := layerSamples{}
	models := map[int]*core.Model{}
	var (
		stats            core.SearchStats
		searchWall, busy time.Duration
		searches         int
	)
	step := func(op int, u upload) error {
		in := inputs[u.input]
		if u.repost {
			_, _, err := tr.call(op, -1, "resultstore", "resultstore.Get", func() error {
				if _, ok := store.Get(in.name); !ok {
					return fmt.Errorf("replay: %s not journalled", in.name)
				}
				return nil
			})
			return err
		}
		m, ok := models[u.input]
		if !ok {
			var err error
			if m, err = compileUpload(in, tr, op, -1, ls); err != nil {
				return err
			}
			if !in.scenario {
				models[u.input] = m // the server's model cache
			}
		}
		before := m.SearchStats()
		var res *core.PortfolioResult
		d, _, err := tr.call(op, -1, "core.search", "core.Portfolio.ScheduleModel", func() (e error) {
			res, e = core.Portfolio{Schedulers: quickRules, Workers: 1}.ScheduleModel(context.Background(), m)
			return e
		})
		if err != nil {
			return err
		}
		stats.Add(m.SearchStats().Sub(before))
		searchWall += d
		searches++
		ls.add("core.search_ms", ms(d))
		for _, vr := range res.Results {
			busy += vr.Elapsed
		}
		if d, _, err = tr.call(op, -1, "plan", "plan.Validate", res.Plan.Validate); err != nil {
			return err
		}
		ls.add("plan.validate_us", us(d))
		var buf bytes.Buffer
		if d, _, err = tr.call(op, -1, "plan", "plan.WriteJSON", func() error { return res.Plan.WriteJSON(&buf) }); err != nil {
			return err
		}
		ls.add("plan.write_json_us", us(d))
		ls.add("plan.json_bytes", float64(buf.Len()))
		if !in.scenario {
			return nil
		}
		rec, err := json.Marshal(struct {
			Makespan int             `json:"makespan"`
			Plan     json.RawMessage `json:"plan"`
		}{res.Makespan(), json.RawMessage(bytes.TrimSpace(buf.Bytes()))})
		if err != nil {
			return err
		}
		_, _, err = tr.call(op, -1, "resultstore", "resultstore.Put", func() error { return store.Put(in.name, rec) })
		return err
	}
	for k, u := range prewarm {
		if err := step(-1-k, u); err != nil {
			return err
		}
	}
	for i, u := range ups {
		if err := step(i, u); err != nil {
			return err
		}
	}

	ls.summarize(o.layer)
	o.layer["core.search.orders"] = float64(stats.Orders)
	o.layer["core.search.ns_per_order"] = ratio(float64(searchWall.Nanoseconds()), float64(stats.Orders))
	o.layer["core.search.replayed_per_order"] = ratio(float64(stats.Replayed), float64(stats.Orders))
	o.layer["core.search.prune_ratio"] = ratio(float64(stats.Pruned), float64(stats.Orders))
	o.layer["core.search.delta_hit_ratio"] = ratio(float64(stats.DeltaHits), float64(stats.Orders))
	o.layer["core.search.list_ms"] = ms(busy) / float64(max(searches, 1))
	o.layer["core.search.worker_busy_ratio"] = ratio(float64(busy), float64(searchWall))
	return nil
}

// exploreRate is serve_explore's open-loop rate and exploreClosed the
// rate of its one closed-loop client against a server journalling
// results on two CPUs today, requests per second. The closed loop's
// uploads are drawn and their references computed before timing,
// closedHeadroom times as many as exploreClosed needs; a server faster
// than that runs out of uploads before the phase ends, says so on
// stderr, and is measured over the requests it did answer.
const (
	exploreRate    = 80
	exploreClosed  = 350
	closedHeadroom = 2
)

// exploreGen draws serve_explore's request sequence from the workload
// seed: three in four requests upload a socgen scenario never posted
// before (default generator parameters: 4-24 cores, mesh, torus or
// degraded fabric, half of them preemptive), one in four re-posts an
// earlier one.
type exploreGen struct {
	seed int64
	// pre are the pre-warm scenarios; they lead inputs.
	pre    []*serveInput
	inputs []*serveInput
}

// explorePrewarm is the number of scenarios every serve_explore set-up
// sends once, each through the whole miss path, so set-up ends at the
// server's first answers. On a bare start of a few milliseconds, steal
// from other machines moved the median set-up time by a quarter
// between two sets of runs. prewarmSeed draws them: the same ones on
// every workload seed, so setup_s times the same work.
const (
	explorePrewarm = 3
	prewarmSeed    = 1
)

// prewarm draws the pre-warm scenarios, computes their references and
// returns their uploads. The sequence never sends them again.
func (g *exploreGen) prewarm() ([]upload, error) {
	r := rand.New(rand.NewSource(prewarmSeed))
	var ups []upload
	for k := 0; k < explorePrewarm; k++ {
		in, err := scenarioInput(r.Int63())
		if err != nil {
			return nil, err
		}
		g.pre = append(g.pre, in)
		ups = append(ups, upload{body: in.body, query: in.query, input: k})
	}
	return ups, nil
}

// refWorkers computes scenario references in parallel, one per CPU.
const refWorkers = 2

// sequence returns the first n uploads. The draws come first, from one
// seeded stream; the scenarios and their references are then built in
// parallel. Every drawn scenario must be schedulable.
func (g *exploreGen) sequence(n int) ([]upload, error) {
	r := rand.New(rand.NewSource(g.seed))
	var seeds []int64
	ups := make([]upload, n)
	for i := range ups {
		if len(seeds) > 0 && r.Intn(4) == 0 {
			ups[i] = upload{input: r.Intn(len(seeds)), repost: true}
			continue
		}
		seeds = append(seeds, r.Int63())
		ups[i] = upload{input: len(seeds) - 1}
	}
	inputs := make([]*serveInput, len(seeds))
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for w := 0; w < refWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := w; k < len(seeds); k += refWorkers {
				inputs[k], errs[k] = scenarioInput(seeds[k])
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for i := range ups {
		ups[i].body, ups[i].query = inputs[ups[i].input].body, inputs[ups[i].input].query
		ups[i].input += len(g.pre)
	}
	g.inputs = append(append([]*serveInput(nil), g.pre...), inputs...)
	return ups, nil
}

// scenarioInput draws one scenario upload and computes its reference.
func scenarioInput(seed int64) (*serveInput, error) {
	var buf bytes.Buffer
	if err := socgen.NewScenario(seed, socgen.ScenarioParams{}).Encode(&buf); err != nil {
		return nil, err
	}
	in := &serveInput{name: fmt.Sprintf("scenario-%d", seed), body: buf.Bytes(), query: "search=quick", scenario: true}
	if err := reference(in); err != nil {
		return nil, fmt.Errorf("reference %s: %w", in.name, err)
	}
	return in, nil
}

// runServeExplore is the serve_explore workload: compile-, route-table-
// and journal-bound serving of scenarios the server has mostly never
// seen.
func runServeExplore(cfg config, d time.Duration, tr *tracer, setups int) (*outcome, error) {
	gen := &exploreGen{seed: cfg.seed}
	pre, err := gen.prewarm()
	if err != nil {
		return nil, err
	}
	journal := func(i int) string {
		return filepath.Join(cfg.out, fmt.Sprintf("explore-seed%d-%d.journal", cfg.seed, i))
	}
	return runServe(cfg, d, tr, setups, serveSpec{
		name: "serve_explore",
		rate: exploreRate,
		args: func(i int) []string {
			os.Remove(journal(i))
			return []string{"-workers", "2", "-store", journal(i)}
		},
		cleanup: func(i int) { os.Remove(journal(i)) },
		prewarm: pre,
		sequence: func(open int, closed time.Duration) (sequence, error) {
			ups, err := gen.sequence(open + int(closedHeadroom*exploreClosed*closed.Seconds()))
			if err != nil {
				return nil, err
			}
			return func(i int) (upload, bool) {
				if i >= len(ups) {
					return upload{}, false
				}
				return ups[i], true
			}, nil
		},
		inputs: func() []*serveInput { return gen.inputs },
		afterRun: func(i int, o *outcome) error {
			// Restart on the run's journal: the replay a restarted
			// server pays before it is ready.
			s, ready, err := startNoctestd(cfg.noctestd, serverLog(cfg), "-workers", "2", "-store", journal(i))
			if err != nil {
				return err
			}
			st, err := s.stats()
			if serr := s.stop(); err == nil {
				err = serr
			}
			if err != nil {
				return err
			}
			fi, err := os.Stat(journal(i))
			if err != nil {
				return err
			}
			o.layer["resultstore.replay_ms"] = ms(ready)
			o.layer["resultstore.bytes_per_record"] = ratio(float64(fi.Size()), float64(st.Memo.Recovered))
			return nil
		},
	})
}
