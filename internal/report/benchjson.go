package report

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"noctest/internal/core"
	"noctest/internal/itc02"
	"noctest/internal/soc"
)

// ScheduleBenchRecord is one benchmark's entry in the machine-readable
// perf trajectory (BENCH_schedule.json): the portfolio's best makespan
// for the canonical configuration and the wall cost of one ScheduleBest
// call, so successive PRs can diff both search quality and engine speed.
type ScheduleBenchRecord struct {
	// Benchmark names the ITC'02 system.
	Benchmark string `json:"benchmark"`
	// Topology describes the NoC fabric the row was measured on (the
	// canonical cell is the paper's mesh), so trajectory rows stay
	// comparable as fabrics become configurable.
	Topology string `json:"topology"`
	// BestMakespan is the portfolio's winning test time in cycles.
	BestMakespan int `json:"best_makespan"`
	// BestScheduler names the winning strategy.
	BestScheduler string `json:"best_scheduler"`
	// NsPerScheduleBest is the mean wall time of one ScheduleBest call
	// (one compile plus the full portfolio race), in nanoseconds.
	NsPerScheduleBest int64 `json:"ns_per_schedule_best"`
	// Runs is the number of timed calls averaged into NsPerScheduleBest.
	Runs int `json:"runs"`
	// OrdersPerSecond is the engine's search throughput: core orders
	// evaluated per second of portfolio wall time, over the timed runs.
	// Early-aborted evaluations count — an aborted order is a scored
	// order — so the figure measures how fast the search space is
	// covered, the quantity the incremental kernel exists to raise.
	OrdersPerSecond float64 `json:"orders_per_second"`
	// MoveLocalityDeciles is the per-step move-locality histogram:
	// entry d counts the evaluations whose replay started in decile d
	// of the core order. Bucket 0 holds cold full replays (list rules,
	// restart shuffles); high buckets hold the suffix-local moves the
	// incremental kernel scores almost for free.
	MoveLocalityDeciles []uint64 `json:"move_locality_deciles"`
	// DeltaHitRate is the fraction of evaluated orders the kernel
	// answered from its checkpoints with zero placements (a resubmitted
	// order, or a reused prefix already over the bound), over the timed
	// runs.
	DeltaHitRate float64 `json:"delta_hit_rate"`
}

// ScheduleBench is the full perf-trajectory document.
type ScheduleBench struct {
	// Seed drives the portfolio's randomized searches; the makespans
	// are deterministic for a fixed seed.
	Seed int64 `json:"seed"`
	// Workers is the portfolio worker bound (0 means GOMAXPROCS).
	Workers int `json:"workers"`
	// Options documents the canonical configuration measured: the
	// paper's 50% power ceiling and BIST pattern factor on the fully
	// processor-extended systems.
	Options string `json:"options"`
	// Records holds one entry per benchmark, in itc02 order.
	Records []ScheduleBenchRecord `json:"records"`
}

// benchRuns is the number of timed ScheduleBest calls per benchmark.
const benchRuns = 5

// PaperProcessors returns the processor-instance count of the paper's
// evaluation systems: 8, or 6 for the smaller d695.
func PaperProcessors(benchName string) int {
	if benchName == "d695" {
		return 6
	}
	return 8
}

// CanonicalSystem builds the canonical reproduction cell of one
// embedded benchmark — Leon processors at full reuse under the paper's
// power ceiling and BIST factor. It is the single definition of the
// cell that BENCH_schedule.json and the verification sweep's benchmark
// gap records both measure, so the two trajectories stay comparable.
func CanonicalSystem(benchName string) (*soc.System, core.Options, error) {
	bench, err := itc02.Benchmark(benchName)
	if err != nil {
		return nil, core.Options{}, err
	}
	sys, err := soc.Build(bench, soc.BuildConfig{
		Processors: PaperProcessors(benchName),
		Profile:    soc.Leon(),
	})
	if err != nil {
		return nil, core.Options{}, err
	}
	opts := core.Options{
		PowerLimitFraction: PaperPowerFraction,
		BISTPatternFactor:  PaperBISTFactor,
	}
	return sys, opts, nil
}

// RunScheduleBench measures every named benchmark (nil selects all
// embedded benchmarks) under the canonical portfolio configuration:
// Leon processors at full reuse, the paper's 50% power ceiling and BIST
// factor, default portfolio with the given seed. Each
// benchmark is scheduled benchRuns+1 times — one warm-up, then timed
// runs — and the mean wall time and (seed-deterministic) best makespan
// are recorded.
func RunScheduleBench(ctx context.Context, benchmarks []string, seed int64, workers int) (*ScheduleBench, error) {
	if len(benchmarks) == 0 {
		benchmarks = itc02.BenchmarkNames()
	}
	out := &ScheduleBench{
		Seed:    seed,
		Workers: workers,
		Options: fmt.Sprintf("leon/full-reuse/power=%g/bist=%g", PaperPowerFraction, PaperBISTFactor),
	}
	pf := core.Portfolio{Schedulers: core.DefaultPortfolio(seed), Workers: workers}
	for _, benchName := range benchmarks {
		sys, opts, err := CanonicalSystem(benchName)
		if err != nil {
			return nil, err
		}

		// Each run compiles its own model (matching what ScheduleBest
		// costs a caller) and contributes its model's search telemetry,
		// so the throughput figure covers exactly the timed window.
		var res *core.PortfolioResult
		var elapsed time.Duration
		var agg core.SearchStats
		for run := 0; run < benchRuns+1; run++ {
			start := time.Now()
			m, err := core.Compile(sys, opts)
			if err != nil {
				return nil, fmt.Errorf("report: bench %s: %w", benchName, err)
			}
			res, err = pf.ScheduleModel(ctx, m)
			if err != nil {
				return nil, fmt.Errorf("report: bench %s: %w", benchName, err)
			}
			if run > 0 { // first run warms code and allocator caches
				elapsed += time.Since(start)
				agg.Add(m.SearchStats())
			}
		}
		deciles := make([]uint64, len(agg.Locality))
		copy(deciles, agg.Locality[:])
		out.Records = append(out.Records, ScheduleBenchRecord{
			Benchmark:           benchName,
			Topology:            sys.Net.Topo.String(),
			BestMakespan:        res.Makespan(),
			BestScheduler:       res.Best,
			NsPerScheduleBest:   elapsed.Nanoseconds() / benchRuns,
			Runs:                benchRuns,
			OrdersPerSecond:     float64(agg.Orders) / elapsed.Seconds(),
			MoveLocalityDeciles: deciles,
			DeltaHitRate:        float64(agg.DeltaHits) / float64(agg.Orders),
		})
	}
	return out, nil
}

// WriteJSON renders the document with stable indentation so diffs stay
// readable in version control.
func (b *ScheduleBench) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// WriteMergedJSON renders the document like WriteJSON while preserving
// every top-level key of a previous document that this generator does
// not own — the hand-maintained baseline_* blocks BENCH_schedule.json
// carries — in their original position. Keys the generator owns are
// replaced with fresh values; an existing document that does not parse
// — including one with duplicate top-level keys, where "preserve" would
// silently keep only the last duplicate — is an error (refusing to
// silently clobber it), and an empty existing byte slice degrades to a
// plain write.
func (b *ScheduleBench) WriteMergedJSON(w io.Writer, existing []byte) error {
	ownData, err := json.Marshal(b)
	if err != nil {
		return err
	}
	ownOrder, vals, err := topLevelKeys(ownData)
	if err != nil {
		return err
	}
	order := ownOrder
	if len(bytes.TrimSpace(existing)) > 0 {
		prevOrder, prevVals, err := topLevelKeys(existing)
		if err != nil {
			return fmt.Errorf("report: existing trajectory does not parse (refusing to overwrite): %w", err)
		}
		own := make(map[string]bool, len(ownOrder))
		for _, k := range ownOrder {
			own[k] = true
		}
		order = order[:0:0]
		seen := make(map[string]bool, len(prevOrder))
		for _, k := range prevOrder {
			seen[k] = true
			order = append(order, k)
			if !own[k] {
				vals[k] = prevVals[k]
			}
		}
		for _, k := range ownOrder {
			if !seen[k] {
				order = append(order, k)
			}
		}
	}

	var out bytes.Buffer
	out.WriteString("{\n")
	for i, k := range order {
		key, err := json.Marshal(k)
		if err != nil {
			return err
		}
		fmt.Fprintf(&out, "  %s: ", key)
		var val bytes.Buffer
		if err := json.Indent(&val, vals[k], "  ", "  "); err != nil {
			return err
		}
		out.Write(val.Bytes())
		if i < len(order)-1 {
			out.WriteString(",")
		}
		out.WriteString("\n")
	}
	out.WriteString("}\n")
	_, err = w.Write(out.Bytes())
	return err
}

// topLevelKeys splits one JSON object into its top-level keys, in
// document order, and their raw values.
func topLevelKeys(data []byte) ([]string, map[string]json.RawMessage, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	t, err := dec.Token()
	if err != nil {
		return nil, nil, err
	}
	if d, ok := t.(json.Delim); !ok || d != '{' {
		return nil, nil, fmt.Errorf("top-level JSON value is %v, not an object", t)
	}
	var order []string
	vals := make(map[string]json.RawMessage)
	for dec.More() {
		kt, err := dec.Token()
		if err != nil {
			return nil, nil, err
		}
		key, ok := kt.(string)
		if !ok {
			return nil, nil, fmt.Errorf("non-string object key %v", kt)
		}
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return nil, nil, fmt.Errorf("value of %q: %w", key, err)
		}
		if _, dup := vals[key]; dup {
			// Go's decoder tolerates duplicate keys, but merging on top of
			// one would silently keep only the last value — dropping a
			// hand-maintained baseline block without a trace. Refuse.
			return nil, nil, fmt.Errorf("duplicate top-level key %q", key)
		}
		order = append(order, key)
		vals[key] = raw
	}
	if _, err := dec.Token(); err != nil {
		return nil, nil, err
	}
	return order, vals, nil
}
