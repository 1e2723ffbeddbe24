package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one op share Op;
// Parent is the ID of the enclosing span, -1 for an op's root. A layer
// called from inside another layer's call (the route table inside
// core.Compile) is timed by a separate, identical call and nested at
// the start of the enclosing span. A derived span was not timed here:
// its duration is a figure the server reported (the response's
// compile_ms/schedule_ms); it takes its share out of its parent's self
// time but adds none to its own layer's.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Op      int     `json:"op"`
	Layer   string  `json:"layer"`
	Name    string  `json:"name"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
	Derived bool    `json:"derived,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ops   map[int]bool
}

func newTracer() *tracer { return &tracer{t0: time.Now(), ops: map[int]bool{}} }

func (t *tracer) ms(at time.Time) float64 {
	return float64(at.Sub(t.t0)) / float64(time.Millisecond)
}

// record adds a finished span and returns its ID (-1 when untraced).
func (t *tracer) record(op, parent int, layer, name string, start, end time.Time, derived bool) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Layer: layer, Name: name,
		StartMs: t.ms(start), EndMs: t.ms(end), Derived: derived})
	t.ops[op] = true
	return id
}

// reserve allocates the ID of a span whose children are recorded
// before it ends; finish fills it in.
func (t *tracer) reserve() int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans)})
	return len(t.spans) - 1
}

func (t *tracer) finish(id, op, parent int, layer, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id] = span{ID: id, Parent: parent, Op: op, Layer: layer, Name: name,
		StartMs: t.ms(start), EndMs: t.ms(end)}
	t.ops[op] = true
}

// call times f as a span and returns its duration. Untraced, it only
// times f.
func (t *tracer) call(op, parent int, layer, name string, f func() error) (time.Duration, int, error) {
	start := time.Now()
	err := f()
	end := time.Now()
	return end.Sub(start), t.record(op, parent, layer, name, start, end, false), err
}

// derive records a derived child of parent starting at start.
func (t *tracer) derive(op, parent int, layer, name string, start time.Time, d time.Duration) {
	t.record(op, parent, layer, name, start, start.Add(d), true)
}

// nest records a call timed separately as a child of parent, placed at
// the parent's start.
func (t *tracer) nest(op, parent int, layer, name string, d time.Duration) {
	if t == nil {
		return
	}
	start := t.startOf(parent)
	t.record(op, parent, layer, name, start, start.Add(d), false)
}

// startOf returns the start of a recorded span.
func (t *tracer) startOf(id int) time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.t0.Add(time.Duration(t.spans[id].StartMs * float64(time.Millisecond)))
}

func (t *tracer) opCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ops)
}

// layerTime is one row of the self-time table: the layer's measured
// self time and the time derived spans attribute to it, both summed
// over the run, in ms.
type layerTime struct {
	self, derived float64
	spans         int
}

// selfTimes computes each layer's self time: a measured span's
// duration minus the part of it its children (measured or derived)
// cover.
func (t *tracer) selfTimes() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerTime{}
	for _, s := range t.spans {
		lt := out[s.Layer]
		lt.spans++
		if s.Derived {
			lt.derived += s.EndMs - s.StartMs
		} else {
			lt.self += s.EndMs - s.StartMs - covered(s, children[s.ID])
		}
		out[s.Layer] = lt
	}
	return out
}

// covered returns how much of parent's interval the union of the
// children's intervals covers, in ms.
func covered(parent span, kids []span) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.StartMs, parent.StartMs), min(k.EndMs, parent.EndMs)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, end := 0.0, parent.StartMs
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return total
}

// write stores the spans and the self-time table as one JSON document.
func (t *tracer) write(path string, cfg config, table map[string]layerTime, ops int) error {
	type row struct {
		Layer          string  `json:"layer"`
		SelfMsPerOp    float64 `json:"self_ms_per_op"`
		DerivedMsPerOp float64 `json:"derived_ms_per_op"`
		Spans          int     `json:"spans"`
	}
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Ops      int    `json:"ops"`
		SelfTime []row  `json:"self_time"`
		Spans    []span `json:"spans"`
	}{Workload: cfg.workload, Seed: cfg.seed, Ops: ops, Spans: t.spans}
	for _, l := range sortedLayers(table) {
		lt := table[l]
		doc.SelfTime = append(doc.SelfTime, row{l, lt.self / float64(max(ops, 1)), lt.derived / float64(max(ops, 1)), lt.spans})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}

func sortedLayers(table map[string]layerTime) []string {
	ls := make([]string, 0, len(table))
	for l := range table {
		ls = append(ls, l)
	}
	sort.Strings(ls)
	return ls
}

// printSelfTimes writes the self-time table to stderr.
func printSelfTimes(table map[string]layerTime, ops int, path string) {
	fmt.Fprintf(os.Stderr, "self time per op over %d traced ops (spans in %s):\n", ops, path)
	fmt.Fprintf(os.Stderr, "  %-14s %12s %12s %8s\n", "layer", "self_ms", "derived_ms", "spans")
	for _, l := range sortedLayers(table) {
		lt := table[l]
		fmt.Fprintf(os.Stderr, "  %-14s %12.4f %12.4f %8d\n", l,
			lt.self/float64(max(ops, 1)), lt.derived/float64(max(ops, 1)), lt.spans)
	}
}
