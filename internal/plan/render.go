package plan

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"noctest/internal/noc"
)

// Gantt renders the plan as an ASCII chart, one row per interface, time
// flowing left to right over width columns. Each reservation prints the
// core ID (truncated to its cell span); idle time prints dots.
func (p *Plan) Gantt(width int) string {
	if width < 10 {
		width = 10
	}
	makespan := p.Makespan()
	if makespan == 0 {
		return "(empty plan)\n"
	}
	scale := float64(width) / float64(makespan)

	var b strings.Builder
	fmt.Fprintf(&b, "%s  makespan %d cycles  (1 col ~ %.0f cycles)\n",
		p.System, makespan, float64(makespan)/float64(width))
	names := p.Interfaces()
	label := 0
	for _, n := range names {
		if len(n) > label {
			label = len(n)
		}
	}
	for _, name := range names {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, e := range p.Entries {
			if e.Interface != name {
				continue
			}
			from := int(float64(e.Start) * scale)
			to := int(float64(e.End) * scale)
			if to <= from {
				to = from + 1
			}
			if to > width {
				to = width
			}
			cell := strconv.Itoa(e.CoreID)
			for i := from; i < to; i++ {
				if i-from < len(cell) {
					row[i] = cell[i-from]
				} else {
					row[i] = '='
				}
			}
		}
		fmt.Fprintf(&b, "%-*s |%s|\n", label, name, row)
	}
	return b.String()
}

// WriteCSV emits one row per entry: core, interface, timing and power
// columns, ordered by start time.
func (p *Plan) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{
		"core_id", "core_name", "is_processor", "interface", "interface_kind",
		"segment", "segments",
		"start", "end", "duration", "setup", "patterns", "per_pattern", "power",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, e := range p.ByStart() {
		row := []string{
			strconv.Itoa(e.CoreID),
			e.CoreName,
			strconv.FormatBool(e.IsProcessor),
			e.Interface,
			e.InterfaceKind.String(),
			strconv.Itoa(e.Segment),
			strconv.Itoa(e.segments()),
			strconv.Itoa(e.Start),
			strconv.Itoa(e.End),
			strconv.Itoa(e.Duration()),
			strconv.Itoa(e.Setup),
			strconv.Itoa(e.Patterns),
			strconv.Itoa(e.PerPattern),
			strconv.FormatFloat(e.Power, 'f', 1, 64),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// planJSON mirrors Plan for stable JSON field naming.
type planJSON struct {
	System         string      `json:"system"`
	Algorithm      string      `json:"algorithm"`
	PowerLimit     float64     `json:"power_limit,omitempty"`
	ExclusiveLinks bool        `json:"exclusive_links,omitempty"`
	Makespan       int         `json:"makespan"`
	PeakPower      float64     `json:"peak_power"`
	Notes          []string    `json:"notes,omitempty"`
	Entries        []entryJSON `json:"entries"`
}

type entryJSON struct {
	CoreID          int    `json:"core_id"`
	CoreName        string `json:"core_name"`
	IsProcessor     bool   `json:"is_processor,omitempty"`
	Interface       string `json:"interface"`
	InterfaceKind   string `json:"interface_kind"`
	InterfaceCoreID int    `json:"interface_core_id,omitempty"`
	// Segment/Segments serialise only for preemptive chains (Segments
	// > 1), so single-segment plans keep the legacy record shape and
	// legacy records parse as unsegmented.
	Segment    int     `json:"segment,omitempty"`
	Segments   int     `json:"segments,omitempty"`
	Start      int     `json:"start"`
	End        int     `json:"end"`
	Setup      int     `json:"setup"`
	Patterns   int     `json:"patterns"`
	PerPattern int     `json:"per_pattern"`
	Power      float64 `json:"power"`
	PathIn     []tile  `json:"path_in"`
	PathOut    []tile  `json:"path_out"`
}

type tile struct {
	X int `json:"x"`
	Y int `json:"y"`
}

// WriteJSON emits the plan as compact JSON with summary fields, ended
// by a newline. This is the one plan format: noctestd splices these
// bytes verbatim into its responses and memo journal, and readers who
// want it indented pipe it through a formatter such as jq. Preemptive
// plans record each segment's index and chain length; single-segment
// entries keep the legacy record shape. ParseJSON reads the format back,
// and any indentation of it.
func (p *Plan) WriteJSON(w io.Writer) error {
	entries := p.ByStart()
	out := planJSON{
		System:         p.System,
		Algorithm:      p.Algorithm,
		PowerLimit:     p.PowerLimit,
		ExclusiveLinks: p.ExclusiveLinks,
		Makespan:       p.Makespan(),
		// Summed in the written order, so a parsed-back plan writes the
		// same bits.
		PeakPower: peakPower(entries),
		Notes:     p.Notes,
	}
	for _, e := range entries {
		je := entryJSON{
			CoreID:          e.CoreID,
			CoreName:        e.CoreName,
			IsProcessor:     e.IsProcessor,
			Interface:       e.Interface,
			InterfaceKind:   e.InterfaceKind.String(),
			InterfaceCoreID: e.InterfaceCoreID,
			Start:           e.Start,
			End:             e.End,
			Setup:           e.Setup,
			Patterns:        e.Patterns,
			PerPattern:      e.PerPattern,
			Power:           e.Power,
		}
		if e.Segments > 1 {
			je.Segment, je.Segments = e.Segment, e.Segments
		}
		for _, c := range e.PathIn {
			je.PathIn = append(je.PathIn, tile{c.X, c.Y})
		}
		for _, c := range e.PathOut {
			je.PathOut = append(je.PathOut, tile{c.X, c.Y})
		}
		out.Entries = append(out.Entries, je)
	}
	return json.NewEncoder(w).Encode(out)
}

// ParseJSON reads a plan previously written by WriteJSON, including
// legacy records without segment or exclusive-link fields (which parse
// as unsegmented packet-switched plans). The derived makespan and
// peak-power fields are recomputed, not trusted. ParseJSON rejects only
// what would stop the plan from being written back: an empty test
// window, negative power, or a peak power that overflows. Call Validate
// to check the scheduling invariants.
func ParseJSON(r io.Reader) (*Plan, error) {
	var in planJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("plan: parse: %w", err)
	}
	p := &Plan{
		System:         in.System,
		Algorithm:      in.Algorithm,
		PowerLimit:     in.PowerLimit,
		ExclusiveLinks: in.ExclusiveLinks,
		Notes:          in.Notes,
	}
	for _, je := range in.Entries {
		e := Entry{
			CoreID:          je.CoreID,
			CoreName:        je.CoreName,
			IsProcessor:     je.IsProcessor,
			Interface:       je.Interface,
			InterfaceCoreID: je.InterfaceCoreID,
			Segment:         je.Segment,
			Segments:        je.Segments,
			Start:           je.Start,
			End:             je.End,
			Setup:           je.Setup,
			Patterns:        je.Patterns,
			PerPattern:      je.PerPattern,
			Power:           je.Power,
		}
		if e.Segments == 0 {
			e.Segments = 1
		}
		if e.End <= e.Start {
			return nil, fmt.Errorf("plan: parse: core %d has empty window [%d,%d)", je.CoreID, e.Start, e.End)
		}
		if e.Power < 0 {
			return nil, fmt.Errorf("plan: parse: core %d has negative power %g", je.CoreID, e.Power)
		}
		switch je.InterfaceKind {
		case ATE.String():
			e.InterfaceKind = ATE
		case Processor.String():
			e.InterfaceKind = Processor
		default:
			return nil, fmt.Errorf("plan: parse: core %d has unknown interface kind %q", je.CoreID, je.InterfaceKind)
		}
		for _, tl := range je.PathIn {
			e.PathIn = append(e.PathIn, noc.Coord{X: tl.X, Y: tl.Y})
		}
		for _, tl := range je.PathOut {
			e.PathOut = append(e.PathOut, noc.Coord{X: tl.X, Y: tl.Y})
		}
		p.Entries = append(p.Entries, e)
	}
	if math.IsInf(peakPower(p.ByStart()), 0) {
		return nil, fmt.Errorf("plan: parse: peak power overflows")
	}
	return p, nil
}

// Summary renders a human-readable digest: makespan, peak power and
// per-interface utilisation.
func (p *Plan) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan %s (%s)\n", p.System, p.Algorithm)
	fmt.Fprintf(&b, "  makespan:   %d cycles\n", p.Makespan())
	fmt.Fprintf(&b, "  tests:      %d\n", len(p.Entries))
	if p.PowerLimit > 0 {
		fmt.Fprintf(&b, "  peak power: %.1f (limit %.1f)\n", p.PeakPower(), p.PowerLimit)
	} else {
		fmt.Fprintf(&b, "  peak power: %.1f (unconstrained)\n", p.PeakPower())
	}
	util := p.Utilization()
	for _, name := range p.Interfaces() {
		fmt.Fprintf(&b, "  %-12s %5.1f%% busy\n", name, 100*util[name])
	}
	for _, note := range p.Notes {
		fmt.Fprintf(&b, "  note: %s\n", note)
	}
	return b.String()
}
