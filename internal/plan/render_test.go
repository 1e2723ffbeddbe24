package plan

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"noctest/internal/noc"
)

func TestGantt(t *testing.T) {
	p := samplePlan()
	g := p.Gantt(60)
	if !strings.Contains(g, "makespan 160 cycles") {
		t.Errorf("Gantt header missing makespan:\n%s", g)
	}
	for _, iface := range []string{"ate0", "proc1"} {
		if !strings.Contains(g, iface) {
			t.Errorf("Gantt missing row for %s:\n%s", iface, g)
		}
	}
	// Core 11 occupies most of ate0's row.
	if !strings.Contains(g, "11") {
		t.Errorf("Gantt missing core 11 marker:\n%s", g)
	}
	if got := (&Plan{}).Gantt(40); got != "(empty plan)\n" {
		t.Errorf("empty plan Gantt = %q", got)
	}
	// Tiny widths are clamped, not crashed.
	if g := p.Gantt(1); !strings.Contains(g, "ate0") {
		t.Error("clamped Gantt unusable")
	}
}

func TestWriteCSV(t *testing.T) {
	p := samplePlan()
	var buf bytes.Buffer
	if err := p.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1+len(p.Entries) {
		t.Fatalf("csv rows = %d, want %d", len(records), 1+len(p.Entries))
	}
	if records[0][0] != "core_id" {
		t.Errorf("header = %v", records[0])
	}
	// First data row is the earliest entry: core 11.
	if records[1][0] != "11" || records[1][3] != "ate0" {
		t.Errorf("first row = %v", records[1])
	}
}

func TestWriteJSON(t *testing.T) {
	p := samplePlan()
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		System    string  `json:"system"`
		Makespan  int     `json:"makespan"`
		PeakPower float64 `json:"peak_power"`
		Entries   []struct {
			CoreID    int                  `json:"core_id"`
			Interface string               `json:"interface"`
			PathIn    []struct{ X, Y int } `json:"path_in"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	// The one plan format is compact: a single line, nothing a
	// compactor would remove.
	var compact bytes.Buffer
	if err := json.Compact(&compact, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if want := append(compact.Bytes(), '\n'); !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("WriteJSON is not compact JSON ending in a newline:\n%s", buf.Bytes())
	}
	if decoded.System != "sample" || decoded.Makespan != 160 || decoded.PeakPower != 700 {
		t.Errorf("decoded header = %+v", decoded)
	}
	if len(decoded.Entries) != 3 || decoded.Entries[0].CoreID != 11 {
		t.Errorf("decoded entries = %+v", decoded.Entries)
	}
	if len(decoded.Entries[0].PathIn) != 2 {
		t.Errorf("path_in = %+v", decoded.Entries[0].PathIn)
	}
}

func TestSummary(t *testing.T) {
	p := samplePlan()
	s := p.Summary()
	for _, want := range []string{"sample", "makespan:   160", "peak power: 700.0", "ate0", "proc1", "limit 1000"} {
		if !strings.Contains(s, want) {
			t.Errorf("Summary missing %q:\n%s", want, s)
		}
	}
	p.PowerLimit = 0
	if !strings.Contains(p.Summary(), "unconstrained") {
		t.Error("unconstrained plan should say so")
	}
}

// TestWriteJSONCarriesNotes pins the reproducibility satellite: the
// fabric/routing note a compiled model attaches must survive JSON
// serialisation, so a serialised plan names its topology without
// out-of-band context.
func TestWriteJSONCarriesNotes(t *testing.T) {
	p := samplePlan()
	p.Notes = []string{"fabric: torus 4x4, routing xy"}
	var b bytes.Buffer
	if err := p.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "fabric: torus 4x4, routing xy") {
		t.Errorf("JSON output lost the fabric note:\n%s", b.String())
	}
}

// segmentedPlan extends samplePlan's shape with a three-segment chain:
// core 3 is preempted twice on ate1, resuming after gaps.
func segmentedPlan() *Plan {
	p := samplePlan()
	p.Algorithm = "greedy/preemptive"
	for k, span := range [][2]int{{0, 40}, {60, 100}, {120, 170}} {
		p.Entries = append(p.Entries, Entry{
			CoreID: 3, CoreName: "c",
			Interface: "ate1", InterfaceKind: ATE,
			Segment: k, Segments: 3,
			Start: span[0], End: span[1], Setup: 5, Patterns: 3, PerPattern: 10,
			PathIn:  []noc.Coord{{X: 3, Y: 0}, {X: 2, Y: 0}},
			PathOut: []noc.Coord{{X: 2, Y: 0}, {X: 3, Y: 1}},
			Power:   100,
		})
	}
	return p
}

// TestJSONRoundTrip is the encode/parse contract for both plan shapes:
// what WriteJSON emits, ParseJSON reads back entry for entry —
// segment labels, paths and exclusive-link mode included — and the
// round-tripped plan re-serialises to identical bytes.
func TestJSONRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan *Plan
	}{
		{"plain", samplePlan()},
		{"segmented", segmentedPlan()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.plan.ExclusiveLinks = tc.name == "segmented"
			var b bytes.Buffer
			if err := tc.plan.WriteJSON(&b); err != nil {
				t.Fatal(err)
			}
			got, err := ParseJSON(bytes.NewReader(b.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if got.System != tc.plan.System || got.Algorithm != tc.plan.Algorithm ||
				got.PowerLimit != tc.plan.PowerLimit || got.ExclusiveLinks != tc.plan.ExclusiveLinks {
				t.Errorf("header drifted: %+v", got)
			}
			if got.Makespan() != tc.plan.Makespan() || got.PeakPower() != tc.plan.PeakPower() {
				t.Errorf("metrics drifted: makespan %d/%d peak %g/%g",
					got.Makespan(), tc.plan.Makespan(), got.PeakPower(), tc.plan.PeakPower())
			}
			// WriteJSON orders by start and a chain of one may be recorded
			// as Segments 0 or 1; compare in that normal form.
			want := tc.plan.ByStart()
			for i := range want {
				want[i].Segments = want[i].segments()
			}
			if len(got.Entries) != len(want) {
				t.Fatalf("entry count %d, want %d", len(got.Entries), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got.Entries[i], want[i]) {
					t.Errorf("entry %d drifted:\n got %+v\nwant %+v", i, got.Entries[i], want[i])
				}
			}
			var b2 bytes.Buffer
			if err := got.WriteJSON(&b2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b.Bytes(), b2.Bytes()) {
				t.Error("round-tripped plan serialises differently")
			}
		})
	}
}

// TestParseJSONLegacy pins backwards compatibility: records written
// before the segment refactor carry no segment, segments,
// interface_core_id or exclusive_links fields and must parse as
// unsegmented packet-switched plans that Validate accepts.
func TestParseJSONLegacy(t *testing.T) {
	legacy := `{
  "system": "old",
  "algorithm": "greedy/legacy",
  "makespan": 160,
  "peak_power": 300,
  "entries": [
    {
      "core_id": 11, "core_name": "proc1", "is_processor": true,
      "interface": "ate0", "interface_kind": "ate",
      "start": 0, "end": 110, "setup": 10, "patterns": 10, "per_pattern": 10,
      "power": 300,
      "path_in": [{"x": 0, "y": 0}, {"x": 1, "y": 0}],
      "path_out": [{"x": 1, "y": 0}, {"x": 2, "y": 0}]
    }
  ]
}`
	p, err := ParseJSON(strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	if p.ExclusiveLinks {
		t.Error("legacy plan parsed as exclusive-links")
	}
	e := p.Entries[0]
	if e.Segments != 1 || e.Segment != 0 {
		t.Errorf("legacy entry segments = %d/%d, want chain of one", e.Segment, e.Segments)
	}
	if e.InterfaceKind != ATE || len(e.PathIn) != 2 {
		t.Errorf("legacy entry drifted: %+v", e)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("legacy plan fails validation: %v", err)
	}

	if _, err := ParseJSON(strings.NewReader(`{"entries":[{"interface_kind":"weird"}]}`)); err == nil {
		t.Error("unknown interface kind accepted")
	}
	if _, err := ParseJSON(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
}
