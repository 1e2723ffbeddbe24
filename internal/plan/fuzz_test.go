package plan

import (
	"bytes"
	"testing"
)

// FuzzPlanJSON drives ParseJSON with arbitrary bytes: it must never
// panic, and any plan it accepts must survive the canonical round trip
// WriteJSON → ParseJSON → WriteJSON with identical bytes, since noctestd
// journals and re-serves those bytes verbatim.
func FuzzPlanJSON(f *testing.F) {
	for _, p := range []*Plan{samplePlan(), segmentedPlan()} {
		var b bytes.Buffer
		if err := p.WriteJSON(&b); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	for _, s := range []string{
		``,
		`{}`,
		`{"entries":null}`,
		`{"entries":[{"interface_kind":"ate","start":0,"end":1}]}`,
		`{"entries":[{"interface_kind":"ate","start":5,"end":5}]}`,
		`{"entries":[{"interface_kind":"processor","start":0,"end":2,"power":-1}]}`,
		`{"entries":[{"interface_kind":"ate","start":0,"end":2,"power":1e308},{"interface_kind":"ate","start":1,"end":3,"power":1e308}]}`,
		`{"entries":[{"core_id":1,"interface_kind":"ate","start":0,"end":4,"segment":3,"segments":1},{"core_id":1,"interface_kind":"ate","start":0,"end":4,"segments":-2}]}`,
		`{"entries":[{"core_id":1,"interface_kind":"ate","start":2,"end":9,"power":0.1},{"core_id":2,"interface_kind":"ate","start":0,"end":9,"power":0.2},{"core_id":3,"interface_kind":"ate","start":1,"end":9,"power":0.3}]}`,
		`{"system":"é<","notes":["a\ud800"],"power_limit":-0,"entries":[]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		p, err := ParseJSON(bytes.NewReader(input))
		if err != nil {
			return // rejection is fine; panics are not
		}
		var first bytes.Buffer
		if err := p.WriteJSON(&first); err != nil {
			t.Fatalf("accepted plan does not write: %v", err)
		}
		again, err := ParseJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written plan does not reparse: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := again.WriteJSON(&second); err != nil {
			t.Fatalf("reparsed plan does not write: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the bytes:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
