package pubsub

import (
	"bytes"
	"encoding/xml"
	"math"
	"testing"

	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/wire"
)

// FuzzFilterParseWire drives the binary filter decoder — the payload of
// every subscription-churn message — with arbitrary frames: it must
// never panic, and accepted filters must round-trip byte-stably.
func FuzzFilterParseWire(f *testing.F) {
	seed := NewFilter(TypeIs("alert"), Eq("user", event.S("alice")))
	f.Add([]byte(seed.AppendWire(nil)))
	f.Add([]byte{})
	f.Add([]byte{0x03, 0x01, 0x61})
	f.Fuzz(func(t *testing.T, data []byte) {
		var flt Filter
		if err := flt.ParseWire(wire.NewBinReader(data)); err != nil {
			return
		}
		first := flt.AppendWire(nil)
		var re Filter
		if err := re.ParseWire(wire.NewBinReader(first)); err != nil {
			t.Fatalf("re-decode of canonical form failed: %v", err)
		}
		if second := re.AppendWire(nil); !bytes.Equal(first, second) {
			t.Fatalf("encode not a fixed point:\n first=%x\nsecond=%x", first, second)
		}
	})
}

// sameFilter is reflect.DeepEqual on two decoded filters, except that a
// NaN value equals a NaN value.
func sameFilter(a, b Filter) bool {
	if (a.Constraints == nil) != (b.Constraints == nil) || len(a.Constraints) != len(b.Constraints) {
		return false
	}
	for i, c := range a.Constraints {
		d := b.Constraints[i]
		bothNaN := c.Val.K == event.KindFloat && d.Val.K == event.KindFloat && math.IsNaN(c.Val.F) && math.IsNaN(d.Val.F)
		if bothNaN {
			c.Val, d.Val = event.Value{}, event.Value{}
		}
		if c != d {
			return false
		}
	}
	return true
}

// FuzzFilterParseXML drives the hand-written XML filter scanner — the
// payload of every XML sub, unsub, adv and unadv — with arbitrary bytes
// against encoding/xml: it must never panic; what it accepts,
// UnmarshalXML accepts as the same filter; and an accepted filter appends
// the bytes MarshalXML writes, which the scanner takes back.
func FuzzFilterParseXML(f *testing.F) {
	seed := NewFilter(TypeIs("alert"), Eq("user", event.S("al<i>ce & \"bob\"")), Gt("x", event.F(-2.5e-7)),
		Le("n", event.I(7)), Eq("ok", event.B(false)), Exists("y"))
	f.Add(seed.AppendXML(nil))
	f.Add(Filter{}.AppendXML(nil))
	f.Add([]byte(`<filter><c attr="a" op="eq" kind="int">12abc</c></filter>`))
	f.Add([]byte(`<filter><c`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var flt Filter
		if err := flt.ParseXML(wire.NewXMLScanner(data)); err != nil {
			return
		}
		var want Filter
		if err := xml.Unmarshal(data, &want); err != nil {
			t.Fatalf("the scanner accepted %+v, encoding/xml says: %v", flt, err)
		}
		if !sameFilter(flt, want) {
			t.Fatalf("scanner %+v\nencoding/xml %+v", flt, want)
		}
		first := flt.AppendXML(nil)
		var ref bytes.Buffer
		if err := xml.NewEncoder(&ref).EncodeElement(flt, xml.StartElement{Name: xml.Name{Local: "filter"}}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, ref.Bytes()) {
			t.Fatalf("AppendXML %q\nMarshal   %q", first, ref.Bytes())
		}
		var re Filter
		if err := re.ParseXML(wire.NewXMLScanner(first)); err != nil || !sameFilter(flt, re) {
			t.Fatalf("canonical form %q does not scan back: %+v, %v", first, re, err)
		}
	})
}
