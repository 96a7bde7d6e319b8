package event

import (
	"bytes"
	"encoding/xml"
	"math"
	"testing"
	"time"

	"github.com/gloss/active/internal/wire"
)

// FuzzEventParseWire drives the binary event decoder with arbitrary
// frames: it must never panic, and anything it accepts must re-encode
// to a stable canonical form (attribute order is sorted, so
// encode∘parse∘encode is a fixed point).
func FuzzEventParseWire(f *testing.F) {
	seed := New("alert", "sensor-7", 42*time.Millisecond)
	seed.SetBody("hot")
	seed.Set("user", S("alice"))
	seed.Set("temp", I(99))
	f.Add([]byte(seed.AppendWire(nil)))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		var e Event
		if err := e.ParseWire(wire.NewBinReader(data)); err != nil {
			return
		}
		first := e.AppendWire(nil)
		var re Event
		if err := re.ParseWire(wire.NewBinReader(first)); err != nil {
			t.Fatalf("re-decode of canonical form failed: %v", err)
		}
		if second := re.AppendWire(nil); !bytes.Equal(first, second) {
			t.Fatalf("encode not a fixed point:\n first=%x\nsecond=%x", first, second)
		}
	})
}

// sameEvent is reflect.DeepEqual on two decoded events, except that a
// NaN attribute equals a NaN attribute.
func sameEvent(a, b *Event) bool {
	if a.ID != b.ID || a.Type != b.Type || a.Source != b.Source || a.Time != b.Time || a.Body != b.Body ||
		a.frozen != b.frozen || (a.Attrs == nil) != (b.Attrs == nil) || len(a.Attrs) != len(b.Attrs) {
		return false
	}
	for name, v := range a.Attrs {
		w, ok := b.Attrs[name]
		if !ok || v != w && !(v.K == KindFloat && w.K == KindFloat && math.IsNaN(v.F) && math.IsNaN(w.F)) {
			return false
		}
	}
	return true
}

// FuzzEventParseXML drives the hand-written XML event scanner with
// arbitrary bytes against encoding/xml: it must never panic; what it
// accepts, UnmarshalXML accepts as the same event; and an accepted event
// appends the bytes MarshalXML writes, which the scanner takes back.
func FuzzEventParseXML(f *testing.F) {
	seed := New("alert", "sensor-7", 42*time.Millisecond)
	seed.SetBody("<hot a=\"1\"/>")
	seed.Set("user", S("al<i>ce & \"bob\"\r\n"))
	seed.Set("temp", I(-99))
	seed.Set("x", F(2.5e-7))
	seed.Set("ok", B(true))
	f.Add(seed.AppendXML(nil))
	f.Add(New("", "", 0).AppendXML(nil))
	f.Add([]byte(`<event id="00" type="t" source="s" time="1"></event>`))
	f.Add([]byte(`<event`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var e Event
		if err := e.ParseXML(wire.NewXMLScanner(data)); err != nil {
			return
		}
		want := new(Event)
		if err := xml.Unmarshal(data, want); err != nil {
			t.Fatalf("the scanner accepted %+v, encoding/xml says: %v", e, err)
		}
		if !sameEvent(&e, want) {
			t.Fatalf("scanner %+v\nencoding/xml %+v", e, *want)
		}
		first := e.AppendXML(nil)
		if ref, err := xml.Marshal(&e); err != nil || !bytes.Equal(first, ref) {
			t.Fatalf("AppendXML %q\nMarshal   %q (%v)", first, ref, err)
		}
		var re Event
		if err := re.ParseXML(wire.NewXMLScanner(first)); err != nil || !sameEvent(&e, &re) {
			t.Fatalf("canonical form %q does not scan back: %+v, %v", first, re, err)
		}
	})
}
