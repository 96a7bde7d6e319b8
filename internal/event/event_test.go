package event

import (
	"encoding/xml"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestValueConstructors(t *testing.T) {
	tests := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{S("hi"), KindString, "hi"},
		{I(-42), KindInt, "-42"},
		{F(2.5), KindFloat, "2.5"},
		{B(true), KindBool, "true"},
	}
	for _, tt := range tests {
		if tt.v.K != tt.kind {
			t.Errorf("kind = %v, want %v", tt.v.K, tt.kind)
		}
		if got := tt.v.String(); got != tt.str {
			t.Errorf("String() = %q, want %q", got, tt.str)
		}
	}
}

func TestValueEqualCrossNumeric(t *testing.T) {
	if !I(3).Equal(F(3.0)) {
		t.Errorf("3 should equal 3.0")
	}
	if I(3).Equal(F(3.5)) {
		t.Errorf("3 should not equal 3.5")
	}
	if S("3").Equal(I(3)) {
		t.Errorf("string should not equal int")
	}
}

func TestValueCompare(t *testing.T) {
	tests := []struct {
		a, b Value
		want int
		ok   bool
	}{
		{I(1), I(2), -1, true},
		{F(2.5), I(2), 1, true},
		{S("a"), S("b"), -1, true},
		{S("b"), S("b"), 0, true},
		{S("a"), I(1), 0, false},
		{B(true), B(true), 0, true},
		{B(true), B(false), 0, false},
	}
	for _, tt := range tests {
		got, ok := tt.a.Compare(tt.b)
		if ok != tt.ok || (ok && got != tt.want) {
			t.Errorf("Compare(%v, %v) = (%d,%v), want (%d,%v)", tt.a, tt.b, got, ok, tt.want, tt.ok)
		}
	}
}

func TestImplicitAttributes(t *testing.T) {
	e := New("gps.location", "sensor-1", 5*time.Second)
	if v, ok := e.Get("type"); !ok || v.S != "gps.location" {
		t.Errorf("implicit type = %v", v)
	}
	if v, ok := e.Get("source"); !ok || v.S != "sensor-1" {
		t.Errorf("implicit source = %v", v)
	}
	if v, ok := e.Get("time"); !ok || v.I != int64(5*time.Second) {
		t.Errorf("implicit time = %v", v)
	}
}

func TestXMLRoundTrip(t *testing.T) {
	e := New("weather.report", "thermo-3", 90*time.Second).
		Set("region", S("south-street")).
		Set("tempC", F(20.5)).
		Set("reading", I(7)).
		Set("sunny", B(true)).
		SetBody(`<reading><raw>20.5</raw></reading>`).
		Stamp(1)
	data, err := xml.Marshal(e)
	if err != nil {
		t.Fatalf("xml.Marshal: %v", err)
	}
	got := new(Event)
	if err := xml.Unmarshal(data, got); err != nil {
		t.Fatalf("xml.Unmarshal: %v", err)
	}
	if got.ID != e.ID || got.Type != e.Type || got.Source != e.Source || got.Time != e.Time {
		t.Fatalf("envelope mismatch: %+v vs %+v", got, e)
	}
	if len(got.Attrs) != 4 {
		t.Fatalf("attrs = %v", got.Attrs)
	}
	for name, want := range e.Attrs {
		if gv, ok := got.Attrs[name]; !ok || !gv.Equal(want) {
			t.Errorf("attr %q = %v, want %v", name, gv, want)
		}
	}
	if !strings.Contains(got.Body, "<raw>20.5</raw>") {
		t.Errorf("body lost: %q", got.Body)
	}
}

func TestXMLDeterministic(t *testing.T) {
	e := New("t", "s", 0).Set("b", I(1)).Set("a", I(2)).Set("c", I(3)).Stamp(9)
	d1, err := xml.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := xml.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if string(d1) != string(d2) {
		t.Fatalf("marshal not deterministic")
	}
	ai := strings.Index(string(d1), `name="a"`)
	bi := strings.Index(string(d1), `name="b"`)
	ci := strings.Index(string(d1), `name="c"`)
	if !(ai < bi && bi < ci) {
		t.Fatalf("attributes not sorted: %s", d1)
	}
}

func TestStampDeterministicDistinct(t *testing.T) {
	a := New("t", "s", 0).Stamp(1)
	b := New("t", "s", 0).Stamp(1)
	c := New("t", "s", 0).Stamp(2)
	if a.ID != b.ID {
		t.Fatalf("same (source,type,seq) should yield same ID")
	}
	if a.ID == c.ID {
		t.Fatalf("different seq should yield different ID")
	}
}

func TestClone(t *testing.T) {
	e := New("t", "s", 0).Set("x", I(1))
	c := e.Clone()
	c.Attrs["x"] = I(2)
	c.Attrs["y"] = I(3)
	if e.Attrs["x"].I != 1 || len(e.Attrs) != 1 {
		t.Fatalf("clone mutated original: %+v", e.Attrs)
	}
}

// Property: string and numeric round-trips through the XML codec preserve values.
func TestQuickAttrRoundTrip(t *testing.T) {
	f := func(s string, i int64, fl float64, b bool) bool {
		// encoding/xml cannot represent invalid XML chars; restrict to
		// printable input for the string attr.
		s = strings.Map(func(r rune) rune {
			if r < 0x20 || r > 0xFFFD {
				return 'x'
			}
			return r
		}, s)
		// NaN does not round-trip through formatted floats equal to itself.
		if fl != fl {
			fl = 0
		}
		e := New("q", "quick", 0).
			Set("s", S(s)).Set("i", I(i)).Set("f", F(fl)).Set("b", B(b)).
			Stamp(0)
		data, err := xml.Marshal(e)
		if err != nil {
			return false
		}
		got := new(Event)
		if err := xml.Unmarshal(data, got); err != nil {
			return false
		}
		return got.Attrs["s"].S == s && got.Attrs["i"].I == i &&
			got.Attrs["f"].F == fl && got.Attrs["b"].B == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGetHelpers(t *testing.T) {
	e := New("t", "s", 0).Set("user", S("bob")).Set("temp", F(20)).Set("n", I(3))
	if e.GetString("user") != "bob" {
		t.Errorf("GetString")
	}
	if e.GetString("missing") != "" {
		t.Errorf("GetString missing should be empty")
	}
	if e.GetNum("temp") != 20 {
		t.Errorf("GetNum float")
	}
	if e.GetNum("n") != 3 {
		t.Errorf("GetNum int")
	}
	if e.GetNum("user") != 0 {
		t.Errorf("GetNum non-numeric should be 0")
	}
}

func TestFreezeSemantics(t *testing.T) {
	e := New("t", "s", 0).Set("user", S("anna")).Stamp(1)
	if e.Frozen() {
		t.Fatal("fresh event already frozen")
	}
	if e.Mutable() != e {
		t.Fatal("Mutable of an unfrozen event must return the event itself")
	}
	if e.Freeze() != e || !e.Frozen() {
		t.Fatal("Freeze must mark and return the event")
	}
	e.Freeze() // idempotent

	mustPanic := func(op string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s on frozen event did not panic", op)
			}
		}()
		fn()
	}
	mustPanic("Set", func() { e.Set("user", S("mallory")) })
	mustPanic("SetBody", func() { e.SetBody("<x/>") })
	mustPanic("Stamp", func() { e.Stamp(2) })

	// Reads stay available on frozen events.
	if e.GetString("user") != "anna" {
		t.Fatal("read on frozen event failed")
	}
}

func TestMutableAndCloneDetached(t *testing.T) {
	e := New("t", "s", 0).Set("user", S("anna")).Stamp(1).Freeze()
	m := e.Mutable()
	if m == e || m.Frozen() {
		t.Fatal("Mutable of a frozen event must be a fresh unfrozen copy")
	}
	m.Set("user", S("bob")).SetBody("<b/>")
	if e.GetString("user") != "anna" || e.Body != "" {
		t.Fatal("mutating the copy leaked into the frozen original")
	}

	c := e.CloneDetached()
	if c == e || c.Frozen() {
		t.Fatal("CloneDetached must be a fresh unfrozen copy")
	}
	c.Attrs["user"] = S("carol")
	if e.GetString("user") != "anna" {
		t.Fatal("detached clone shares the attribute map")
	}
	if c.ID != e.ID || c.Type != e.Type || c.Source != e.Source || c.Time != e.Time {
		t.Fatal("detached clone lost envelope fields")
	}
}

func TestWireRoundTripNotFrozen(t *testing.T) {
	// Frozen-ness is a process-local sharing mark, not wire state: an
	// event frozen by fan-out decodes unfrozen on the receiving node (it
	// is refrozen at that node's own fan-out boundary).
	e := New("t", "s", 0).Set("user", S("anna")).Stamp(1).Freeze()
	data, err := xml.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	got := new(Event)
	if err := xml.Unmarshal(data, got); err != nil {
		t.Fatal(err)
	}
	if got.Frozen() {
		t.Fatal("decoded event must start unfrozen")
	}
}

// TestEncodeSortsNamesWithoutAllocating: both encoders sort up to 16
// attribute names in a stack buffer, so an event appended into a buffer
// large enough costs no allocation.
func TestEncodeSortsNamesWithoutAllocating(t *testing.T) {
	e := New("ctx.reading", "probe", time.Second).Stamp(1)
	for i := 0; i < 16; i++ {
		e.Set(string(rune('p'-i))+"-attr", I(int64(i)))
	}
	buf := make([]byte, 0, 4<<10)
	if n := testing.AllocsPerRun(100, func() { buf = e.AppendWire(buf[:0]) }); n != 0 {
		t.Errorf("AppendWire of 16 attributes: %.0f allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { buf = e.AppendXML(buf[:0]) }); n != 0 {
		t.Errorf("AppendXML of 16 attributes: %.0f allocs, want 0", n)
	}
	if names := e.Attrs.Names(); !slices.IsSorted(names) || len(names) != 16 {
		t.Fatalf("Names = %v, want 16 sorted names", names)
	}
}
