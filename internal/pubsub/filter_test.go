package pubsub

import (
	"encoding/xml"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/wire"
)

func ev(attrs map[string]event.Value) *event.Event {
	e := event.New("test.type", "test-src", time.Second)
	for k, v := range attrs {
		e.Set(k, v)
	}
	return e
}

func TestConstraintMatches(t *testing.T) {
	tests := []struct {
		name string
		c    Constraint
		v    event.Value
		want bool
	}{
		{"eq string yes", Eq("a", event.S("x")), event.S("x"), true},
		{"eq string no", Eq("a", event.S("x")), event.S("y"), false},
		{"eq cross numeric", Eq("a", event.I(3)), event.F(3.0), true},
		{"ne", Constraint{Attr: "a", Op: OpNe, Val: event.S("x")}, event.S("y"), true},
		{"lt yes", Lt("a", event.I(10)), event.I(5), true},
		{"lt no", Lt("a", event.I(10)), event.I(10), false},
		{"le eq", Le("a", event.I(10)), event.I(10), true},
		{"gt float", Gt("a", event.F(19.5)), event.F(20.0), true},
		{"ge", Ge("a", event.I(10)), event.I(10), true},
		{"lt incomparable", Lt("a", event.I(10)), event.S("5"), false},
		{"prefix yes", Prefix("a", "gps."), event.S("gps.location"), true},
		{"prefix no", Prefix("a", "gps."), event.S("weather"), false},
		{"suffix", Constraint{Attr: "a", Op: OpSuffix, Val: event.S("ion")}, event.S("location"), true},
		{"contains", Constraint{Attr: "a", Op: OpContains, Val: event.S("cat")}, event.S("location"), true},
		{"exists", Exists("a"), event.B(false), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.c.Matches(tt.v); got != tt.want {
				t.Errorf("Matches(%v, %v) = %v, want %v", tt.c, tt.v, got, tt.want)
			}
		})
	}
}

func TestFilterMatchesConjunction(t *testing.T) {
	f := NewFilter(TypeIs("test.type"), Gt("temp", event.F(19)), Eq("region", event.S("fife")))
	match := ev(map[string]event.Value{"temp": event.F(20), "region": event.S("fife")})
	if !f.Matches(match) {
		t.Fatalf("should match")
	}
	cold := ev(map[string]event.Value{"temp": event.F(10), "region": event.S("fife")})
	if f.Matches(cold) {
		t.Fatalf("cold event should not match")
	}
	missing := ev(map[string]event.Value{"temp": event.F(20)})
	if f.Matches(missing) {
		t.Fatalf("event missing an attribute should not match")
	}
}

func TestEmptyFilterMatchesEverything(t *testing.T) {
	var f Filter
	if !f.Matches(ev(nil)) {
		t.Fatalf("zero filter must match all events")
	}
}

func TestFilterKeyOrderIndependent(t *testing.T) {
	f1 := NewFilter(Eq("a", event.I(1)), Gt("b", event.F(2)))
	f2 := NewFilter(Gt("b", event.F(2)), Eq("a", event.I(1)))
	if f1.Key() != f2.Key() {
		t.Fatalf("keys differ: %q vs %q", f1.Key(), f2.Key())
	}
}

func TestCoversBasics(t *testing.T) {
	broad := NewFilter(TypeIs("gps.location"))
	narrow := NewFilter(TypeIs("gps.location"), Eq("user", event.S("bob")))
	if !Covers(broad, narrow) {
		t.Fatalf("broad should cover narrow")
	}
	if Covers(narrow, broad) {
		t.Fatalf("narrow should not cover broad")
	}
	// Numeric range covering.
	lt10 := NewFilter(Lt("x", event.I(10)))
	lt5 := NewFilter(Lt("x", event.I(5)))
	if !Covers(lt10, lt5) || Covers(lt5, lt10) {
		t.Fatalf("lt10 covers lt5 only")
	}
	// Prefix covering.
	pa := NewFilter(Prefix("t", "gps."))
	pab := NewFilter(Prefix("t", "gps.loc"))
	if !Covers(pa, pab) || Covers(pab, pa) {
		t.Fatalf("prefix covering wrong")
	}
	// Everything covers itself.
	for _, f := range []Filter{broad, narrow, lt10, pa} {
		if !Covers(f, f) {
			t.Fatalf("filter must cover itself: %v", f)
		}
	}
	// The empty filter covers everything.
	var empty Filter
	if !Covers(empty, narrow) {
		t.Fatalf("empty filter covers all")
	}
	if Covers(narrow, empty) {
		t.Fatalf("narrow must not cover the empty filter")
	}
}

// randomValue draws from a small domain so constraints overlap often.
func randomValue(rng *rand.Rand) event.Value {
	switch rng.Intn(3) {
	case 0:
		return event.I(int64(rng.Intn(8)))
	case 1:
		return event.F(float64(rng.Intn(8)) / 2)
	default:
		strs := []string{"", "a", "ab", "abc", "b", "ba"}
		return event.S(strs[rng.Intn(len(strs))])
	}
}

func randomConstraint(rng *rand.Rand) Constraint {
	ops := []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpPrefix, OpSuffix, OpContains, OpExists}
	op := ops[rng.Intn(len(ops))]
	c := Constraint{Attr: "x", Op: op}
	if op == OpPrefix || op == OpSuffix || op == OpContains {
		strs := []string{"", "a", "ab", "abc", "b"}
		c.Val = event.S(strs[rng.Intn(len(strs))])
	} else if op != OpExists {
		c.Val = randomValue(rng)
	}
	return c
}

// TestImpliesSound verifies by exhaustive sampling: whenever Implies(a, b),
// every sampled value satisfying a also satisfies b.
func TestImpliesSound(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	samples := make([]event.Value, 0, 64)
	for i := int64(-2); i <= 9; i++ {
		samples = append(samples, event.I(i))
	}
	for f := -2.0; f <= 9.0; f += 0.5 {
		samples = append(samples, event.F(f))
	}
	for _, s := range []string{"", "a", "ab", "abc", "abcd", "b", "ba", "xab"} {
		samples = append(samples, event.S(s))
	}
	samples = append(samples, event.B(true), event.B(false))

	checked := 0
	for i := 0; i < 20000; i++ {
		a := randomConstraint(rng)
		b := randomConstraint(rng)
		if !Implies(a, b) {
			continue
		}
		checked++
		for _, v := range samples {
			if a.Matches(v) && !b.Matches(v) {
				t.Fatalf("unsound: Implies(%v, %v) but value %v satisfies a not b", a, b, v)
			}
		}
	}
	if checked < 500 {
		t.Fatalf("too few implication pairs exercised: %d", checked)
	}
}

// TestCoversSound verifies by sampling: if Covers(f, g) then every sampled
// event matching g matches f.
func TestCoversSound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	makeFilter := func() Filter {
		n := 1 + rng.Intn(3)
		cs := make([]Constraint, n)
		for i := range cs {
			cs[i] = randomConstraint(rng)
		}
		return NewFilter(cs...)
	}
	checked := 0
	for i := 0; i < 5000; i++ {
		f, g := makeFilter(), makeFilter()
		if !Covers(f, g) {
			continue
		}
		checked++
		for j := 0; j < 50; j++ {
			e := ev(map[string]event.Value{"x": randomValue(rng)})
			if g.Matches(e) && !f.Matches(e) {
				t.Fatalf("unsound: Covers(%v, %v) but event %v matches g not f", f, g, e.Attrs)
			}
		}
	}
	if checked < 100 {
		t.Fatalf("too few covering pairs exercised: %d", checked)
	}
}

func TestFilterXMLRoundTrip(t *testing.T) {
	f := NewFilter(
		TypeIs("weather.report"),
		Gt("tempC", event.F(19.5)),
		Constraint{Attr: "n", Op: OpNe, Val: event.I(-4)},
		Exists("region"),
		Prefix("source", "thermo-"),
		Constraint{Attr: "ok", Op: OpEq, Val: event.B(true)},
	)
	data, err := xml.Marshal(f)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var got Filter
	if err := xml.Unmarshal(data, &got); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got.Key() != f.Key() {
		t.Fatalf("round trip changed filter:\n%s\nvs\n%s", got.Key(), f.Key())
	}
}

// TestFilterXMLNumbersAreStrict: a numeric constraint's text is the whole
// number or an error, as in event attributes — fmt.Sscanf used to take a
// numeric prefix and drop the rest, so an XML subscription on "12abc"
// silently became one on 12. The hand-written scanner must not accept
// what UnmarshalXML rejects either.
func TestFilterXMLNumbersAreStrict(t *testing.T) {
	for _, c := range []struct {
		kind, text string
		want       event.Value // zero: rejected
	}{
		{"int", "12", event.I(12)},
		{"int", "-7", event.I(-7)},
		{"int", "12abc", event.Value{}},
		{"int", "0x10", event.Value{}},
		{"int", "1e3", event.Value{}},
		{"int", " 12", event.Value{}},
		{"int", "1_0", event.Value{}},
		{"int", "", event.Value{}},
		{"float", "1.5", event.F(1.5)},
		{"float", "1e3", event.F(1000)},
		{"float", "1.5x", event.Value{}},
		{"float", " 1.5", event.Value{}},
		{"float", "", event.Value{}},
	} {
		frame := []byte(`<filter><c attr="a" op="eq" kind="` + c.kind + `">` + c.text + `</c></filter>`)
		var got Filter
		err := xml.Unmarshal(frame, &got)
		if ok := err == nil; ok != (c.want != event.Value{}) {
			t.Errorf("%s %q: UnmarshalXML gave %+v, %v", c.kind, c.text, got, err)
		} else if ok && got.Constraints[0].Val != c.want {
			t.Errorf("%s %q: UnmarshalXML gave %+v, want %+v", c.kind, c.text, got.Constraints[0].Val, c.want)
		}
		var fast Filter
		if fastErr := fast.ParseXML(wire.NewXMLScanner(frame)); fastErr == nil && (err != nil || !sameFilter(fast, got)) {
			t.Errorf("%s %q: the scanner accepted %+v; UnmarshalXML gave %+v, %v", c.kind, c.text, fast, got, err)
		}
	}
	// The floats text round-trips hardest, through both XML paths.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, math.MaxFloat64} {
		want := NewFilter(Le("a", event.F(f)))
		data, err := xml.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		var got, fast Filter
		if err := xml.Unmarshal(data, &got); err != nil || !sameFilter(got, want) {
			t.Errorf("%v: UnmarshalXML(%s) = %+v, %v", f, data, got, err)
		}
		if err := fast.ParseXML(wire.NewXMLScanner(want.AppendXML(nil))); err != nil || !sameFilter(fast, want) {
			t.Errorf("%v: ParseXML(%s) = %+v, %v", f, want.AppendXML(nil), fast, err)
		}
	}
}
