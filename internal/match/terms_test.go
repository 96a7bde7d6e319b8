package match

import (
	"strings"
	"testing"

	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/knowledge"
	"github.com/gloss/active/internal/pubsub"
	"github.com/gloss/active/internal/vclock"
)

// termEngine builds an engine whose facts, place and one arriving event
// give every term form something to resolve: a gps fix of bob's, aliased
// loc, binding U to "bob" and P to "cafe".
func termEngine() (*Engine, *event.Event) {
	kb := knowledge.NewKB()
	kb.AddSPO("bob", "likes", "ice cream")
	kb.AddSPO("bob", "age", "34")
	gis := knowledge.NewGIS()
	_ = gis.AddPlace(knowledge.Place{Name: "cafe", Region: "eu", X: 1.5, Y: 2.5})
	ev := event.New("gps.location", "gps", 0).
		Set("user", event.S("bob")).Set("spot", event.S("cafe")).
		Set("x", event.F(1.0)).Set("y", event.F(2.0)).Stamp(1)
	return NewEngine(newTestClock(), kb, gis, Options{}), ev
}

// termRule is a one-pattern rule around the given conditions and emit
// terms, in the scope termEngine's event fills.
func termRule(where []Condition, emit ...string) *Rule {
	r := &Rule{
		Name: "terms", SuppressMs: -1,
		Patterns: []Pattern{{
			Alias:  "loc",
			Filter: filterForType("gps.location"),
			Bind:   []Binding{{Attr: "user", Var: "U"}, {Attr: "spot", Var: "P"}},
		}},
		Where: where,
		Emit:  Emit{Type: "out"},
	}
	for _, term := range emit {
		r.Emit.Attrs = append(r.Emit.Attrs, EmitAttr{Name: "v", From: term})
	}
	return r
}

// runTerms installs the rule, feeds the event and returns what came out:
// the compile error, the emitted events and the engine's counters.
func runTerms(r *Rule) ([]*event.Event, Stats, error) {
	eng, ev := termEngine()
	if err := eng.AddRule(r); err != nil {
		return nil, eng.Stats(), err
	}
	var out []*event.Event
	eng.OnEmit(func(e *event.Event) { out = append(out, e) })
	eng.Put(ev)
	return out, eng.Stats(), nil
}

func TestTermForms(t *testing.T) {
	tests := []struct {
		term string
		want string
	}{
		{"$U", "bob"},
		{"$loc.user", "bob"},
		{"$loc.type", "gps.location"}, // implicit attribute
		{"place:$P.name", "cafe"},
		{"place:$P.x", "1.5"},
		{"place:$P.region", "eu"},
		{"place:$loc.spot.y", "2.5"}, // the field is what follows the last dot
		{"kb:$U:likes", "ice cream"},
		{"kb:$U:age", "34"},
		{"kb:$loc.user:age", "34"},
		{"kb:$U:shoe-size:11", "11"}, // default applies
		{"plain literal", "plain literal"},
		{"", ""},
		{"42.5", "42.5"},
	}
	for _, tt := range tests {
		out, st, err := runTerms(termRule(nil, tt.term))
		if err != nil || len(out) != 1 {
			t.Errorf("term %q: compile error %v, %d emitted, stats %+v", tt.term, err, len(out), st)
			continue
		}
		if got := out[0].Attrs["v"].String(); got != tt.want {
			t.Errorf("term %q = %q, want %q", tt.term, got, tt.want)
		}
	}
	// Numeric literals, defaults and fact objects resolve as numbers.
	for _, term := range []string{"42.5", "kb:$U:age", "kb:$U:shoe-size:11"} {
		if out, _, _ := runTerms(termRule(nil, term)); len(out) != 1 || out[0].Attrs["v"].K != event.KindFloat {
			t.Errorf("term %q did not resolve as a number", term)
		}
	}
}

func TestClassify(t *testing.T) {
	for s, want := range map[string]event.Value{
		"34": event.F(34), "-2.5": event.F(-2.5), ".5": event.F(.5), "+1e3": event.F(1000),
		"": event.S(""), "knows": event.S("knows"), "ice cream": event.S("ice cream"),
		"-": event.S("-"), "1.2.3": event.S("1.2.3"), "nope": event.S("nope"), "u017": event.S("u017"),
	} {
		if got := classify(s); got != want {
			t.Errorf("classify(%q) = %+v, want %+v", s, got, want)
		}
	}
	if v := classify("Inf"); v.K != event.KindFloat || v.F <= 0 {
		t.Errorf("classify(Inf) = %+v", v)
	}
	if v := classify("nan"); v.K != event.KindFloat || v.F == v.F {
		t.Errorf("classify(nan) = %+v", v)
	}
	// What the guard in front of ParseFloat is for: a name costs nothing.
	if n := testing.AllocsPerRun(100, func() { classify("knows") }); n != 0 {
		t.Errorf("classify of a non-number allocates %v times", n)
	}
}

// Defects the compiler can see are AddRule errors, in a condition or in
// an emitted attribute alike.
func TestMalformedTermsFailAtAddRule(t *testing.T) {
	for _, term := range []string{
		"place:$P",          // no field
		"place:$P.altitude", // unknown field
		"kb:only-subject",   // no predicate
	} {
		if _, _, err := runTerms(termRule(nil, term)); err == nil || !strings.Contains(err.Error(), `rule "terms"`) {
			t.Errorf("emit term %q: AddRule error = %v", term, err)
		}
		cmp := []Condition{{Type: "cmp", Left: term, Op: "eq", Right: "1"}}
		if _, _, err := runTerms(termRule(cmp)); err == nil {
			t.Errorf("cmp term %q: AddRule accepted it", term)
		}
	}
	bad := []Condition{{Type: "withinKm", A: "$loc", B: "literal", Km: 1}}
	if _, _, err := runTerms(termRule(bad)); err == nil || !strings.Contains(err.Error(), "spatial") {
		t.Errorf("bad spatial term: AddRule error = %v", err)
	}
}

// Failures that depend on the data count in Stats.Errors, tuple by tuple.
func TestTermErrorsCountedAtRunTime(t *testing.T) {
	for _, term := range []string{
		"$missing",          // no pattern or binder declares it
		"$ghost.attr",       // no pattern carries the alias
		"$loc.no-such-attr", // missing attribute
		"place:$U.x",        // "bob" is not a place
		"kb:$U:absent",      // no fact, no default
	} {
		out, st, err := runTerms(termRule(nil, term))
		if err != nil || len(out) != 0 || st.Errors != 1 {
			t.Errorf("emit term %q: compile error %v, %d emitted, %d errors", term, err, len(out), st.Errors)
		}
		cmp := []Condition{{Type: "cmp", Left: term, Op: "eq", Right: "1"}}
		out, st, err = runTerms(termRule(cmp))
		if err != nil || len(out) != 0 || st.Errors != 1 || st.CondFails != 0 {
			t.Errorf("cmp term %q: compile error %v, %d emitted, stats %+v", term, err, len(out), st)
		}
	}
}

func TestSpatialTermForms(t *testing.T) {
	// The fix is at (1, 2), the cafe at (1.5, 2.5): 0.71 apart.
	within := func(a, b string, km float64) []Condition {
		return []Condition{{Type: "withinKm", A: a, B: b, Km: km}}
	}
	if out, _, _ := runTerms(termRule(within("$loc", "place:$P", 0.8))); len(out) != 1 {
		t.Errorf("event and place 0.71 apart are not within 0.8")
	}
	if out, st, _ := runTerms(termRule(within("place:$loc.spot", "$loc", 0.6))); len(out) != 0 || st.CondFails != 1 {
		t.Errorf("event and place 0.71 apart are within 0.6: %+v", st)
	}
	for _, term := range []string{"$nope", "place:$U"} {
		out, st, err := runTerms(termRule(within("$loc", term, 100)))
		if err != nil || len(out) != 0 || st.Errors != 1 {
			t.Errorf("spatial term %q: compile error %v, %d emitted, %d errors", term, err, len(out), st.Errors)
		}
	}
}

func TestUnknownConditionTypeErrors(t *testing.T) {
	_, _, err := runTerms(termRule([]Condition{{Type: "teleport"}}))
	if err == nil || !strings.Contains(err.Error(), "unknown condition") {
		t.Fatalf("err = %v", err)
	}
	_, _, err = runTerms(termRule([]Condition{{Type: "cmp", Left: "$U", Op: "spaceship", Right: "$U"}}))
	if err == nil || !strings.Contains(err.Error(), "unknown cmp op") {
		t.Fatalf("bad cmp op: err = %v", err)
	}
	// A bundle carrying such a rule fails when it starts, and the engine
	// it was meant for holds nothing of it.
	eng, _ := termEngine()
	if err := eng.AddRule(termRule([]Condition{{Type: "teleport"}})); err == nil || len(eng.Rules()) != 0 {
		t.Fatalf("rejected rule left behind: %v", eng.Rules())
	}
	if err := eng.AddRule(termRule(nil)); err != nil {
		t.Fatalf("name of a rejected rule is taken: %v", err)
	}
}

func TestConditionErrorsCountedByEngine(t *testing.T) {
	kb := knowledge.NewKB()
	gis := knowledge.NewGIS()
	sched := newTestClock()
	eng := NewEngine(sched, kb, gis, Options{})
	err := eng.AddRule(&Rule{
		Name: "broken",
		Patterns: []Pattern{{
			Alias:  "e",
			Filter: filterForType("x.y"),
		}},
		// References an alias that is never bound.
		Where: []Condition{{Type: "cmp", Left: "$ghost.attr", Op: "eq", Right: "1"}},
		Emit:  Emit{Type: "never"},
	})
	if err != nil {
		t.Fatal(err)
	}
	emitted := 0
	eng.OnEmit(func(*event.Event) { emitted++ })
	eng.Put(event.New("x.y", "s", 0).Stamp(1))
	if emitted != 0 {
		t.Fatal("broken rule emitted")
	}
	if eng.Stats().Errors == 0 {
		t.Fatal("condition error not counted")
	}
}

// A variable a binder declares is readable only further down the Where
// list, as it was when conditions ran strictly in order.
func TestBinderVariableNotReadableBeforeItsBinder(t *testing.T) {
	early := []Condition{
		{Type: "cmp", Left: "$AGE", Op: "eq", Right: "34"},
		{Type: "kbBind", S: "$U", P: "age", Var: "AGE"},
	}
	if out, st, err := runTerms(termRule(early, "$AGE")); err != nil || len(out) != 0 || st.Errors != 1 {
		t.Errorf("read before the binder: err %v, %d emitted, stats %+v", err, len(out), st)
	}
	late := []Condition{early[1], early[0]}
	if out, _, _ := runTerms(termRule(late, "$AGE")); len(out) != 1 || out[0].Attrs["v"] != event.F(34) {
		t.Errorf("read after the binder: %v", out)
	}
	// A binder naming a variable a pattern binds only checks that a fact
	// exists; the pattern's value stands.
	shadow := []Condition{{Type: "kbBind", S: "$U", P: "age", Var: "U"}}
	if out, _, _ := runTerms(termRule(shadow, "$U")); len(out) != 1 || out[0].Attrs["v"] != event.S("bob") {
		t.Errorf("binder overwrote a pattern variable: %v", out)
	}
}

// --- test helpers ---------------------------------------------------------

// newTestClock returns a scheduler positioned at time zero.
func newTestClock() *vclock.Scheduler { return vclock.NewScheduler() }

// filterForType builds a type-equality filter.
func filterForType(t string) pubsub.Filter {
	return pubsub.NewFilter(pubsub.TypeIs(t))
}
