package match

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/knowledge"
	"github.com/gloss/active/internal/pubsub"
	"github.com/gloss/active/internal/vclock"
)

// --- differential property test: compiled plans vs the interpreter ---------

// The generator draws from small pools so that shared variables, equal
// values across kinds (3, 3.0 and "3"), NaN, the empty string (the
// knowledge base's wildcard) and duplicate facts all come up.
var (
	genTypes = []string{"a", "b", "c"}
	genVars  = []string{"U", "F", "N"}
	genAttrs = []string{"user", "k", "f"}
	genPreds = []string{"knows", "likes"}
	genNames = []string{"u0", "u1", "u2", "u3", "3", "2.5", "true", ""}
)

func genValue(rng *rand.Rand, attr string) event.Value {
	switch attr {
	case "user":
		switch rng.Intn(10) {
		case 0:
			return event.I(3)
		case 1:
			return event.B(true)
		default:
			return event.S(genNames[rng.Intn(len(genNames))])
		}
	case "k":
		return event.I(int64(rng.Intn(4)))
	default:
		switch rng.Intn(8) {
		case 0:
			return event.F(math.NaN())
		case 1:
			return event.F(2.5)
		default:
			return event.F(float64(rng.Intn(4))) // equal to an int k across kinds
		}
	}
}

func genTerm(rng *rand.Rand, aliases []string) string {
	switch rng.Intn(6) {
	case 0, 1:
		return "$" + genVars[rng.Intn(len(genVars))]
	case 2:
		return "$" + aliases[rng.Intn(len(aliases))] + "." + genAttrs[rng.Intn(len(genAttrs))]
	case 3:
		return genNames[rng.Intn(len(genNames))]
	case 4:
		return "$B" // bound by a kbBind, if the rule has one above
	default:
		return "kb:$" + genVars[rng.Intn(len(genVars))] + ":likes:u1"
	}
}

func genRule(rng *rand.Rand, name string) *Rule {
	r := &Rule{Name: name, WindowMs: int64(2 + rng.Intn(8)), SuppressMs: []int64{-1, -1, 0, 3}[rng.Intn(4)]}
	var aliases []string
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		p := Pattern{Alias: fmt.Sprintf("p%d", i)}
		switch rng.Intn(12) {
		case 0:
			p.Alias = "" // unnamed: no part of the correlation's identity
		case 1:
			p.Alias = "p0" // shared: must be the same event
		}
		cs := []pubsub.Constraint{pubsub.TypeIs(genTypes[rng.Intn(len(genTypes))])}
		if rng.Intn(4) == 0 {
			cs = append(cs, pubsub.Ge("k", event.I(1)))
		}
		p.Filter = pubsub.NewFilter(cs...)
		for b, nb := 0, rng.Intn(3); b < nb; b++ {
			// Usually a variable of the pattern's own, sometimes any: shared
			// variables join by probe, separate ones leave room for cmp eq
			// and kb conditions to link them.
			v := genVars[i]
			if rng.Intn(3) == 0 {
				v = genVars[rng.Intn(len(genVars))]
			}
			p.Bind = append(p.Bind, Binding{Attr: genAttrs[rng.Intn(len(genAttrs))], Var: v})
		}
		r.Patterns = append(r.Patterns, p)
		if p.Alias != "" {
			aliases = append(aliases, p.Alias)
		}
	}
	if len(aliases) == 0 {
		r.Patterns[0].Alias = "p0"
		aliases = []string{"p0"}
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		var c Condition
		switch rng.Intn(6) {
		case 0, 1:
			c = Condition{Type: "cmp", Left: genTerm(rng, aliases), Op: []string{"eq", "eq", "ne", "lt"}[rng.Intn(4)], Right: genTerm(rng, aliases)}
		case 2, 3:
			// Mostly variable to variable: the shape a join can be driven from.
			end := func() string {
				if rng.Intn(4) > 0 {
					return "$" + genVars[rng.Intn(len(genVars))]
				}
				return genTerm(rng, aliases)
			}
			c = Condition{Type: []string{"kb", "kb", "nokb"}[rng.Intn(3)], S: end(), P: genPreds[rng.Intn(2)], O: end()}
		case 4:
			c = Condition{Type: "kbBind", S: genTerm(rng, aliases), P: genPreds[rng.Intn(2)], Var: []string{"B", "B", "U"}[rng.Intn(3)]}
		default:
			c = Condition{Type: "withinKm", A: "$" + aliases[rng.Intn(len(aliases))], B: "$" + aliases[rng.Intn(len(aliases))], Km: 1.5}
		}
		r.Where = append(r.Where, c)
	}
	r.Emit = Emit{Type: "out." + name}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		r.Emit.Attrs = append(r.Emit.Attrs, EmitAttr{Name: fmt.Sprintf("e%d", i), From: genTerm(rng, aliases), Volatile: rng.Intn(3) == 0})
	}
	return r
}

func genKB(rng *rand.Rand) *knowledge.KB {
	kb := knowledge.NewKB()
	for i, n := 0, 4+rng.Intn(16); i < n; i++ {
		f := knowledge.Fact{
			S: genNames[rng.Intn(len(genNames))],
			P: genPreds[rng.Intn(2)],
			O: genNames[rng.Intn(len(genNames))],
		}
		if f.S == "" {
			continue // an empty subject is not addressable
		}
		if rng.Intn(5) == 0 {
			f.From, f.To = time.Duration(rng.Intn(20))*time.Millisecond, time.Duration(20+rng.Intn(40))*time.Millisecond
		}
		kb.Add(f)
	}
	return kb
}

func genEvent(rng *rand.Rand, now time.Duration, seq uint64) *event.Event {
	// Timestamps run behind and ahead of the clock: arrival order is not
	// timestamp order, and some arrivals are already outside the window.
	at := now + time.Duration(rng.Intn(16)-11)*time.Millisecond
	ev := event.New(genTypes[rng.Intn(len(genTypes))], "gen", at)
	for _, attr := range genAttrs {
		if rng.Intn(10) > 0 {
			ev.Set(attr, genValue(rng, attr))
		}
	}
	ev.Set("x", event.F(rng.Float64()*2)).Set("y", event.F(rng.Float64()*2))
	return ev.Stamp(seq).Freeze()
}

// matcher is what the two engines have in common.
type matcher interface {
	AddRule(*Rule) error
	RemoveRule(string)
	Put(*event.Event)
	OnEmit(func(*event.Event))
	Stats() Stats
}

// playScenario runs the scenario of one seed through an engine and
// returns what it emitted, in order, rendered with every field.
func playScenario(seed int64, build engineBuilder, genRules func(*rand.Rand) []*Rule) ([]string, Stats, []*Rule) {
	rng := rand.New(rand.NewSource(seed))
	sched := vclock.NewScheduler()
	m := build(sched, genKB(rng), knowledge.NewGIS(), Options{maxBuffer: 3 + rng.Intn(6), maxEmittedMemory: 32})
	rules := genRules(rng)
	for _, r := range rules {
		if err := m.AddRule(r); err != nil {
			panic(err)
		}
	}
	var out []string
	m.OnEmit(func(ev *event.Event) {
		s := fmt.Sprintf("%s %s %s %v", ev.ID.Short(), ev.Type, ev.Source, ev.Time)
		for _, name := range ev.Attrs.Names() {
			s += fmt.Sprintf(" %s=%d:%q", name, ev.Attrs[name].K, ev.Attrs[name].String())
		}
		out = append(out, s)
	})
	var sent []*event.Event
	for i := 0; i < 400; i++ {
		switch rng.Intn(40) {
		case 0:
			m.RemoveRule(rules[rng.Intn(len(rules))].Name)
		case 1:
			_ = m.AddRule(rules[rng.Intn(len(rules))]) // a duplicate unless removed
		}
		if rng.Intn(3) == 0 {
			sched.RunFor(time.Duration(1+rng.Intn(3)) * time.Millisecond)
		}
		if len(sent) > 0 && rng.Intn(12) == 0 {
			m.Put(sent[rng.Intn(len(sent))]) // a redelivery: same event ID
			continue
		}
		ev := genEvent(rng, sched.Now(), uint64(i))
		sent = append(sent, ev)
		m.Put(ev)
	}
	return out, m.Stats(), rules
}

type engineBuilder func(vclock.Clock, *knowledge.KB, *knowledge.GIS, Options) matcher

func compiledMatcher(c vclock.Clock, kb *knowledge.KB, gis *knowledge.GIS, o Options) matcher {
	return NewEngine(c, kb, gis, o)
}

func referenceMatcher(c vclock.Clock, kb *knowledge.KB, gis *knowledge.GIS, o Options) matcher {
	return newRefEngine(c, kb, gis, o)
}

// randomRules draws one to three rules from the generator.
func randomRules(rng *rand.Rand) []*Rule {
	var rules []*Rule
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		rules = append(rules, genRule(rng, fmt.Sprintf("r%d", i)))
	}
	return rules
}

// figure1Rules are the two shapes the benchmark runs, over the
// generator's events: the nearby-friends self-join and a three-pattern
// meet-up with a binder, both linked through the knowledge base.
func figure1Rules(*rand.Rand) []*Rule {
	typeA, typeB := filterForType("a"), filterForType("b")
	return []*Rule{{
		Name: "nearby-friends", WindowMs: 8, SuppressMs: -1,
		Patterns: []Pattern{
			{Alias: "loc", Filter: typeA, Bind: []Binding{{Attr: "user", Var: "U"}}},
			{Alias: "floc", Filter: typeA, Bind: []Binding{{Attr: "user", Var: "F"}}},
		},
		Where: []Condition{
			{Type: "cmp", Left: "$U", Op: "ne", Right: "$F"},
			{Type: "kb", S: "$U", P: "knows", O: "$F"},
			{Type: "withinKm", A: "$loc", B: "$floc", Km: 1.5},
		},
		Emit: Emit{Type: "nearby", Attrs: []EmitAttr{{Name: "user", From: "$U"}, {Name: "friend", From: "$F"}, {Name: "k", From: "$floc.k", Volatile: true}}},
	}, {
		Name: "meet-up", WindowMs: 6,
		Patterns: []Pattern{
			{Alias: "loc", Filter: typeA, Bind: []Binding{{Attr: "user", Var: "U"}}},
			{Alias: "floc", Filter: typeA, Bind: []Binding{{Attr: "user", Var: "F"}}},
			{Alias: "w", Filter: typeB},
		},
		Where: []Condition{
			{Type: "cmp", Left: "$U", Op: "ne", Right: "$F"},
			{Type: "kb", S: "$F", P: "knows", O: "$U"},
			{Type: "kbBind", S: "$U", P: "likes", Var: "L"},
			{Type: "cmp", Left: "$w.f", Op: "ge", Right: "kb:$L:likes:1"},
			{Type: "withinKm", A: "$loc", B: "$floc", Km: 1.5},
		},
		Emit: Emit{Type: "meet", Attrs: []EmitAttr{{Name: "user", From: "$U"}, {Name: "friend", From: "$F"}, {Name: "likes", From: "$L"}}},
	}}
}

func TestCompiledPlansMatchInterpreter(t *testing.T) {
	t.Run("random rules", func(t *testing.T) {
		diffAgainstInterpreter(t, randomRules, 400, accessScan, accessProbe, accessKBObjects, accessKBSubjects)
	})
	t.Run("random rules behind a constant kb condition", func(t *testing.T) {
		if diffAgainstInterpreter(t, constantFirstRules, 200, accessScan, accessProbe, accessKBObjects, accessKBSubjects) == 0 {
			t.Fatalf("no rule ranks a correlating kb condition above a constant-keyed one: the ranking is not exercised")
		}
	})
	t.Run("figure-1 rules", func(t *testing.T) {
		diffAgainstInterpreter(t, figure1Rules, 100, accessKBObjects, accessKBSubjects)
	})
}

// constantFirstRules draws random rules and puts a kb condition with one
// constant end at the head of each Where list, as the ice-cream rule's
// `$U likes "ice cream"`: a level it could drive is driven by a later,
// correlating kb condition where there is one. Its variable is one a
// later kb condition links, when there is one, and its predicate and
// constant are mostly "", the wildcard: like "ice cream", that holds for
// most of the pool.
func constantFirstRules(rng *rand.Rand) []*Rule {
	rules := randomRules(rng)
	for _, r := range rules {
		var linked []string
		for _, c := range r.Where {
			for _, end := range []string{c.S, c.O} {
				if c.Type == "kb" && slices.Contains(genVars, strings.TrimPrefix(end, "$")) {
					linked = append(linked, end)
				}
			}
		}
		if len(linked) == 0 {
			linked = []string{"$" + genVars[rng.Intn(len(genVars))]}
		}
		v, p, lit := linked[rng.Intn(len(linked))], "", ""
		if rng.Intn(4) == 0 {
			p, lit = genPreds[rng.Intn(len(genPreds))], genNames[rng.Intn(len(genNames))]
		}
		c := Condition{Type: "kb", S: v, P: p, O: lit}
		if rng.Intn(2) == 0 {
			c.S, c.O = lit, v
		}
		r.Where = append([]Condition{c}, r.Where...)
	}
	return rules
}

// diffAgainstInterpreter plays every seed's scenario through both engines
// and requires the same emitted sequence; the scenarios must have chosen
// each of the wanted access paths for a twentieth of the seeds at least.
// It returns how many rules the ranking drives from another kb condition
// than the first in Where order.
func diffAgainstInterpreter(t *testing.T, genRules func(*rand.Rand) []*Rule, seeds int, wanted ...accessKind) (rerankedRules int) {
	if testing.Short() {
		seeds /= 5
	}
	var emitted, joins, refJoins uint64
	paths := make(map[accessKind]int)
	for seed := int64(1); seed <= int64(seeds); seed++ {
		got, st, rules := playScenario(seed, compiledMatcher, genRules)
		want, ref, _ := playScenario(seed, referenceMatcher, genRules)
		describe := func() string {
			s := ""
			for _, r := range rules {
				data, _ := MarshalRule(r)
				s += string(data) + "\n"
			}
			return s
		}
		if !reflect.DeepEqual(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("seed %d: emitted %d events, interpreter %d; first difference at %d:\n got  %v\n want %v\n%s",
				seed, len(got), len(want), i, got[min(i, len(got)):min(i+1, len(got))], want[min(i, len(want)):min(i+1, len(want))], describe())
		}
		if st.Emitted != ref.Emitted || st.Duplicates != ref.Duplicates || st.Suppressed != ref.Suppressed ||
			st.EventsIn != ref.EventsIn || st.Buffered != ref.Buffered || st.Expired != ref.Expired || st.Evicted != ref.Evicted {
			t.Fatalf("seed %d: stats %+v, interpreter %+v\n%s", seed, st, ref, describe())
		}
		if st.Joins > ref.Joins {
			t.Fatalf("seed %d: %d complete tuples examined, interpreter %d\n%s", seed, st.Joins, ref.Joins, describe())
		}
		// No emission path may depend on map iteration order.
		if again, _, _ := playScenario(seed, compiledMatcher, genRules); !reflect.DeepEqual(got, again) {
			t.Fatalf("seed %d: two runs of the compiled engine differ", seed)
		}
		emitted += st.Emitted
		joins += st.Joins
		refJoins += ref.Joins
		eng := NewEngine(vclock.NewScheduler(), knowledge.NewKB(), knowledge.NewGIS(), Options{})
		for _, r := range rules {
			if err := eng.AddRule(r); err != nil {
				t.Fatal(err)
			}
			for _, pl := range eng.rules[r.Name].plans {
				for _, lv := range pl.levels[1:] {
					paths[lv.access]++
				}
			}
			if rerankedLevels(eng, r.Name) > 0 {
				rerankedRules++
			}
		}
	}
	t.Logf("%d seeds: %d events emitted, %d tuples examined against the interpreter's %d; join levels: %d scan, %d probe, %d kb objects, %d kb subjects; %d rules driven past their first kb condition",
		seeds, emitted, joins, refJoins, paths[accessScan], paths[accessProbe], paths[accessKBObjects], paths[accessKBSubjects], rerankedRules)
	if emitted < uint64(seeds) || joins >= refJoins {
		t.Fatalf("the scenarios no longer exercise the engine: %d emitted, %d of %d tuples", emitted, joins, refJoins)
	}
	for _, kind := range wanted {
		if paths[kind] < seeds/20 {
			t.Fatalf("access path %d chosen for only %d join levels", kind, paths[kind])
		}
	}
	return rerankedRules
}

// whereOrderAccess is the kb access path of level d when the first usable
// kb condition in Where order drives it, whatever its key: the choice
// before access paths were ranked.
func whereOrderAccess(lv *level, d int) (kind accessKind, key, pred operand) {
	for i := range lv.conds {
		c := &lv.conds[i]
		if c.typ != condKB || !c.b.known(d) {
			continue
		}
		if _, ok := lv.boundHere(&c.c); ok && c.a.known(d) {
			return accessKBObjects, c.a, c.b
		}
		if _, ok := lv.boundHere(&c.a); ok && c.c.known(d) {
			return accessKBSubjects, c.c, c.b
		}
	}
	return accessScan, operand{}, operand{}
}

// rerankedLevels counts the join levels of an installed rule that the
// ranking drives from another kb condition than whereOrderAccess.
func rerankedLevels(eng *Engine, rule string) int {
	n := 0
	for _, pl := range eng.rules[rule].plans {
		for d := 1; d < len(pl.levels); d++ {
			lv := &pl.levels[d]
			if lv.access != accessKBObjects && lv.access != accessKBSubjects {
				continue
			}
			kind, key, pred := whereOrderAccess(lv, d)
			if kind != lv.access || !reflect.DeepEqual(key, lv.key) || !reflect.DeepEqual(pred, lv.pred) {
				n++
			}
		}
	}
	return n
}

// The ranking changes the ice-cream rule's plan and no ctx-chain plan:
// there every rule has at most one kb condition.
func TestRankingMovesOnlyTheIceCreamPlan(t *testing.T) {
	for _, tt := range []struct {
		fixture func(testing.TB, int) (*Engine, []*event.Event)
		rule    string
		want    int
	}{
		{iceCreamFixture, "ice-cream-meetup", 1},
		{ctxChainFixture, "nearby-friends", 0},
		{ctxChainFixture, "hot-r0", 0},
	} {
		eng, _ := tt.fixture(t, 0)
		if got := rerankedLevels(eng, tt.rule); got != tt.want {
			t.Errorf("%s: %d join levels driven past their first kb condition, want %d", tt.rule, got, tt.want)
		}
	}
}

// On the ice-cream fixture the friend's fix finds the user through
// `$U knows $F`, not through every user who likes ice cream: the same
// tuples are examined and the same suggestions emitted, and the
// candidates visited and turned away fall from 66 per event to 9.
func TestIceCreamFixtureCounts(t *testing.T) {
	const events = 16384
	eng, evs := iceCreamFixture(t, events)
	for _, ev := range evs {
		eng.Put(ev)
	}
	st := eng.Stats()
	t.Logf("%d events: %d joins, %d emitted, %d condition failures (%.1f per event), %d evicted",
		events, st.Joins, st.Emitted, st.CondFails, float64(st.CondFails)/events, st.Evicted)
	if st.Joins != 162743 || st.Emitted != 75544 {
		t.Fatalf("%d joins and %d emitted, want 162743 and 75544", st.Joins, st.Emitted)
	}
	if st.CondFails > 12*events {
		t.Fatalf("%d condition failures, %.1f per event: want at most 12", st.CondFails, float64(st.CondFails)/events)
	}
}

// --- the plan's promises, one by one ----------------------------------------

// Arrival order is not timestamp order: one late-delivered old event must
// not hide the valid candidates buffered before it, and an arrival that
// is itself outside the window is neither buffered nor joined.
func TestStaleArrivalDoesNotMaskValidCandidates(t *testing.T) {
	sched := vclock.NewScheduler()
	sched.RunUntil(10 * time.Minute)
	kb := knowledge.NewKB()
	kb.AddSPO("bob", "knows", "anna")
	eng := NewEngine(sched, kb, knowledge.NewGIS(), Options{})
	gps := filterForType("gps.location")
	mustAdd(t, eng, &Rule{
		Name: "friends", WindowMs: 60000, SuppressMs: -1,
		Patterns: []Pattern{
			{Alias: "loc", Filter: gps, Bind: []Binding{{Attr: "user", Var: "U"}}},
			{Alias: "floc", Filter: gps, Bind: []Binding{{Attr: "user", Var: "F"}}},
		},
		Where: []Condition{{Type: "kb", S: "$U", P: "knows", O: "$F"}},
		Emit:  Emit{Type: "pair", Attrs: []EmitAttr{{Name: "friend", From: "$F"}}},
	})
	emitted := 0
	eng.OnEmit(func(*event.Event) { emitted++ })
	now := sched.Now()
	eng.Put(locEv("anna", 0, 0, now-time.Second, 1))
	// Delivered late: two minutes old in a one-minute window.
	eng.Put(locEv("anna", 0, 0, now-2*time.Minute, 2))
	st := eng.Stats()
	eng.Put(locEv("bob", 0, 0, now, 3))
	if emitted != 1 {
		t.Fatalf("bob joined %d of anna's fixes, want the one inside the window", emitted)
	}
	if st.Buffered != 2 || st.Expired != 2 {
		t.Fatalf("the stale arrival was buffered: %+v", st)
	}
	// The stale arrival joined nothing on its way in, either.
	eng.Put(locEv("bob", 0, 0, now-2*time.Minute, 4))
	if emitted != 1 {
		t.Fatalf("an arrival outside the window was joined")
	}
}

// A Put that emits nothing allocates nothing, on both benchmark shapes:
// the events examine tuples (the friend's fixes are found and checked) but
// complete no correlation.
func TestQuietPutDoesNotAllocate(t *testing.T) {
	t.Run("nearby-friends", func(t *testing.T) {
		eng, evs := ctxChainFixture(t, 20000)
		// Quiet whatever is buffered: reports below 30 degrees, reads no rule
		// covers, and fixes away from the pair's spot (kilometres from the
		// friend's every position).
		var quiet []*event.Event
		for _, ev := range evs[10000:] {
			x := ev.GetNum("x")
			if ev.Type == "rfid.read" || (ev.Type == "weather.report" && ev.GetNum("tempC") < 30) ||
				(ev.Type == "gps.location" && x-10*math.Floor(x/10) >= 5) {
				quiet = append(quiet, ev)
			}
		}
		requireQuietPutsAllocationFree(t, eng, evs[:10000], quiet)
	})
	t.Run("IceCreamRule", func(t *testing.T) {
		eng, evs := iceCreamFixture(t, 20000)
		// Once every buffered report is cold, no fix completes a meet-up;
		// each still pairs with its friend's fixes against every report.
		warm := evs[:10000:10000]
		for i := 0; i < 64; i++ {
			warm = append(warm, weatherEv("st-andrews", 5, evs[9999].Time, uint64(30000+i)).Freeze())
		}
		var quiet []*event.Event
		for _, ev := range evs[10000:] {
			if ev.Type == "gps.location" {
				quiet = append(quiet, ev)
			}
		}
		requireQuietPutsAllocationFree(t, eng, warm, quiet)
	})
}

func requireQuietPutsAllocationFree(t *testing.T, eng *Engine, warm, quiet []*event.Event) {
	t.Helper()
	for _, ev := range warm {
		eng.Put(ev)
	}
	for _, ev := range quiet[:len(quiet)/2] {
		eng.Put(ev) // let maps and scratch slices reach their steady size
	}
	quiet = quiet[len(quiet)/2:]
	const runs = 2000
	if len(quiet) < runs+1 {
		t.Fatalf("only %d quiet events", len(quiet))
	}
	i := 0
	before := eng.Stats()
	allocs := testing.AllocsPerRun(runs, func() {
		eng.Put(quiet[i])
		i++
	})
	st := eng.Stats()
	if st.Emitted != before.Emitted {
		t.Fatalf("the quiet events emitted %d", st.Emitted-before.Emitted)
	}
	if st.Joins-before.Joins < runs/10 {
		t.Fatalf("the quiet events examined %d tuples: nothing was measured", st.Joins-before.Joins)
	}
	if allocs != 0 {
		t.Fatalf("a Put that emits nothing allocates %v times", allocs)
	}
}

// The latch of uncovered event types holds maxUnknowns entries at most,
// and a type it has forgotten is discovered again.
func TestUnknownLatchIsBounded(t *testing.T) {
	eng, _, _ := scenarioEngine(t)
	calls := 0
	eng.SetUnknownHandler(func(string) { calls++ })
	put := func(typ string) { eng.Put(event.New(typ, "s", scenarioTime).Stamp(1)) }
	for i := 0; i < 10*maxUnknowns; i++ {
		put(fmt.Sprintf("alien.%d", i))
	}
	if len(eng.unknowns) != maxUnknowns || len(eng.unknownFIFO) != maxUnknowns || calls != 10*maxUnknowns {
		t.Fatalf("latch holds %d types (%d queued) after %d discoveries", len(eng.unknowns), len(eng.unknownFIFO), calls)
	}
	put(fmt.Sprintf("alien.%d", 10*maxUnknowns-1)) // still latched
	if calls != 10*maxUnknowns {
		t.Fatalf("a latched type was discovered twice")
	}
	put("alien.0") // evicted long ago
	if calls != 10*maxUnknowns+1 {
		t.Fatalf("a forgotten type did not re-trigger discovery")
	}
	eng.ForgetUnknown("alien.0")
	eng.ForgetUnknown("never.seen")
	if len(eng.unknowns) != maxUnknowns-1 || len(eng.unknownFIFO) != maxUnknowns-1 {
		t.Fatalf("ForgetUnknown left %d types, %d queued", len(eng.unknowns), len(eng.unknownFIFO))
	}
}

// An emit sink may feed the engine: the event waits until the Put in
// progress is done, so no join sees its buffers change under it, and the
// outcome is that of putting the events one after the other.
func TestPutFromEmitSinkIsDeferred(t *testing.T) {
	tick := func(n int64) *event.Event {
		return event.New("tick", "s", 0).Set("n", event.I(n)).Stamp(uint64(n))
	}
	play := func(feed func(eng *Engine, emitted *event.Event)) []string {
		// Two slots per buffer: an insert during a join would evict what
		// the join is visiting.
		eng := NewEngine(newTestClock(), knowledge.NewKB(), knowledge.NewGIS(), Options{maxBuffer: 2})
		mustAdd(t, eng, &Rule{
			Name: "pairs", SuppressMs: -1,
			Patterns: []Pattern{
				{Alias: "a", Filter: filterForType("tick")},
				{Alias: "b", Filter: filterForType("tick")},
			},
			Emit: Emit{Type: "pair", Attrs: []EmitAttr{{Name: "a", From: "$a.n"}, {Name: "b", From: "$b.n"}}},
		})
		var pairs []string
		eng.OnEmit(func(ev *event.Event) {
			pairs = append(pairs, fmt.Sprintf("%d-%d", ev.Attrs["a"].I, ev.Attrs["b"].I))
			feed(eng, ev)
		})
		eng.Put(tick(1))
		feed(eng, nil)
		eng.Put(tick(2))
		return pairs
	}
	next := int64(100)
	nested := play(func(eng *Engine, emitted *event.Event) {
		if emitted != nil && next < 103 {
			next++
			eng.Put(tick(next))
		}
	})
	flat := play(func(eng *Engine, emitted *event.Event) {
		if emitted == nil { // after tick 1 is done
			eng.Put(tick(101))
			eng.Put(tick(102))
			eng.Put(tick(103))
		}
	})
	if len(nested) < 10 || !reflect.DeepEqual(nested, flat) {
		t.Fatalf("put from the sink: %v\nput in sequence:   %v", nested, flat)
	}
}

// Each access path, on the rule shape it is meant for.
func TestAccessPathChoice(t *testing.T) {
	typeA := filterForType("a")
	pat := func(alias, v string) Pattern {
		return Pattern{Alias: alias, Filter: typeA, Bind: []Binding{{Attr: "user", Var: v}}}
	}
	for _, tt := range []struct {
		name  string
		rule  Rule
		paths []accessKind // of pattern 1 when an event arrives at 0, and of 0 when at 1
		keys  []opKind     // of the same levels' keys, where given
	}{
		{"shared variable", Rule{Patterns: []Pattern{pat("p", "U"), pat("q", "U")}}, []accessKind{accessProbe, accessProbe}, nil},
		{"cmp eq", Rule{Patterns: []Pattern{pat("p", "U"), pat("q", "F")},
			Where: []Condition{{Type: "cmp", Left: "$F", Op: "eq", Right: "$p.k"}}}, []accessKind{accessProbe, accessProbe}, nil},
		{"cmp eq on an attribute", Rule{Patterns: []Pattern{pat("p", "U"), pat("q", "F")},
			Where: []Condition{{Type: "cmp", Left: "$p.k", Op: "eq", Right: "$q.k"}}}, []accessKind{accessProbe, accessProbe}, nil},
		{"kb", Rule{Patterns: []Pattern{pat("p", "U"), pat("q", "F")},
			Where: []Condition{{Type: "kb", S: "$U", P: "knows", O: "$F"}}}, []accessKind{accessKBObjects, accessKBSubjects}, nil},
		{"kb through a binder", Rule{Patterns: []Pattern{pat("p", "U"), pat("q", "F")},
			Where: []Condition{{Type: "kbBind", S: "$U", P: "likes", Var: "L"}, {Type: "kb", S: "$F", P: "likes", O: "$L"}}},
			[]accessKind{accessKBSubjects, accessScan}, nil},
		{"nothing to drive from", Rule{Patterns: []Pattern{pat("p", "U"), pat("q", "F")},
			Where: []Condition{{Type: "cmp", Left: "$U", Op: "ne", Right: "$F"}, {Type: "nokb", S: "$U", P: "knows", O: "$F"}}},
			[]accessKind{accessScan, accessScan}, nil},
		// Figure 1: every user likes ice cream, one is the friend's.
		{"kb on a variable before kb on a literal", Rule{Patterns: []Pattern{pat("p", "U"), pat("q", "F")},
			Where: []Condition{{Type: "kb", S: "$U", P: "likes", O: "ice cream"}, {Type: "kb", S: "$U", P: "knows", O: "$F"}}},
			[]accessKind{accessKBObjects, accessKBSubjects}, []opKind{opVar, opVar}},
		{"kb on a literal before the scan", Rule{Patterns: []Pattern{pat("p", "U"), pat("q", "F")},
			Where: []Condition{{Type: "cmp", Left: "$U", Op: "ne", Right: "$F"}, {Type: "kb", S: "$U", P: "likes", O: "ice cream"}}},
			[]accessKind{accessScan, accessKBSubjects}, []opKind{opLit, opLit}},
	} {
		eng := NewEngine(newTestClock(), knowledge.NewKB(), knowledge.NewGIS(), Options{})
		tt.rule.Name, tt.rule.Emit.Type = tt.name, "out"
		mustAdd(t, eng, &tt.rule)
		for fixed, want := range tt.paths {
			lv := &eng.rules[tt.name].plans[fixed].levels[1]
			if lv.access != want {
				t.Errorf("%s, event at pattern %d: access path %d, want %d", tt.name, fixed, lv.access, want)
			}
			if want != accessScan && tt.keys != nil && lv.key.kind != tt.keys[fixed] {
				t.Errorf("%s, event at pattern %d: key of kind %d, want %d", tt.name, fixed, lv.key.kind, tt.keys[fixed])
			}
		}
	}
}
