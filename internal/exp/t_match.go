package exp

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/knowledge"
	"github.com/gloss/active/internal/match"
	"github.com/gloss/active/internal/pubsub"
	"github.com/gloss/active/internal/vclock"
)

// matchWorkload builds an engine with R single-pattern alert rules plus
// one correlation rule, and a generator of mixed low-level events.
func matchWorkload(ruleCount int, windowMs int64) (*match.Engine, *vclock.Scheduler, func(seq uint64) *event.Event) {
	sched := vclock.NewScheduler()
	kb := knowledge.NewKB()
	gis := knowledge.NewGIS()
	for u := 0; u < 20; u++ {
		user := fmt.Sprintf("user-%02d", u)
		kb.AddSPO(user, "likes", "coffee")
		kb.AddSPO(user, "knows", fmt.Sprintf("user-%02d", (u+1)%20))
	}
	_ = gis.AddPlace(knowledge.Place{Name: "cafe", X: 5, Y: 5, Sells: []string{"coffee"}})
	eng := match.NewEngine(sched, kb, gis, match.Options{})
	for r := 0; r < ruleCount; r++ {
		region := fmt.Sprintf("region-%d", r)
		rule := &match.Rule{
			Name:     fmt.Sprintf("hot-%d", r),
			WindowMs: windowMs,
			Patterns: []match.Pattern{{
				Alias: "w",
				Filter: pubsub.NewFilter(pubsub.TypeIs("weather.report"),
					pubsub.Eq("region", event.S(region))),
			}},
			Where: []match.Condition{{Type: "cmp", Left: "$w.tempC", Op: "gt", Right: "30"}},
			Emit: match.Emit{Type: "alert.heat",
				Attrs: []match.EmitAttr{{Name: "region", From: "$w.region"}}},
		}
		if err := eng.AddRule(rule); err != nil {
			panic(err)
		}
	}
	// One two-pattern correlation rule joining users near each other.
	corr := &match.Rule{
		Name:     "nearby-friends",
		WindowMs: windowMs,
		Patterns: []match.Pattern{
			{Alias: "a", Filter: pubsub.NewFilter(pubsub.TypeIs("gps.location")),
				Bind: []match.Binding{{Attr: "user", Var: "U"}}},
			{Alias: "b", Filter: pubsub.NewFilter(pubsub.TypeIs("gps.location")),
				Bind: []match.Binding{{Attr: "user", Var: "F"}}},
		},
		Where: []match.Condition{
			{Type: "cmp", Left: "$U", Op: "ne", Right: "$F"},
			{Type: "kb", S: "$U", P: "knows", O: "$F"},
			{Type: "withinKm", A: "$a", B: "$b", Km: 0.5},
		},
		Emit: match.Emit{Type: "suggestion.nearby",
			Attrs: []match.EmitAttr{{Name: "user", From: "$U"}, {Name: "friend", From: "$F"}}},
	}
	if err := eng.AddRule(corr); err != nil {
		panic(err)
	}

	rng := rand.New(rand.NewSource(17))
	gen := func(seq uint64) *event.Event {
		switch seq % 3 {
		case 0:
			return event.New("weather.report", "thermo", sched.Now()).
				Set("region", event.S(fmt.Sprintf("region-%d", rng.Intn(ruleCount+3)))).
				Set("tempC", event.F(rng.Float64()*40)).
				Stamp(seq)
		case 1:
			return event.New("gps.location", "gps", sched.Now()).
				Set("user", event.S(fmt.Sprintf("user-%02d", rng.Intn(20)))).
				Set("x", event.F(rng.Float64()*2)).
				Set("y", event.F(rng.Float64()*2)).
				Stamp(seq)
		default:
			return event.New("rfid.read", "rfid", sched.Now()).
				Set("user", event.S(fmt.Sprintf("user-%02d", rng.Intn(20)))).
				Stamp(seq)
		}
	}
	return eng, sched, gen
}

// T5MatchThroughput measures matching engine throughput (wall clock) and
// the distillation ratio across rule counts and window sizes (§1.2).
func T5MatchThroughput(quick bool) *Table {
	t := &Table{
		ID:     "E-T5",
		Title:  "Matching engine throughput and distillation",
		Header: []string{"rules", "window", "events", "wall events/s", "emitted", "distill ratio"},
	}
	events := 60000
	if quick {
		events = 15000
	}
	for _, rules := range []int{1, 5, 10} {
		for _, window := range []time.Duration{time.Minute, 10 * time.Minute} {
			eng, sched, gen := matchWorkload(rules, int64(window/time.Millisecond))
			start := time.Now()
			for i := 0; i < events; i++ {
				if i%10 == 0 {
					sched.RunFor(time.Second) // advance virtual time: windows roll
				}
				eng.Put(gen(uint64(i)))
			}
			wall := time.Since(start)
			st := eng.Stats()
			ratio := "∞"
			if st.Emitted > 0 {
				ratio = f1(float64(st.EventsIn) / float64(st.Emitted))
			}
			t.AddRow(
				fmt.Sprint(rules+1), fmt.Sprint(window),
				fmt.Sprint(events),
				fmt.Sprintf("%.0f", float64(events)/wall.Seconds()),
				fmt.Sprint(st.Emitted), ratio,
			)
		}
	}
	t.Notes = append(t.Notes, "wall-clock throughput; +1 rule is the two-pattern correlation join")
	return t
}
