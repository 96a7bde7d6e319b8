package core

import (
	"time"

	"github.com/gloss/active/internal/constraint"
	"github.com/gloss/active/internal/knowledge"
	"github.com/gloss/active/internal/match"
	"github.com/gloss/active/internal/pubsub"
)

// This file packages the paper's §1.1 worked example — Bob, Anna, hot
// weather and Janetta's ice cream — as a reusable service descriptor, so
// integration tests, examples and the Figure-1 benchmark all exercise the
// exact correlation the paper walks through.

// ScenarioStart is 9:45 on the first simulated day: during Bob's holiday
// (which runs from 01:00 on day 0 through day 6), while Janetta's
// (9:00–17:00) is open. The paper places the scene at 16:45 on 25/6; the
// simulation keeps the same structure — mid-holiday, mid-opening-hours —
// anchored near the world epoch so worlds need not fast-forward weeks of
// maintenance traffic.
const ScenarioStart = 9*time.Hour + 45*time.Minute

// IceCreamFacts returns the §1.1 knowledge about Bob and Anna.
func IceCreamFacts() []knowledge.Fact {
	return []knowledge.Fact{
		{S: "bob", P: "likes", O: "ice cream"},
		{S: "bob", P: "nationality", O: "scottish"},
		// "Bob is Scottish and therefore regards 20º as hot."
		{S: "bob", P: "hot-threshold", O: "20"},
		{S: "bob", P: "knows", O: "anna"},
		// "Bob is on holiday from 20/6 to 27/6" → spare time to eat it.
		{S: "bob", P: "has-spare-time", O: "true",
			From: 1 * time.Hour, To: 6 * 24 * time.Hour},
	}
}

// IceCreamPlaces returns the GIS fixture: Janetta's in Market Street,
// open 9:00–17:00, selling ice cream; plus unrelated street furniture.
func IceCreamPlaces() []knowledge.Place {
	return []knowledge.Place{
		{
			Name: "janettas", Region: "eu", X: 10.30, Y: 4.00,
			Hours: knowledge.Span{Open: 9 * time.Hour, Close: 17 * time.Hour},
			Sells: []string{"ice cream", "coffee"},
			Tags:  []string{"cafe"},
		},
		{
			Name: "north-street", Region: "eu", X: 10.20, Y: 4.05,
			Tags: []string{"street"},
		},
		{
			Name: "market-street", Region: "eu", X: 10.30, Y: 4.00,
			Tags: []string{"street"},
		},
		{
			Name: "library", Region: "eu", X: 10.10, Y: 4.10,
			Hours: knowledge.Span{Open: 9 * time.Hour, Close: 22 * time.Hour},
			Tags:  []string{"building"},
		},
	}
}

// IceCreamRule returns the §1.1 correlation as a declarative matchlet
// rule: two acquainted users near each other, hot weather by the user's
// own standard, spare time, and an open, reachable shop selling ice cream.
func IceCreamRule() *match.Rule {
	return &match.Rule{
		Name:     "ice-cream-meetup",
		WindowMs: int64(30 * time.Minute / time.Millisecond),
		Patterns: []match.Pattern{
			{
				Alias:  "loc",
				Filter: pubsub.NewFilter(pubsub.TypeIs("gps.location")),
				Bind:   []match.Binding{{Attr: "user", Var: "U"}},
			},
			{
				Alias:  "floc",
				Filter: pubsub.NewFilter(pubsub.TypeIs("gps.location")),
				Bind:   []match.Binding{{Attr: "user", Var: "F"}},
			},
			{
				Alias:  "w",
				Filter: pubsub.NewFilter(pubsub.TypeIs("weather.report")),
			},
		},
		Where: []match.Condition{
			{Type: "cmp", Left: "$U", Op: "ne", Right: "$F"},
			{Type: "kb", S: "$U", P: "likes", O: "ice cream"},
			{Type: "kb", S: "$U", P: "knows", O: "$F"},
			{Type: "kb", S: "$U", P: "has-spare-time", O: "true"},
			{Type: "cmp", Left: "$w.tempC", Op: "ge", Right: "kb:$U:hot-threshold:25"},
			{Type: "withinKm", A: "$loc", B: "$floc", Km: 2},
			{Type: "bindNearestSelling", Item: "ice cream", Near: "$loc", Km: 1.5, Var: "P"},
			{Type: "reachable", A: "$loc", Var: "$P", SpeedKmH: 5},
		},
		Emit: match.Emit{
			Type: "suggestion.meet",
			Attrs: []match.EmitAttr{
				{Name: "user", From: "$U"},
				{Name: "friend", From: "$F"},
				{Name: "place", From: "$P"},
				{Name: "x", From: "place:$P.x"},
				{Name: "y", From: "place:$P.y"},
				{Name: "reason", From: "ice cream"},
				// srcTime carries the triggering location event's
				// timestamp so end-to-end latency is measurable; it is
				// volatile so it does not defeat output suppression.
				{Name: "srcTime", From: "$loc.time", Volatile: true},
			},
		},
	}
}

// IceCreamService bundles the scenario into a deployable descriptor with
// the given matchlet placement constraint.
func IceCreamService(matchletInstances int, region string) *ServiceDescriptor {
	return &ServiceDescriptor{
		Name:   "ice-cream-meetup",
		Rules:  []*match.Rule{IceCreamRule()},
		Facts:  IceCreamFacts(),
		Places: IceCreamPlaces(),
		Constraints: constraint.NewSet(&constraint.MinInstances{
			Program: "matchlet/ice-cream-meetup",
			Region:  region,
			N:       matchletInstances,
		}),
	}
}
