// The paper's second scenario (§1.1): "Bob, currently in Australia, walks
// past a restaurant previously recommended by Anna: her opinion of the
// restaurant should be delivered to Bob…". The recommendation knowledge
// lives in the P2P store (written from Europe); Bob's matchlet runs in the
// ap region; promiscuous caching pulls the knowledge close to where the
// matching happens, and repeat lookups get dramatically faster.
//
//	go run ./examples/restaurant
package main

import (
	"fmt"
	"time"

	active "github.com/gloss/active"
)

func main() {
	world, err := active.NewWorld(active.WorldConfig{Seed: 77, Nodes: 12})
	if err != nil {
		panic(err)
	}
	world.RunFor(active.ScenarioStart - world.Sim.Now())

	// The dine-out service: when a user walks past an open restaurant
	// that a friend of theirs recommends, and the user has no dinner
	// plans, deliver the friend's opinion.
	rule := &active.Rule{
		Name:     "recommended-restaurant",
		WindowMs: int64(10 * time.Minute / time.Millisecond),
		Patterns: []active.Pattern{{
			Alias:  "loc",
			Filter: active.NewFilter(active.TypeIs("gps.location")),
			Bind:   []active.Binding{{Attr: "user", Var: "U"}},
		}},
		Where: []active.Condition{
			{Type: "bindNearestSelling", Item: "dinner", Near: "$loc", Km: 0.3, Var: "P"},
			{Type: "kbBind", S: "$P", P: "recommended-by", Var: "R"},
			{Type: "kb", S: "$U", P: "knows", O: "$R"},
			{Type: "nokb", S: "$U", P: "has-dinner-plans", O: "true"},
			{Type: "openFor", Var: "$P", MinMinutes: 60},
		},
		Emit: active.Emit{
			Type: "suggestion.dine",
			Attrs: []active.EmitAttr{
				{Name: "user", From: "$U"},
				{Name: "place", From: "$P"},
				{Name: "recommendedBy", From: "$R"},
				{Name: "opinion", From: "kb:$P:opinion:worth a visit"},
			},
		},
	}
	svc := &active.ServiceDescriptor{
		Name:  "dine-out",
		Rules: []*active.Rule{rule},
		Facts: []active.Fact{
			{S: "bob", P: "knows", O: "anna"},
			{S: "harbour-grill", P: "recommended-by", O: "anna"},
			{S: "harbour-grill", P: "opinion", O: "best barramundi in Sydney"},
		},
		Places: []active.Place{{
			Name: "harbour-grill", Region: "ap", X: 15010, Y: -1990,
			Hours: active.Span{Open: 8 * time.Hour, Close: 23 * time.Hour},
			Sells: []string{"dinner"},
		}},
		Constraints: active.Constraints(active.MinInstances("matchlet/recommended-restaurant", "ap", 1)),
	}
	if _, err := world.DeployService(svc, 0); err != nil {
		panic(err)
	}
	world.RunFor(20 * time.Second)
	fmt.Println("dine-out service deployed; matchlet placed in the ap region")

	// Anna's recommendation is also written into the P2P store from a
	// European node — the globally distributed knowledge base.
	eu := world.Node(world.NodesInRegion("eu")[0])
	sy := eu.Sync
	sy.PublishSubject("harbour-grill", func(err error) {
		if err != nil {
			panic(err)
		}
	})
	world.RunFor(5 * time.Second)
	fmt.Println("recommendation stored in the P2P store (rooted wherever its GUID hashes)")

	// An ap-region node fetches the subject twice: the first read crosses
	// the planet, the second is served by the promiscuous cache.
	ap := world.Node(world.NodesInRegion("ap")[0])
	apSync := ap.Sync
	for attempt := 1; attempt <= 2; attempt++ {
		start := world.Sim.Now()
		done := false
		apSync.FetchSubject("harbour-grill", func(err error) {
			if err != nil {
				panic(err)
			}
			done = true
			fmt.Printf("fetch #%d of the recommendation from ap: %v\n",
				attempt, world.Sim.Now()-start)
		})
		world.RunFor(5 * time.Second)
		if !done {
			panic("fetch stuck")
		}
	}

	// Bob walks past the Harbour Grill.
	bobDevice := world.Node(world.NodesInRegion("ap")[1])
	bobDevice.Client.Subscribe(
		active.NewFilter(active.TypeIs("suggestion.dine"), active.Eq("user", active.S("bob"))),
		func(ev *active.Event) {
			fmt.Printf("📨 bob's device: %s — %s says %q\n",
				ev.GetString("place"), ev.GetString("recommendedBy"), ev.GetString("opinion"))
		})
	world.RunFor(2 * time.Second)

	fmt.Println("bob walks along the harbour…")
	bobDevice.Client.Publish(active.NewEvent("gps.location", "gps-bob", world.Sim.Now()).
		Set("user", active.S("bob")).
		Set("x", active.F(15010.1)).Set("y", active.F(-1990.05)).
		Stamp(1))
	world.RunFor(10 * time.Second)
	fmt.Println("done")
}
