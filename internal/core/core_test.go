package core

import (
	"strings"
	"testing"
	"time"

	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/knowledge"
	"github.com/gloss/active/internal/match"
	"github.com/gloss/active/internal/pipeline"
	"github.com/gloss/active/internal/plaxton"
	"github.com/gloss/active/internal/pubsub"
	"github.com/gloss/active/internal/store"
)

// testWorld builds a small booted world.
func testWorld(t testing.TB, seed int64, nodes int, cfg NodeConfig) *World {
	t.Helper()
	w, err := NewWorld(WorldConfig{
		Seed:  seed,
		Nodes: nodes,
		Node:  cfg,
	})
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	return w
}

func TestWorldBoots(t *testing.T) {
	w := testWorld(t, 1, 9, NodeConfig{})
	if len(w.Nodes) != 9 {
		t.Fatalf("nodes = %d", len(w.Nodes))
	}
	for i, n := range w.Nodes {
		if !n.Overlay.Joined() {
			t.Fatalf("node %d not joined", i)
		}
	}
	// Regions round-robin over the default three.
	if len(w.NodesInRegion("eu")) != 3 || len(w.NodesInRegion("us")) != 3 || len(w.NodesInRegion("ap")) != 3 {
		t.Fatalf("region distribution wrong")
	}
}

func TestStoreAndBusAcrossWorld(t *testing.T) {
	w := testWorld(t, 2, 8, NodeConfig{})
	// Store on one node, read from another.
	var putErr error
	done := false
	w.Node(0).Store.Put([]byte("world smoke test"), func(_ ids.ID, err error) {
		putErr = err
		done = true
	})
	w.RunFor(5 * time.Second)
	if !done {
		t.Fatal("put incomplete")
	}
	if putErr != nil {
		t.Fatalf("put: %v", putErr)
	}
	// Pub/sub across the broker tree.
	got := 0
	w.Node(7).Client.Subscribe(pubsub.NewFilter(pubsub.TypeIs("smoke.test")), func(*event.Event) { got++ })
	w.RunFor(2 * time.Second)
	w.Node(3).Client.Publish(event.New("smoke.test", "t", w.Sim.Now()).Stamp(1))
	w.RunFor(2 * time.Second)
	if got != 1 {
		t.Fatalf("bus delivery = %d", got)
	}
}

// iceCreamWorld boots the Figure-1 world: nine nodes fast-forwarded to
// 9:45, desc deployed as two matchlet instances in eu, and Bob's device
// (the first eu node) subscribed to his suggestions, which collect in
// the returned slice.
func iceCreamWorld(t testing.TB, desc *ServiceDescriptor) (*World, *[]*event.Event) {
	t.Helper()
	w := iceCreamBoot(t)
	svc, err := w.DeployService(desc, 0)
	if err != nil {
		t.Fatalf("DeployService: %v", err)
	}
	w.RunFor(20 * time.Second)

	// Matchlets must be placed (2 instances in eu).
	installed := 0
	for _, i := range w.NodesInRegion("eu") {
		installed += len(w.Node(i).Server.Domains())
	}
	if installed != 2 {
		t.Fatalf("matchlet instances in eu = %d, want 2", installed)
	}
	if svc.Engine.Stats().DeploysOK != 2 {
		t.Fatalf("deploys: %+v", svc.Engine.Stats())
	}

	// Bob's device (node at eu) subscribes to suggestions for bob.
	return w, bobsDevice(w, w.NodesInRegion("eu")[0])
}

// iceCreamBoot boots the Figure-1 world's nine nodes and fast-forwards
// it to 9:45.
func iceCreamBoot(t testing.TB) *World {
	t.Helper()
	w := testWorld(t, 3, 9, NodeConfig{
		// Slow background maintenance: the test fast-forwards ~10 hours
		// of virtual time to reach mid-morning.
		Overlay:        plaxton.Options{HeartbeatInterval: time.Minute},
		Store:          store.Options{RepairInterval: time.Minute},
		AdvertInterval: 10 * time.Second,
	})
	w.RunFor(ScenarioStart - w.Sim.Now()) // advance to 9:45
	return w
}

// bobsDevice subscribes node i to the suggestions for bob, which collect
// in the returned slice.
func bobsDevice(w *World, i int) *[]*event.Event {
	suggestions := new([]*event.Event)
	w.Node(i).Client.Subscribe(pubsub.NewFilter(
		pubsub.TypeIs("suggestion.meet"),
		pubsub.Eq("user", event.S("bob")),
	), func(ev *event.Event) { *suggestions = append(*suggestions, ev) })
	w.RunFor(2 * time.Second)
	return suggestions
}

// alwaysOpen makes the scenario hold at any hour, for worlds that do not
// fast-forward to ScenarioStart: the shop never closes and every fact,
// Bob's spare time included, is always valid.
func alwaysOpen(desc *ServiceDescriptor) *ServiceDescriptor {
	for i := range desc.Places {
		desc.Places[i].Hours = knowledge.Span{}
	}
	for i := range desc.Facts {
		desc.Facts[i].From, desc.Facts[i].To = 0, 0
	}
	return desc
}

// publishWeatherAndAnna publishes, from two us nodes, the context Bob's
// location is correlated with: 20 °C in eu and Anna near Janetta's.
func publishWeatherAndAnna(w *World) {
	now := w.Sim.Now()
	us := w.NodesInRegion("us")
	w.Node(us[0]).Client.Publish(event.New("weather.report", "thermo", now).
		Set("region", event.S("eu")).Set("tempC", event.F(20)).Stamp(1))
	w.Node(us[1]).Client.Publish(event.New("gps.location", "gps-anna", now).
		Set("user", event.S("anna")).Set("x", event.F(10.25)).Set("y", event.F(3.95)).Stamp(2))
}

// publishBob publishes Bob's location fix seq from a third us node.
func publishBob(w *World, seq uint64) {
	w.Node(w.NodesInRegion("us")[2]).Client.Publish(event.New("gps.location", "gps-bob", w.Sim.Now()).
		Set("user", event.S("bob")).Set("x", event.F(10.20)).Set("y", event.F(4.05)).Stamp(seq))
}

// TestIceCreamEndToEnd is the Figure-1 integration test: sensors publish
// low-level events onto the bus; the evolution engine has placed matchlets
// per the service constraints; a matchlet correlates Bob, Anna, weather
// and the GIS; Bob's device receives the synthesised suggestion.
func TestIceCreamEndToEnd(t *testing.T) {
	w, got := iceCreamWorld(t, IceCreamService(2, "eu"))
	publishWeatherAndAnna(w)
	w.RunFor(2 * time.Second)
	publishBob(w, 3)
	w.RunFor(10 * time.Second)

	suggestions := *got
	if len(suggestions) == 0 {
		t.Fatal("no suggestion reached bob's device")
	}
	s := suggestions[0]
	if s.GetString("place") != "janettas" || s.GetString("friend") != "anna" {
		t.Fatalf("suggestion content: %+v", s.Attrs)
	}
	// Duplicate-suppressed: two matchlet instances correlate the same
	// events but the device sees each distinct suggestion once per
	// emitting matchlet at most; the suggestion set must be small.
	if len(suggestions) > 2 {
		t.Fatalf("suggestion storm: %d", len(suggestions))
	}
}

// TestDiscoveryEndToEnd reproduces §5's unknown-event path: no rule covers
// "pollen.level"; the directory holds a matchlet bundle for it; the node's
// discovery hook fetches and installs it; subsequent events match.
func TestDiscoveryEndToEnd(t *testing.T) {
	w := testWorld(t, 4, 8, NodeConfig{EnableDiscovery: true})

	// Publish a matchlet for pollen alerts into the store directory.
	rule := &match.Rule{
		Name:     "pollen-alert",
		WindowMs: 60_000,
		Patterns: []match.Pattern{{
			Alias:  "p",
			Filter: pubsub.NewFilter(pubsub.TypeIs("pollen.level")),
			Bind:   []match.Binding{{Attr: "region", Var: "R"}},
		}},
		Where: []match.Condition{{Type: "cmp", Left: "$p.level", Op: "gt", Right: "70"}},
		Emit: match.Emit{
			Type: "alert.pollen",
			Attrs: []match.EmitAttr{
				{Name: "region", From: "$R"},
				{Name: "level", From: "$p.level"},
			},
		},
	}
	data, err := match.MarshalRule(rule)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.Mint("matchlet/pollen-alert", "matchlet", data)
	if err != nil {
		t.Fatal(err)
	}
	published := false
	match.PublishMatchlet(w.Node(0).Store, "pollen.level", b, func(err error) {
		if err != nil {
			t.Errorf("publish matchlet: %v", err)
		}
		published = true
	})
	w.RunFor(5 * time.Second)
	if !published {
		t.Fatal("directory publish incomplete")
	}

	// Node 5's matching infrastructure sees pollen events.
	n5 := w.Node(5)
	n5.SubscribeMatching(pubsub.NewFilter(pubsub.TypeIs("pollen.level")))
	var alerts []*event.Event
	n5.Client.Subscribe(pubsub.NewFilter(pubsub.TypeIs("alert.pollen")), func(ev *event.Event) {
		alerts = append(alerts, ev)
	})
	w.RunFor(2 * time.Second)

	pollen := func(level float64, seq uint64) *event.Event {
		return event.New("pollen.level", "sensor", w.Sim.Now()).
			Set("region", event.S("eu")).Set("level", event.F(level)).Stamp(seq)
	}
	// First event triggers discovery (itself unmatched — the matchlet is
	// not installed yet).
	w.Node(2).Client.Publish(pollen(90, 1))
	w.RunFor(10 * time.Second)
	if n5.Discovery.Installed != 1 {
		t.Fatalf("discovery installs = %d (failed=%d, err=%v)",
			n5.Discovery.Installed, n5.Discovery.Failed, n5.Discovery.LastError)
	}
	// Later events match.
	w.Node(2).Client.Publish(pollen(85, 2))
	w.Node(2).Client.Publish(pollen(10, 3)) // below threshold
	w.RunFor(10 * time.Second)
	// When the directory object happens to be replicated locally the
	// fetch is synchronous and the *triggering* event (level 90) is
	// matched too; either way the 85 event must alert and the 10 must not.
	if len(alerts) < 1 || len(alerts) > 2 {
		t.Fatalf("alerts = %d, want 1 or 2", len(alerts))
	}
	for _, a := range alerts {
		if a.GetNum("level") <= 70 {
			t.Fatalf("below-threshold alert: %+v", a.Attrs)
		}
	}
}

// TestPipelineBundleProgram deploys an XML pipeline via a code bundle and
// pushes events through its remote put(event) interface.
func TestPipelineBundleProgram(t *testing.T) {
	w := testWorld(t, 5, 6, NodeConfig{})
	spec := `
<pipeline name="enrich">
  <component name="tag" type="map.setattr"><param k="attr" v="region"/><param k="value" v="eu"/></component>
  <component name="out" type="publish"/>
  <link from="tag" to="out"/>
</pipeline>`
	b, err := w.Mint("pipeline/enrich", "pipeline", []byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Node(3).Server.Install(b); err != nil {
		t.Fatalf("install pipeline bundle: %v", err)
	}
	if _, ok := w.Node(3).Pipelines.Pipeline("enrich"); !ok {
		t.Fatal("pipeline not registered in runtime")
	}
	// Subscribe for the enriched event, then push a raw one into the
	// pipeline over the network.
	var got []*event.Event
	w.Node(1).Client.Subscribe(pubsub.NewFilter(
		pubsub.TypeIs("raw.reading"),
		pubsub.Eq("region", event.S("eu")),
	), func(ev *event.Event) { got = append(got, ev) })
	w.RunFor(2 * time.Second)

	raw := event.New("raw.reading", "dev", w.Sim.Now()).Set("v", event.I(7)).Stamp(1)
	w.Node(0).Endpoint().Send(w.Node(3).ID(), &pipeline.PutMsg{Pipeline: "enrich", Event: raw})
	w.RunFor(5 * time.Second)
	if len(got) != 1 {
		t.Fatalf("enriched events = %d, want 1", len(got))
	}
	if got[0].GetNum("v") != 7 {
		t.Fatalf("payload lost: %+v", got[0].Attrs)
	}
}

// TestGracefulLeaveTriggersRedeployment: a matchlet host withdraws, the
// evolution engine places a replacement, and the replacement's host
// subscribes to the rule's patterns — a Figure-1 journey then yields a
// suggestion from it.
func TestGracefulLeaveTriggersRedeployment(t *testing.T) {
	w := testWorld(t, 6, 9, NodeConfig{})
	svc, err := w.DeployService(alwaysOpen(IceCreamService(2, "")), 0)
	if err != nil {
		t.Fatal(err)
	}
	w.RunFor(20 * time.Second)

	victim := -1
	placed := make(map[string]bool)
	for i, n := range w.Nodes {
		for _, d := range n.Server.Domains() {
			placed[d] = true
			if i != 0 && victim == -1 {
				victim = i
			}
		}
	}
	if victim == -1 {
		t.Fatal("no matchlet deployed off the engine node")
	}
	w.Node(victim).Advertiser.Leave()
	w.RunFor(2 * time.Second)
	w.Node(victim).Endpoint().(interface{ Kill() }).Kill()
	w.RunFor(30 * time.Second)

	live := 0
	replacement := ""
	for i, n := range w.Nodes {
		if i == victim {
			continue
		}
		for _, d := range n.Server.Domains() {
			live++
			if !placed[d] {
				replacement = d
			}
		}
	}
	if live < 2 {
		t.Fatalf("matchlets after graceful leave = %d, want ≥ 2", live)
	}
	if svc.Engine.Stats().LeavesSeen == 0 {
		t.Fatal("leave never observed")
	}
	if replacement == "" {
		t.Fatal("no replacement matchlet installed")
	}

	got := bobsDevice(w, 0)
	publishWeatherAndAnna(w)
	w.RunFor(2 * time.Second)
	publishBob(w, 3)
	w.RunFor(5 * time.Second)
	for _, s := range *got {
		if strings.Contains(s.Source, replacement+"/") {
			return
		}
	}
	t.Fatalf("no suggestion from the replacement %s among %d", replacement, len(*got))
}
