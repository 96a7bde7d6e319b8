package core

import (
	"runtime"
	"testing"
	"time"

	"github.com/gloss/active/internal/constraint"
	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/match"
)

// journeyAllocCeiling bounds what one Figure-1 journey allocates on the
// simulator — Bob's location fix published at a us node, routed through
// the broker tree to both matchlet instances, correlated by the rule
// engine with Anna's fix, the weather and the GIS, and the suggestion
// routed back to Bob's device — together with the background
// maintenance the world runs in the journey's three virtual seconds.
// The two matchlet instances are installed on node 0, not placed by the
// evolution engine: where the engine puts them depends on which adverts
// its first evaluation has seen, and so on boot timing, and a journey to
// two hosts costs more than a journey to one. Measured at 90 on
// go1.24/amd64 (114 while every send to another node allocated its
// envelope, and 128 when last recorded before that; 137 while a send
// to self crossed the simulated network as a message; 146 with the instances on nodes 0 and 3; before every
// join waited for its announces to be answered, 134 and 143, and 140
// with engine placement; 164 while every node's matching stack
// subscribed to the service's streams, not only the matchlets' hosts, so
// each fix crossed every edge of the broker tree; 161 before the broker
// tree followed node coordinates, which changed the brokers a journey
// crosses; 272 while the broker built a fresh target map, closure and
// lists per publish). It only ratchets down: lower it when a change makes
// journeys cheaper, never raise it to let one through.
const journeyAllocCeiling = 96

// TestFigure1JourneyAllocs holds the whole journey, not one layer, to an
// allocation ceiling: the Mallocs delta over a run of journeys after a
// warm-up, divided by their number.
func TestFigure1JourneyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds do not hold under -race")
	}
	desc := IceCreamService(2, "eu")
	// Every fix is a journey: without output suppression each one yields
	// a suggestion per matchlet instance.
	desc.Rules[0].SuppressMs = -1
	w, got := pinnedIceCreamWorld(t, desc, 0, 0)
	publishWeatherAndAnna(w)
	w.RunFor(2 * time.Second)

	seq := uint64(3)
	journey := func() {
		publishBob(w, seq)
		seq++
		w.RunFor(3 * time.Second)
	}
	// Every fix stays in the rule's pattern buffer (64 events by
	// default), so Anna's is never evicted and every journey joins.
	const warm, journeys = 5, 50
	for range warm {
		journey()
	}
	before := len(*got)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range journeys {
		journey()
	}
	runtime.ReadMemStats(&m1)
	if n := len(*got) - before; n != 2*journeys {
		t.Fatalf("%d suggestions from %d journeys, want one per matchlet instance each", n, journeys)
	}
	perJourney := float64(m1.Mallocs-m0.Mallocs) / journeys
	t.Logf("%.0f allocs per journey (ceiling %d)", perJourney, journeyAllocCeiling)
	if perJourney > journeyAllocCeiling {
		t.Errorf("a Figure-1 journey allocated %.0f objects, ceiling %d", perJourney, journeyAllocCeiling)
	}
}

// pinnedIceCreamWorld is iceCreamWorld with desc's matchlet instances
// installed on the given hosts, one per host entry, instead of placed by
// the evolution engine.
func pinnedIceCreamWorld(t testing.TB, desc *ServiceDescriptor, hosts ...int) (*World, *[]*event.Event) {
	t.Helper()
	w := iceCreamBoot(t)
	rule := desc.Rules[0]
	desc.Constraints = constraint.NewSet()
	if _, err := w.DeployService(desc, 0); err != nil {
		t.Fatalf("DeployService: %v", err)
	}
	mint := w.BundleMaker(map[string]*match.Rule{rule.Name: rule})
	for _, h := range hosts {
		b, err := mint("matchlet/"+rule.Name, ids.Zero, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Node(h).Server.Install(b); err != nil {
			t.Fatalf("install on node %d: %v", h, err)
		}
	}
	w.RunFor(20 * time.Second)
	return w, bobsDevice(w, w.NodesInRegion("eu")[0])
}
