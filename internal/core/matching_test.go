package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/gloss/active/internal/bundle"
	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/match"
	"github.com/gloss/active/internal/pubsub"
)

// gpsFix is a location event from user at a spot far from every place
// the scenario knows.
func gpsFix(w *World, user string, seq uint64) *event.Event {
	return event.New("gps.location", "probe-"+user, w.Sim.Now()).
		Set("user", event.S(user)).Set("x", event.F(500)).Set("y", event.F(500)).Stamp(seq)
}

// TestSubscribeMatchingTwiceDeliversOnce holds one filter twice: the node
// subscribes once, and its engine takes each event in once.
func TestSubscribeMatchingTwiceDeliversOnce(t *testing.T) {
	w := testWorld(t, 31, 4, NodeConfig{AdvertInterval: -1})
	n := w.Node(3)
	f := pubsub.NewFilter(pubsub.TypeIs("gps.location"))
	n.SubscribeMatching(f)
	n.SubscribeMatching(f)
	w.RunFor(2 * time.Second)
	w.Node(1).Client.Publish(gpsFix(w, "bob", 1))
	w.RunFor(2 * time.Second)
	if got := n.Engine.Stats().EventsIn; got != 1 {
		t.Fatalf("engine took the event in %d times, want once", got)
	}
}

// TestOverlappingPatternsJoinOnce installs a matchlet whose two patterns
// overlap — every fix, and bob's fixes — so the host holds two filters a
// bob fix matches. The matchlet still takes each event in once and joins
// it once.
func TestOverlappingPatternsJoinOnce(t *testing.T) {
	w := testWorld(t, 32, 4, NodeConfig{AdvertInterval: -1})
	host := w.Node(3)
	var ml *match.Matchlet
	factory := match.NewMatchletFactory(host.KB, host.GIS)
	host.Programs.Register("matchlet", func(params map[string]string, data []byte) (bundle.Program, error) {
		p, err := factory(params, data)
		if err == nil {
			ml = p.(*match.Matchlet)
		}
		return p, err
	})
	rule := &match.Rule{
		Name:     "overlap",
		WindowMs: 60_000,
		Patterns: []match.Pattern{
			{
				Alias:  "any",
				Filter: pubsub.NewFilter(pubsub.TypeIs("gps.location")),
				Bind:   []match.Binding{{Attr: "user", Var: "U"}},
			},
			{
				Alias:  "bob",
				Filter: pubsub.NewFilter(pubsub.TypeIs("gps.location"), pubsub.Eq("user", event.S("bob"))),
				Bind:   []match.Binding{{Attr: "user", Var: "U"}},
			},
		},
		Emit: match.Emit{Type: "overlap.seen", Attrs: []match.EmitAttr{{Name: "user", From: "$U"}}},
	}
	data, err := match.MarshalRule(rule)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.Mint("matchlet/overlap", "matchlet", data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := host.Server.Install(b); err != nil {
		t.Fatalf("install: %v", err)
	}
	if len(host.matching) != 2 {
		t.Fatalf("host holds %d matching filters, want the rule's 2", len(host.matching))
	}
	w.RunFor(2 * time.Second)
	w.Node(1).Client.Publish(gpsFix(w, "bob", 1))
	w.Node(1).Client.Publish(gpsFix(w, "alice", 2))
	w.RunFor(2 * time.Second)
	st := ml.Engine().Stats()
	if st.EventsIn != 2 || st.Joins != 1 || st.Emitted != 1 {
		t.Fatalf("matchlet took in %d events, joined %d, emitted %d; want 2, 1, 1", st.EventsIn, st.Joins, st.Emitted)
	}
	if got := host.Engine.Stats().EventsIn; got != 2 {
		t.Fatalf("host engine took in %d events, want 2", got)
	}
}

// pathEdges adds to edges the broker-tree edges between nodes a and b
// under parents, each named by its child end.
func pathEdges(parents []int, a, b int, edges map[int]bool) {
	onA := map[int]bool{a: true}
	for _, x := range treeAncestors(parents, a) {
		onA[x] = true
	}
	meet := b
	for ; !onA[meet]; meet = parents[meet] {
		edges[meet] = true
	}
	for x := a; x != meet; x = parents[x] {
		edges[x] = true
	}
}

// routedPubs is how many pubsub.pub messages one publish from each of
// publishers sends when the subscribers are hosts: one down each
// broker-tree edge that connects the publisher to them. The client's
// hand-off to its own broker is a send to self, which never leaves the
// node and is no message.
func routedPubs(parents []int, publishers, hosts []int) uint64 {
	var total uint64
	for _, p := range publishers {
		edges := make(map[int]bool)
		for _, h := range hosts {
			pathEdges(parents, p, h, edges)
		}
		total += uint64(len(edges))
	}
	return total
}

// probeRouting publishes one fix from each of publishers and returns the
// pubsub.pub messages the world sent meanwhile and how many events each
// node's matching stack took in.
func probeRouting(w *World, publishers []int, seq *uint64) (pubs uint64, took []uint64) {
	before := w.Sim.Metrics().ByKind["pubsub.pub"]
	took = make([]uint64, len(w.Nodes))
	for i, n := range w.Nodes {
		took[i] = n.Engine.Stats().EventsIn
	}
	for _, p := range publishers {
		*seq++
		w.Node(p).Client.Publish(gpsFix(w, fmt.Sprintf("walker-%d", p), *seq))
	}
	w.RunFor(2 * time.Second)
	for i, n := range w.Nodes {
		took[i] = n.Engine.Stats().EventsIn - took[i]
	}
	return w.Sim.Metrics().ByKind["pubsub.pub"] - before, took
}

// checkTook holds each node's intake to want for the matchlets' hosts
// and to nothing elsewhere.
func checkTook(t *testing.T, took []uint64, hosts []int, want uint64) {
	t.Helper()
	for i, n := range took {
		if slices.Contains(hosts, i) {
			if n != want {
				t.Fatalf("host %d's matching stack took in %d events, want %d", i, n, want)
			}
		} else if n != 0 {
			t.Fatalf("node %d runs no matchlet but its matching stack took in %d events", i, n)
		}
	}
}

// TestRoutingFollowsPlacement: a matchlet's host subscribes to its rule's
// patterns, so the service's events cross only the broker-tree edges that
// lead to a host, and reach no other node's matching stack. Uninstalling
// one instance withdraws its subscriptions from every broker, and the
// other keeps matching.
func TestRoutingFollowsPlacement(t *testing.T) {
	w := testWorld(t, 3, 9, NodeConfig{})
	if _, err := w.DeployService(alwaysOpen(IceCreamService(2, "eu")), 0); err != nil {
		t.Fatal(err)
	}
	w.RunFor(20 * time.Second)
	got := bobsDevice(w, w.NodesInRegion("eu")[0])
	// Adverts are publishes too: stop them, so the bus carries only the
	// probes. The evolution engine then keeps its view of the placement.
	for _, n := range w.Nodes {
		n.Advertiser.Stop()
	}
	w.RunFor(2 * time.Second)
	var hosts []int
	var domains []string
	for i, n := range w.Nodes {
		if d := n.Server.Domains(); len(d) > 0 {
			hosts = append(hosts, i)
			domains = append(domains, d...)
		}
	}
	if len(hosts) != 2 || len(domains) != 2 {
		t.Fatalf("matchlets on nodes %v (%v), want one on each of two nodes", hosts, domains)
	}
	all := make([]int, len(w.Nodes))
	for i := range all {
		all[i] = i
	}
	seq := uint64(100)

	us := w.NodesInRegion("us")[0]
	pubs, took := probeRouting(w, []int{us}, &seq)
	if want := routedPubs(w.parents, []int{us}, hosts); pubs != want {
		t.Fatalf("a fix from node %d sent %d pubs, want %d: one per edge to hosts %v", us, pubs, want, hosts)
	}
	checkTook(t, took, hosts, 1)
	// A fix from every node passes every broker: a stray entry anywhere
	// would send a pub down an edge no host is behind.
	pubs, took = probeRouting(w, all, &seq)
	if want := routedPubs(w.parents, all, hosts); pubs != want {
		t.Fatalf("a fix from every node sent %d pubs, want %d", pubs, want)
	}
	checkTook(t, took, hosts, uint64(len(all)))

	if err := w.Node(hosts[0]).Server.Uninstall(domains[0]); err != nil {
		t.Fatal(err)
	}
	if held := len(w.Node(hosts[0]).matching); held != 0 {
		t.Fatalf("node %d holds %d matching filters after its matchlet left", hosts[0], held)
	}
	w.RunFor(2 * time.Second)
	left := hosts[1:]
	pubs, took = probeRouting(w, all, &seq)
	if want := routedPubs(w.parents, all, left); pubs != want {
		t.Fatalf("after uninstall a fix from every node sent %d pubs, want %d for node %d alone", pubs, want, left[0])
	}
	checkTook(t, took, left, uint64(len(all)))

	before := len(*got)
	publishWeatherAndAnna(w)
	w.RunFor(2 * time.Second)
	publishBob(w, 3)
	w.RunFor(5 * time.Second)
	fresh := (*got)[before:]
	if len(fresh) == 0 {
		t.Fatal("the remaining matchlet emitted no suggestion")
	}
	for _, s := range fresh {
		if !strings.Contains(s.Source, domains[1]+"/") {
			t.Fatalf("suggestion from %q, want the remaining instance %q", s.Source, domains[1])
		}
	}
}

// subscribeThenFail subscribes its domain to a stream, then fails to start.
type subscribeThenFail struct{}

func (subscribeThenFail) Start(d *bundle.Domain) error {
	d.Subscribe(pubsub.NewFilter(pubsub.TypeIs("gps.location")))
	return errors.New("cannot start")
}

func (subscribeThenFail) Stop() {}

// TestFailedStartHoldsNoSubscription: a bundle whose Start fails leaves
// no subscription behind, so no event is routed to its would-be host.
func TestFailedStartHoldsNoSubscription(t *testing.T) {
	w := testWorld(t, 33, 4, NodeConfig{AdvertInterval: -1})
	host := w.Node(3)
	host.Programs.Register("fails", func(map[string]string, []byte) (bundle.Program, error) {
		return subscribeThenFail{}, nil
	})
	b, err := w.Mint("fails/x", "fails", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := host.Server.Install(b); err == nil {
		t.Fatal("a program whose Start fails was installed")
	}
	if held := len(host.matching); held != 0 {
		t.Fatalf("failed install left %d matching filters held", held)
	}
	w.RunFor(2 * time.Second)
	seq := uint64(0)
	pubs, took := probeRouting(w, []int{1}, &seq)
	if want := routedPubs(w.parents, []int{1}, nil); pubs != want {
		t.Fatalf("a fix with no subscriber anywhere sent %d pubs, want %d", pubs, want)
	}
	checkTook(t, took, nil, 0)
}
