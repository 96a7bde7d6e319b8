package pubsub

import (
	"fmt"
	"testing"
	"time"

	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/simnet"
)

// net builds a world with b brokers in a chain and c clients attached to
// given broker indices.
type testNet struct {
	world   *simnet.World
	brokers []*Broker
	clients []*Client
}

// newChain builds brokerCount brokers connected in a chain:
// B0 — B1 — … — Bn-1.
func newChain(seed int64, brokerCount int, opts Options) *testNet {
	w := simnet.NewWorld(simnet.Config{Seed: seed})
	tn := &testNet{world: w}
	for i := 0; i < brokerCount; i++ {
		n := w.NewNode(ids.FromString(fmt.Sprintf("broker-%d", i)), "eu", netapi.Coord{X: float64(i * 100)})
		tn.brokers = append(tn.brokers, NewBroker(n, opts))
	}
	for i := 1; i < brokerCount; i++ {
		ConnectBrokers(tn.brokers[i-1], tn.brokers[i])
	}
	return tn
}

// addClient attaches a fresh client to broker index bi.
func (tn *testNet) addClient(bi int) *Client {
	i := len(tn.clients)
	n := tn.world.NewNode(ids.FromString(fmt.Sprintf("client-%d", i)), "eu", netapi.Coord{X: float64(bi * 100)})
	c := NewClient(n, tn.brokers[bi].ID())
	tn.clients = append(tn.clients, c)
	return c
}

func (tn *testNet) settle() { tn.world.RunFor(5 * time.Second) }

func mkEvent(typ, user string, seq uint64) *event.Event {
	return event.New(typ, "src-"+user, 0).Set("user", event.S(user)).Stamp(seq)
}

func TestLocalDelivery(t *testing.T) {
	tn := newChain(1, 1, Options{})
	sub := tn.addClient(0)
	pub := tn.addClient(0)
	var got []*event.Event
	sub.Subscribe(NewFilter(TypeIs("gps.location")), func(e *event.Event) { got = append(got, e) })
	tn.settle()
	pub.Publish(mkEvent("gps.location", "bob", 1))
	pub.Publish(mkEvent("weather.report", "n/a", 2))
	tn.settle()
	if len(got) != 1 {
		t.Fatalf("delivered %d events, want 1", len(got))
	}
	if got[0].GetString("user") != "bob" {
		t.Fatalf("wrong event: %+v", got[0])
	}
}

func TestMultiHopRouting(t *testing.T) {
	tn := newChain(2, 5, Options{})
	sub := tn.addClient(0)
	pub := tn.addClient(4)
	count := 0
	sub.Subscribe(NewFilter(TypeIs("t"), Eq("user", event.S("anna"))), func(*event.Event) { count++ })
	tn.settle()
	pub.Publish(mkEvent("t", "anna", 1))
	pub.Publish(mkEvent("t", "bob", 2)) // must not reach sub
	tn.settle()
	if count != 1 {
		t.Fatalf("delivered %d, want 1", count)
	}
}

func TestNoDeliveryWithoutSubscription(t *testing.T) {
	tn := newChain(3, 3, Options{})
	pub := tn.addClient(2)
	tn.settle()
	pub.Publish(mkEvent("t", "x", 1))
	tn.settle()
	for i, b := range tn.brokers {
		if b.Stats().ClientDelivers != 0 {
			t.Fatalf("broker %d delivered without subscription", i)
		}
	}
	// Event must not propagate past the publisher's broker.
	if tn.brokers[0].Stats().PubsReceived != 0 {
		t.Fatalf("event flooded to distant broker with no subscribers")
	}
}

func TestCoveringPrunesPropagation(t *testing.T) {
	tn := newChain(4, 3, Options{})
	c0 := tn.addClient(0)
	c0b := tn.addClient(0)
	// Broad subscription first, then a narrower one: the narrow one must
	// not be forwarded beyond broker 0.
	c0.Subscribe(NewFilter(TypeIs("t")), func(*event.Event) {})
	tn.settle()
	before := tn.brokers[1].Stats().SubsReceived
	c0b.Subscribe(NewFilter(TypeIs("t"), Eq("user", event.S("bob"))), func(*event.Event) {})
	tn.settle()
	after := tn.brokers[1].Stats().SubsReceived
	if after != before {
		t.Fatalf("covered subscription was forwarded: B1 subs %d -> %d", before, after)
	}
	// Without covering, it is forwarded.
	tn2 := newChain(4, 3, Options{DisableCovering: true})
	d0 := tn2.addClient(0)
	d0b := tn2.addClient(0)
	d0.Subscribe(NewFilter(TypeIs("t")), func(*event.Event) {})
	tn2.settle()
	before2 := tn2.brokers[1].Stats().SubsReceived
	d0b.Subscribe(NewFilter(TypeIs("t"), Eq("user", event.S("bob"))), func(*event.Event) {})
	tn2.settle()
	if tn2.brokers[1].Stats().SubsReceived == before2 {
		t.Fatalf("ablation: subscription should have been forwarded with covering disabled")
	}
}

func TestCoveringSimplificationWithdrawsNarrow(t *testing.T) {
	tn := newChain(5, 2, Options{})
	c := tn.addClient(0)
	c.Subscribe(NewFilter(TypeIs("t"), Eq("user", event.S("bob"))), func(*event.Event) {})
	tn.settle()
	if got := tn.brokers[1].Stats().TableEntries; got != 1 {
		t.Fatalf("B1 entries = %d, want 1", got)
	}
	// Broader subscription covers the first: B0 should withdraw the
	// narrow one from B1 and install the broad one.
	c.Subscribe(NewFilter(TypeIs("t")), func(*event.Event) {})
	tn.settle()
	if got := tn.brokers[1].Stats().TableEntries; got != 1 {
		t.Fatalf("B1 entries after simplification = %d, want 1 (broad only)", got)
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	tn := newChain(6, 3, Options{})
	sub := tn.addClient(0)
	pub := tn.addClient(2)
	count := 0
	f := NewFilter(TypeIs("t"))
	sub.Subscribe(f, func(*event.Event) { count++ })
	tn.settle()
	pub.Publish(mkEvent("t", "u", 1))
	tn.settle()
	sub.Unsubscribe(f)
	tn.settle()
	pub.Publish(mkEvent("t", "u", 2))
	tn.settle()
	if count != 1 {
		t.Fatalf("delivered %d, want 1 (second publish after unsub)", count)
	}
	// Broker tables must be clean again.
	for i, b := range tn.brokers {
		if got := b.Stats().TableEntries; got != 0 {
			t.Fatalf("broker %d still has %d entries after unsubscribe", i, got)
		}
	}
}

func TestUnsubscribeUncoversHiddenFilter(t *testing.T) {
	// Regression for the classic covering bug: a broad filter hides a
	// narrow one; when the broad one is unsubscribed the narrow one must
	// be (re-)forwarded so its subscriber keeps receiving events.
	tn := newChain(7, 3, Options{})
	broadSub := tn.addClient(0)
	narrowSub := tn.addClient(0)
	pub := tn.addClient(2)
	narrowCount := 0
	broad := NewFilter(TypeIs("t"))
	narrow := NewFilter(TypeIs("t"), Eq("user", event.S("bob")))
	broadSub.Subscribe(broad, func(*event.Event) {})
	tn.settle()
	narrowSub.Subscribe(narrow, func(*event.Event) { narrowCount++ })
	tn.settle()
	broadSub.Unsubscribe(broad)
	tn.settle()
	pub.Publish(mkEvent("t", "bob", 1))
	tn.settle()
	if narrowCount != 1 {
		t.Fatalf("narrow subscriber got %d events after broad unsubscribe, want 1", narrowCount)
	}
}

func TestFanOutToMultipleSubscribers(t *testing.T) {
	tn := newChain(8, 4, Options{})
	counts := make([]int, 3)
	for i := 0; i < 3; i++ {
		i := i
		sub := tn.addClient(i + 1)
		sub.Subscribe(NewFilter(TypeIs("t")), func(*event.Event) { counts[i]++ })
	}
	pub := tn.addClient(0)
	tn.settle()
	pub.Publish(mkEvent("t", "u", 1))
	tn.settle()
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("subscriber %d received %d, want 1", i, c)
		}
	}
}

func TestDuplicateSuppressionAtClient(t *testing.T) {
	tn := newChain(9, 1, Options{})
	sub := tn.addClient(0)
	pub := tn.addClient(0)
	count := 0
	// Two overlapping subscriptions; the event matches both but network
	// dedup at the broker plus ID dedup at the client yields one handler
	// call per subscription, not two copies.
	sub.Subscribe(NewFilter(TypeIs("t")), func(*event.Event) { count++ })
	tn.settle()
	pub.Publish(mkEvent("t", "u", 1))
	pub.Publish(mkEvent("t", "u", 1)) // same ID → duplicate
	tn.settle()
	if count != 1 {
		t.Fatalf("handler ran %d times, want 1 (dup suppressed)", count)
	}
	if sub.Duplicates != 1 {
		t.Fatalf("Duplicates = %d, want 1", sub.Duplicates)
	}
}

func TestStatsCounters(t *testing.T) {
	tn := newChain(12, 2, Options{})
	sub := tn.addClient(0)
	pub := tn.addClient(1)
	sub.Subscribe(NewFilter(TypeIs("t")), func(*event.Event) {})
	tn.settle()
	pub.Publish(mkEvent("t", "u", 1))
	tn.settle()
	s0 := tn.brokers[0].Stats()
	s1 := tn.brokers[1].Stats()
	if s1.NeighborFwds != 1 {
		t.Errorf("B1 neighbour forwards = %d, want 1", s1.NeighborFwds)
	}
	if s0.ClientDelivers != 1 {
		t.Errorf("B0 client delivers = %d, want 1", s0.ClientDelivers)
	}
	if s0.TableEntries != 1 || s1.TableEntries != 1 {
		t.Errorf("table entries: B0=%d B1=%d, want 1/1", s0.TableEntries, s1.TableEntries)
	}
}
