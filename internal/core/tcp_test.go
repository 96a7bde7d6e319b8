package core

import (
	"crypto/ed25519"
	"reflect"
	"testing"
	"time"

	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/match"
	"github.com/gloss/active/internal/pubsub"
	"github.com/gloss/active/internal/transport"
	"github.com/gloss/active/internal/wire"
)

// TestActiveNodeOverTCP boots three full active nodes over real sockets
// the way activenode does: each node is given only its bootstrap's
// address and calls Join. Then a publish at one node reaches a subscriber
// at another exactly once, a put at one node is gettable at another, and
// a matchlet deploys via a signed bundle — the whole stack, no simulator.
func TestActiveNodeOverTCP(t *testing.T) {
	reg := wire.NewRegistry()
	RegisterMessages(reg)
	transport.RegisterMessages(reg)

	secret := []byte("tcp-test-secret")
	cfg := NodeConfig{
		Secret:         secret,
		AdvertInterval: -1, // keep the wire quiet; no evolution engine here
	}
	names := []string{"tcp-core-a", "tcp-core-b", "tcp-core-c"}
	bootstraps := []int{-1, 0, 1} // a chain: b joins via a, c via b
	nodes := make([]*ActiveNode, len(names))
	eps := make([]*transport.Node, len(names))
	for i, name := range names {
		ep, err := transport.Listen(ids.FromString(name), reg, transport.Options{
			Region: "eu", Seed: int64(i + 1),
		})
		if err != nil {
			t.Fatalf("listen %s: %v", name, err)
		}
		t.Cleanup(func() { _ = ep.Close() })
		eps[i] = ep
		nodes[i] = NewActiveNode(ep, reg, cfg)
	}
	for i, b := range bootstraps {
		var bootstrap ids.ID
		if b >= 0 {
			bootstrap = eps[b].ID()
			eps[i].AddPeer(bootstrap, eps[b].Addr())
		}
		joined := make(chan error, 1)
		eps[i].Do(func() { nodes[i].Join(bootstrap, func(err error) { joined <- err }) })
		if err := <-joined; err != nil { // the overlay's JoinTimeout bounds the wait
			t.Fatalf("join %s: %v", names[i], err)
		}
	}

	// Pub/sub across the broker chain a—b—c.
	gotEvent := make(chan *event.Event, 4)
	eps[2].Do(func() {
		nodes[2].Client.Subscribe(pubsub.NewFilter(pubsub.TypeIs("tcp.test")),
			func(ev *event.Event) { gotEvent <- ev })
	})
	// The subscription has crossed the chain once a's broker holds it.
	deadline := time.Now().Add(5 * time.Second)
	for entries := 0; entries == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the subscription at c never reached a's broker")
		}
		got := make(chan int)
		eps[0].Do(func() { got <- nodes[0].Broker.Stats().TableEntries })
		entries = <-got
	}
	eps[0].Do(func() {
		nodes[0].Client.Publish(event.New("tcp.test", "a", 0).Set("n", event.I(9)).Stamp(1))
	})
	select {
	case ev := <-gotEvent:
		if ev.GetNum("n") != 9 {
			t.Fatalf("event content: %+v", ev.Attrs)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pub/sub delivery over TCP failed")
	}
	select {
	case ev := <-gotEvent:
		t.Fatalf("the publish was delivered twice: %+v", ev.Attrs)
	case <-time.After(300 * time.Millisecond):
	}

	// Store round trip.
	putDone := make(chan error, 1)
	guidCh := make(chan ids.ID, 1)
	eps[1].Do(func() {
		nodes[1].Store.Put([]byte("tcp payload"), func(g ids.ID, err error) {
			guidCh <- g
			putDone <- err
		})
	})
	select {
	case err := <-putDone:
		if err != nil {
			t.Fatalf("put: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("put stuck")
	}
	guid := <-guidCh
	getDone := make(chan []byte, 1)
	eps[2].Do(func() {
		nodes[2].Store.Get(guid, func(d []byte, err error) {
			if err != nil {
				t.Errorf("get: %v", err)
			}
			getDone <- d
		})
	})
	select {
	case d := <-getDone:
		if string(d) != "tcp payload" {
			t.Fatalf("content: %q", d)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("get stuck")
	}

	// Matchlet deployment via signed bundle, then check registration.
	rule := IceCreamRule()
	payload, err := marshalRuleForTest(rule)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MintBundle(secret, testPub(t), testPriv(t), "matchlet/tcp", "matchlet", 1, payload)
	if err != nil {
		t.Fatal(err)
	}
	installed := make(chan error, 1)
	logical := make(chan []string, 1)
	eps[2].Do(func() {
		_, err := nodes[2].Server.Install(b)
		installed <- err
		logical <- nodes[2].Server.LogicalPrograms()
	})
	if err := <-installed; err != nil {
		t.Fatalf("install: %v", err)
	}
	if got := <-logical; len(got) != 1 || got[0] != "matchlet/tcp" {
		t.Fatalf("logical programs: %v", got)
	}
}

// --- helpers -----------------------------------------------------------------

func marshalRuleForTest(r *match.Rule) ([]byte, error) { return match.MarshalRule(r) }

// deterministic test key pair.
func testKeyPair() (ed25519.PublicKey, ed25519.PrivateKey) {
	seed := make([]byte, ed25519.SeedSize)
	copy(seed, []byte("core-tcp-test-key-seed-32-bytes!"))
	priv := ed25519.NewKeyFromSeed(seed)
	return priv.Public().(ed25519.PublicKey), priv
}

func testPub(t *testing.T) ed25519.PublicKey {
	t.Helper()
	pub, _ := testKeyPair()
	return pub
}

func testPriv(t *testing.T) ed25519.PrivateKey {
	t.Helper()
	_, priv := testKeyPair()
	return priv
}

// TestOwnBrokerPublishWithFullInbox is hazard 1 of bench/README.md on
// the wiring every ActiveNode has — its client attached to its own
// broker. A callback holds the actor loop while the node's 1 024-slot
// inbox fills up from outside; it then publishes, and the broker hands
// the node's own client an event from elsewhere. Both used to be sends
// to self, i.e. blocking posts to that full inbox from the only
// goroutine that empties it: the loop waited on itself for ever. Every
// send to self now goes through the loop's local run queue and completes
// right after the callback, ahead of everything queued in the inbox
// (transport's TestSelfSendsNeverWaitOnTheInbox covers a Request too).
//
// A Request to another node is queued on the loop too (transport's
// TestRemoteRequestsNeverWaitOnTheInbox). Not covered: a Handle
// registration made on the loop still posts to the inbox and would still
// block here; Handle is a setup call, made before the loop serves.
func TestOwnBrokerPublishWithFullInbox(t *testing.T) {
	reg := wire.NewRegistry()
	RegisterMessages(reg)
	transport.RegisterMessages(reg)
	ep, err := transport.Listen(ids.FromString("own-broker"), reg, transport.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	node := NewActiveNode(ep, reg, NodeConfig{Secret: []byte("s"), AdvertInterval: -1})
	// Closing the endpoint is also what frees a loop blocked on its inbox.
	t.Cleanup(func() { _ = ep.Close() })

	const inboxSlots = 1024
	var order []string // actor loop only
	subscribed := make(chan struct{})
	ep.Do(func() {
		node.Client.Subscribe(pubsub.NewFilter(pubsub.TypeIs("own.evt")), func(ev *event.Event) {
			order = append(order, "delivered "+ev.Source)
		})
		close(subscribed)
	})
	<-subscribed
	// The subscription must be in the broker's table before the remote
	// publish below is matched against it.
	deadline := time.Now().Add(5 * time.Second)
	for entries := 0; entries == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the client's subscription never reached its own broker")
		}
		got := make(chan int)
		ep.Do(func() { got <- node.Broker.Stats().TableEntries })
		entries = <-got
	}

	parked, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	ep.Do(func() {
		close(parked)
		<-release
		node.Client.Publish(event.New("own.evt", "local", 0).Stamp(1))
		node.Broker.Publish(ids.FromString("elsewhere"), &pubsub.PubMsg{Event: event.New("own.evt", "remote", 0).Stamp(2)})
		order = append(order, "callback done")
	})
	<-parked
	for i := 0; i < inboxSlots; i++ {
		last := i == inboxSlots-1
		ep.Do(func() {
			if len(order) < 4 {
				order = append(order, "inbox")
			}
			if last {
				close(done)
			}
		})
	}
	close(release)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the actor loop is blocked on its own full inbox (hazard 1)")
	}
	got := make(chan []string, 1)
	ep.Do(func() { got <- order })
	want := []string{"delivered local", "callback done", "delivered remote", "inbox"}
	if order := <-got; !reflect.DeepEqual(order, want) {
		t.Fatalf("order %q, want %q", order, want)
	}
	stats := make(chan pubsub.Stats, 1)
	ep.Do(func() { stats <- node.Broker.Stats() })
	if st := <-stats; st.PubsReceived != 2 || st.ClientDelivers != 1 {
		t.Fatalf("broker saw %d publishes and made %d client deliveries; want 2 and 1", st.PubsReceived, st.ClientDelivers)
	}
}
