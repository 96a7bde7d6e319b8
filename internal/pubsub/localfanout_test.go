package pubsub

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/leakcheck"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/transport"
	"github.com/gloss/active/internal/wire"
)

// TestDrainFanoutWhilePublishing is hazard 5 of bench/README.md: a
// goroutine drains the pool while the actor keeps publishing. Under
// -race the WaitGroup the pool used to count jobs with reported its
// Wait racing an Add from zero. Beyond "no race", a drain must cover
// every publish handled before it was called.
func TestDrainFanoutWhilePublishing(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	ep := newConcEndpoint("drain-broker")
	b := NewBroker(ep, Options{FanoutWorkers: 4})
	if b.pool == nil {
		t.Fatal("pool did not engage")
	}
	defer b.Close()
	f := NewFilter(TypeIs("drain.evt"))
	var subs []ids.ID
	for i := 0; i < 6; i++ {
		d := ids.FromString(fmt.Sprintf("drain-sub-%d", i))
		subs = append(subs, d)
		b.subscribe(d, f)
	}
	const publishes = 3000
	var handled atomic.Int64
	done := make(chan struct{})
	var drains int
	go func() {
		defer close(done)
		for handled.Load() < publishes {
			before := int(handled.Load())
			b.DrainFanout()
			drains++
			for _, d := range subs {
				if got := len(ep.sentTo(d)); got < before {
					t.Errorf("drain %d returned with %d of the %d publishes handled before it sent to %s",
						drains, got, before, d.Short())
					return
				}
			}
		}
	}()
	pub := ids.FromString("drain-pub")
	for i := 0; i < publishes; i++ {
		b.handlePub(nil, pub, &PubMsg{Event: event.New("drain.evt", "drain", 0).Stamp(uint64(i + 1))})
		handled.Add(1)
	}
	<-done
	b.DrainFanout()
	for _, d := range subs {
		if got := len(ep.sentTo(d)); got != publishes {
			t.Fatalf("%s was sent %d events, want %d", d.Short(), got, publishes)
		}
	}
}

// slowMany is a TCP endpoint whose multicast path — the one the fan-out
// workers take — dawdles, while Send, the actor loop's path for a
// fan-out of one, does not: the slowed worker of the mixed-width test.
// Everything else, the local run queue included, is the node's own.
type slowMany struct {
	*transport.Node
	sends, multicasts atomic.Int64
}

func (e *slowMany) Send(to ids.ID, msg wire.Message) {
	e.sends.Add(1)
	e.Node.Send(to, msg)
}

func (e *slowMany) SendMany(tos []ids.ID, msg wire.Message) {
	e.multicasts.Add(1)
	time.Sleep(50 * time.Microsecond)
	e.Node.SendMany(tos, msg)
}

// seqRecorder collects the "seq" of delivered events in arrival order.
type seqRecorder struct {
	mu   sync.Mutex
	seqs []int64
}

func (r *seqRecorder) add(ev *event.Event) {
	r.mu.Lock()
	r.seqs = append(r.seqs, int64(ev.GetNum("seq")))
	r.mu.Unlock()
}

func (r *seqRecorder) snapshot() []int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int64(nil), r.seqs...)
}

// requireSeqs waits for want events and requires them to be exactly
// those, in order, once each.
func (r *seqRecorder) requireSeqs(t *testing.T, who string, want []int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(r.snapshot()) < len(want) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond) // a duplicate would be right behind
	got := r.snapshot()
	if len(got) != len(want) {
		t.Fatalf("%s saw %d events, want %d", who, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: arrival %d is event %d, want %d (reordered, lost or duplicated)", who, i, got[i], want[i])
		}
	}
}

func tcpNode(t *testing.T, name string, reg *wire.Registry) *transport.Node {
	t.Helper()
	n, err := transport.Listen(ids.FromString(name), reg, transport.Options{Seed: 1, Codec: wire.CodecBinary})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	return n
}

// onLoop runs fn on n's actor loop and waits for it.
func onLoop(n *transport.Node, fn func()) {
	done := make(chan struct{})
	n.Do(func() { fn(); close(done) })
	<-done
}

// TestFanoutMixedWidthFIFOOverTCP pins per-destination FIFO where the
// two send paths meet: the publisher alternates events only d takes
// (a fan-out of one, which the actor loop may send itself) with events d
// and e take (pooled, on a slowed worker). An inline send that did not
// wait for d's worker to run dry would overtake the pooled one before
// it; d must see every event once, in publish order.
func TestFanoutMixedWidthFIFOOverTCP(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	reg := wire.NewRegistry()
	RegisterMessages(reg)
	transport.RegisterMessages(reg)
	hub := &slowMany{Node: tcpNode(t, "mixed-hub", reg)}
	d, e := tcpNode(t, "mixed-d", reg), tcpNode(t, "mixed-e", reg)
	hub.AddPeer(d.ID(), d.Addr())
	hub.AddPeer(e.ID(), e.Addr())
	var atD, atE seqRecorder
	d.Handle("pubsub.deliver", func(_ netapi.Ctx, _ ids.ID, msg wire.Message) { atD.add(msg.(*DeliverMsg).Event) })
	e.Handle("pubsub.deliver", func(_ netapi.Ctx, _ ids.ID, msg wire.Message) { atE.add(msg.(*DeliverMsg).Event) })

	b := NewBroker(hub, Options{FanoutWorkers: 4})
	if b.pool == nil {
		t.Fatal("pool did not engage over TCP")
	}
	t.Cleanup(func() { _ = hub.Close(); b.Close() }) // the loop that submits stops first
	onLoop(hub.Node, func() {
		b.subscribe(d.ID(), NewFilter(TypeIs("mixed.one")))
		b.subscribe(d.ID(), NewFilter(TypeIs("mixed.two")))
		b.subscribe(e.ID(), NewFilter(TypeIs("mixed.two")))
	})

	const events = 240
	src := ids.FromString("mixed-pub")
	var wantD, wantE []int64
	for i := int64(0); i < events; i++ {
		typ := "mixed.one"
		if i%3 == 0 {
			typ = "mixed.two"
			wantE = append(wantE, i)
		}
		wantD = append(wantD, i)
		ev := event.New(typ, "mixed", 0).Set("seq", event.I(i)).Stamp(uint64(i + 1))
		hub.Do(func() { b.handlePub(nil, src, &PubMsg{Event: ev}) })
		if i%40 == 39 {
			// Let the loop catch up and the workers run dry now and then,
			// so that the inline path is taken as well as refused.
			onLoop(hub.Node, func() {})
			b.DrainFanout()
		}
	}
	atD.requireSeqs(t, "d", wantD)
	atE.requireSeqs(t, "e", wantE)
	// The broker calls Send only for a fan-out of one it sends inline.
	inline := int(hub.sends.Load())
	if heldBack := len(wantD) - len(wantE) - inline; inline == 0 || heldBack == 0 {
		t.Fatalf("of %d fan-outs of one, %d were sent inline and %d held back behind the busy worker: one of the two paths is untested (vacuous)",
			len(wantD)-len(wantE), inline, heldBack)
	}
}

// TestLocalClientInterleavedWithRemote has the node's own client and a
// remote subscriber on one filter: each publish from elsewhere reaches
// the local client through the local run queue and the remote one over
// TCP. Both see every event once, in publish order, the client counts no
// duplicate — and what the client publishes itself goes to the remote
// subscriber only, through the same queue.
func TestLocalClientInterleavedWithRemote(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	reg := wire.NewRegistry()
	RegisterMessages(reg)
	transport.RegisterMessages(reg)
	hub, d := tcpNode(t, "local-hub", reg), tcpNode(t, "local-d", reg)
	hub.AddPeer(d.ID(), d.Addr())
	var atD, atLocal seqRecorder
	d.Handle("pubsub.deliver", func(_ netapi.Ctx, _ ids.ID, msg wire.Message) { atD.add(msg.(*DeliverMsg).Event) })

	b := NewBroker(hub, Options{})
	t.Cleanup(func() { _ = hub.Close(); b.Close() }) // the loop that submits stops first
	if b.local == nil {
		t.Fatal("the broker did not pick up the TCP endpoint's local run queue")
	}
	client := NewClient(hub, hub.ID())
	f := NewFilter(TypeIs("local.evt"))
	onLoop(hub, func() {
		client.Subscribe(f, atLocal.add)
		b.subscribe(d.ID(), f)
	})

	const events = 300
	src := ids.FromString("local-pub")
	var all []int64
	for i := int64(0); i < events; i++ {
		all = append(all, i)
		ev := event.New("local.evt", "local", 0).Set("seq", event.I(i)).Stamp(uint64(i + 1))
		if i%5 == 4 {
			hub.Do(func() { client.Publish(ev) })
		} else {
			hub.Do(func() { b.handlePub(nil, src, &PubMsg{Event: ev}) })
		}
	}
	atLocal.requireSeqs(t, "the local client", all)
	atD.requireSeqs(t, "d", all)
	onLoop(hub, func() {
		if client.Duplicates != 0 || client.Delivered != events {
			t.Errorf("client: %d delivered, %d duplicates; want %d and 0", client.Delivered, client.Duplicates, events)
		}
		// The client's subscription and own publishes went through the
		// local queue as well: the broker saw them as the node's own.
		if st := b.Stats(); st.PubsReceived != events || st.SubsReceived != 1 {
			t.Errorf("broker: %d pubs and %d subs received; want %d and 1", st.PubsReceived, st.SubsReceived, events)
		}
	})
}
