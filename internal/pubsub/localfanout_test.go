package pubsub

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/leakcheck"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/transport"
	"github.com/gloss/active/internal/vclock"
	"github.com/gloss/active/internal/wire"
)

// localBPEndpoint is a bpEndpoint that sends through a netapi.Loop, as
// both substrates do: a send to the node itself joins the loop's local
// run queue, and what drains from there is logged like a send to the node
// itself, so both kinds of endpoint keep comparable logs.
type localBPEndpoint struct {
	*bpEndpoint
	loop   netapi.Loop
	queued int // messages run from the local run queue
}

func newLocalBPEndpoint(e *bpEndpoint) *localBPEndpoint {
	l := &localBPEndpoint{bpEndpoint: e}
	l.loop.Init(e.id, (*loopSeam)(l))
	logged := func(_ netapi.Ctx, _ ids.ID, msg wire.Message) {
		l.queued++
		e.Send(e.id, msg)
	}
	l.loop.Handle("pubsub.deliver", logged)
	l.loop.Handle("pubsub.pub", logged)
	return l
}

func (e *localBPEndpoint) Send(to ids.ID, msg wire.Message)        { e.loop.Send(to, msg) }
func (e *localBPEndpoint) SendMany(tos []ids.ID, msg wire.Message) { e.loop.SendMany(tos, msg, nil) }

// loopSeam hands the loop's envelopes to the recorder. It records the
// destination and message by value: the loop lends the envelope for the
// call only.
type loopSeam localBPEndpoint

func (s *loopSeam) Transmit(env *wire.Envelope, _ *wire.SharedBody) {
	s.bpEndpoint.Send(env.To, env.Msg)
}
func (s *loopSeam) Arm(time.Duration, netapi.Pending) vclock.Timer { return nil }
func (s *loopSeam) Wake()                                          {}

// destLine renders what was sent to one destination as "kind:eventID",
// in send order: the comparison key of the self-delivery differential.
func (e *bpEndpoint) destLine(to ids.ID) []string {
	var out []string
	for _, m := range e.sentTo(to) {
		switch msg := m.(type) {
		case *PubMsg:
			out = append(out, "fwd:"+msg.Event.ID.String())
		case *DeliverMsg:
			out = append(out, "del:"+msg.Event.ID.String())
		default:
			out = append(out, "ctl:"+msg.Kind())
		}
	}
	return out
}

// selfWorld is one side of the self-delivery differential: a standalone
// broker with a fixed cast of subscribers, neighbours and publishers. Both
// sides' brokers have the same ID, so every destination is the same ID on
// both.
type selfWorld struct {
	ep     *bpEndpoint
	local  *localBPEndpoint // nil on the send-to-self side
	b      *Broker
	subs   []ids.ID
	nbors  []ids.ID
	pubsrc []ids.ID
}

func newSelfWorld(local bool) *selfWorld {
	w := &selfWorld{ep: newBPEndpoint("sd-broker")}
	var ep netapi.Endpoint = w.ep
	if local {
		w.local = newLocalBPEndpoint(w.ep)
		ep = w.local
	}
	w.b = NewBroker(ep, Options{})
	for i := 0; i < 12; i++ {
		w.subs = append(w.subs, ids.FromString(fmt.Sprintf("sd-sub-%d", i)))
	}
	for i := 0; i < 3; i++ {
		n := ids.FromString(fmt.Sprintf("sd-nbor-%d", i))
		w.nbors = append(w.nbors, n)
		w.b.AddNeighbor(n)
	}
	w.pubsrc = []ids.ID{ids.FromString("sd-pub-a"), ids.FromString("sd-pub-b")}
	return w
}

// dests is every destination the broker can send to: subscribers,
// neighbours and its own node.
func (w *selfWorld) dests() []ids.ID {
	return append(append(append([]ids.ID(nil), w.subs...), w.nbors...), w.ep.id)
}

// TestBrokerDifferentialFanoutWorkersVsSerial holds a broker whose
// sends run through a netapi.Loop, where its deliveries to its own node
// take the local run queue and run after the publish, to one whose
// endpoint logs them as plain sends. Under a randomized workload with
// subscription churn, saturation episodes and drains, the two must send
// the same messages to every destination in the same order and keep the
// same Stats.
//
// The name and the subtests are kept from when one side fanned out
// through a worker pool: workers=N now only picks the workload's seed
// (1000+N, as it did then), and local says whether the side under test
// runs the loop. The reference always logs, so local=false replays one
// script on two independent logging brokers, which must agree too.
func TestBrokerDifferentialFanoutWorkersVsSerial(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for _, local := range []bool{true, false} {
				t.Run(fmt.Sprintf("local=%v", local), func(t *testing.T) {
					testSelfDeliveryDifferential(t, int64(1000+workers), local)
				})
			}
		})
	}
}

func testSelfDeliveryDifferential(t *testing.T, seed int64, local bool) {
	loc, snd := newSelfWorld(local), newSelfWorld(false)
	worlds := []*selfWorld{loc, snd}

	// Subscriptions: every destination takes a few random filters, which
	// only "wide" events can match; sub 0, neighbour 0 and the node itself
	// each take every wide event and one type nobody shares. The churn
	// below moves the random ones in and out.
	type subscription struct {
		d ids.ID
		f Filter
	}
	var plan []subscription
	var churnable []Filter
	sub := rand.New(rand.NewSource(7))
	for _, d := range loc.dests() {
		for k := 0; k < 3; k++ {
			f := ixRandFilter(sub)
			f = NewFilter(append(f.Constraints, Exists("wide"))...)
			churnable = append(churnable, f)
			plan = append(plan, subscription{d, f})
		}
	}
	for _, solo := range []subscription{
		{loc.subs[0], NewFilter(TypeIs("sd.solo"))},
		{loc.nbors[0], NewFilter(TypeIs("sd.nbor"))},
		{loc.ep.id, NewFilter(TypeIs("sd.self"))},
	} {
		plan = append(plan, solo, subscription{solo.d, NewFilter(Exists("wide"))})
	}
	for _, w := range worlds {
		for _, s := range plan {
			w.b.subscribe(s.d, s.f)
		}
	}

	rng := rand.New(rand.NewSource(seed))
	removed := map[string]bool{} // "dest|filter key" pairs the churn took out
	churned := 0
	for i := 0; i < 600; i++ {
		// Scripted identically on both sides: saturate a subscriber, drain
		// one, or move one destination's subscription out or back in.
		switch rng.Intn(10) {
		case 0:
			d := loc.subs[rng.Intn(len(loc.subs))]
			for _, w := range worlds {
				w.ep.saturated[d] = true
			}
		case 1:
			d := loc.subs[rng.Intn(len(loc.subs))]
			for _, w := range worlds {
				w.ep.saturated[d] = false
				w.ep.fireDrain(d)
			}
		case 2:
			dests := loc.dests()
			d := dests[rng.Intn(len(dests))]
			f := churnable[rng.Intn(len(churnable))]
			k := d.String() + "|" + f.Key()
			for _, w := range worlds {
				if removed[k] {
					w.b.subscribe(d, f)
				} else {
					w.b.unsubscribe(d, f)
				}
			}
			removed[k] = !removed[k]
			churned++
		}
		var ev *event.Event
		switch i % 6 {
		case 1:
			ev = event.New("sd.solo", "solo", 0).Stamp(uint64(i))
		case 3:
			ev = event.New("sd.self", "solo", 0).Stamp(uint64(i))
		case 5:
			ev = event.New("sd.nbor", "solo", 0).Stamp(uint64(i))
		default:
			ev = ixRandEvent(rng, uint64(i)).Set("wide", event.B(true))
		}
		src := rng.Intn(len(loc.pubsrc))
		for _, w := range worlds {
			w.b.handlePub(nil, w.pubsrc[src], &PubMsg{Event: ev.Clone()})
			if w.local != nil {
				w.local.loop.Drain() // as a substrate does after the callback
			}
		}
	}
	// Per-destination send sequences must match exactly: the delivery-set
	// check and the per-destination FIFO check in one (no sorting).
	for _, d := range loc.dests() {
		gl, gs := loc.ep.destLine(d), snd.ep.destLine(d)
		if len(gl) != len(gs) {
			t.Fatalf("dest %s: side under test sent %d, send-to-self reference %d", d.Short(), len(gl), len(gs))
		}
		for i := range gl {
			if gl[i] != gs[i] {
				t.Fatalf("dest %s: send %d diverges: side under test %s, send-to-self reference %s",
					d.Short(), i, gl[i], gs[i])
			}
		}
	}
	sl, ss := loc.b.Stats(), snd.b.Stats()
	if sl != ss {
		t.Fatalf("stats diverge:\nside under test: %+v\nreference:      %+v", sl, ss)
	}
	if sl.ShedDeliveries == 0 || sl.DrainEvents == 0 {
		t.Fatalf("workload shed %d and drained %d times; saturation seam untested (vacuous)", sl.ShedDeliveries, sl.DrainEvents)
	}
	self := len(loc.ep.destLine(loc.ep.id))
	if self < 150 || churned < 20 {
		t.Fatalf("%d deliveries to the broker's own node, %d churn steps: the workload does not exercise the seam (vacuous)",
			self, churned)
	}
	if local && loc.local.queued != self {
		t.Fatalf("%d of %d deliveries to the broker's own node went through the local run queue", loc.local.queued, self)
	}
}

// widthLog is a TCP endpoint that counts the broker's SendMany calls by
// width and otherwise is the node itself.
type widthLog struct {
	*transport.Node
	one, many atomic.Int64
}

func (e *widthLog) SendMany(tos []ids.ID, msg wire.Message) {
	if len(tos) == 1 {
		e.one.Add(1)
	} else {
		e.many.Add(1)
	}
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

// TestFanoutMixedWidthFIFOOverTCP pins per-destination FIFO toward one
// TCP peer where the transport's two send shapes meet: the publisher
// alternates events only d takes (a fan-out of one, which SendMany sends
// as a plain Send) with events d and e take (a fan-out of two, one shared
// body for both frames). d must see every event once, in publish order.
func TestFanoutMixedWidthFIFOOverTCP(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	reg := wire.NewRegistry()
	RegisterMessages(reg)
	transport.RegisterMessages(reg)
	hub := &widthLog{Node: tcpNode(t, "mixed-hub", reg)}
	d, e := tcpNode(t, "mixed-d", reg), tcpNode(t, "mixed-e", reg)
	hub.AddPeer(d.ID(), d.Addr())
	hub.AddPeer(e.ID(), e.Addr())
	var atD, atE seqRecorder
	d.Handle("pubsub.deliver", func(_ netapi.Ctx, _ ids.ID, msg wire.Message) { atD.add(msg.(*DeliverMsg).Event) })
	e.Handle("pubsub.deliver", func(_ netapi.Ctx, _ ids.ID, msg wire.Message) { atE.add(msg.(*DeliverMsg).Event) })

	b := NewBroker(hub, Options{})
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
	}
	atD.requireSeqs(t, "d", wantD)
	atE.requireSeqs(t, "e", wantE)
	if one, many := hub.one.Load(), hub.many.Load(); one == 0 || many == 0 {
		t.Fatalf("%d fan-outs of one and %d wider ones were sent: one of the two shapes is untested (vacuous)", one, many)
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
