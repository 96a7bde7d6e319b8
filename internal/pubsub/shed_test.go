package pubsub

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/leakcheck"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/vclock"
	"github.com/gloss/active/internal/wire"
)

// bpEndpoint is a scriptable netapi.Endpoint: tests mark destinations
// saturated and observe exactly what the broker sends.
type bpEndpoint struct {
	id        ids.ID
	rng       *rand.Rand
	sent      []sentRec
	saturated map[ids.ID]bool
	drainFns  []func(ids.ID)
}

type sentRec struct {
	to  ids.ID
	msg wire.Message
}

func newBPEndpoint(name string) *bpEndpoint {
	return &bpEndpoint{
		id:        ids.FromString(name),
		rng:       rand.New(rand.NewSource(5)),
		saturated: make(map[ids.ID]bool),
	}
}

func (e *bpEndpoint) ID() ids.ID            { return e.id }
func (e *bpEndpoint) Info() netapi.NodeInfo { return netapi.NodeInfo{ID: e.id} }
func (e *bpEndpoint) Clock() vclock.Clock   { return nil }
func (e *bpEndpoint) Rand() *rand.Rand      { return e.rng }
func (e *bpEndpoint) Send(to ids.ID, msg wire.Message) {
	e.sent = append(e.sent, sentRec{to: to, msg: msg})
}
func (e *bpEndpoint) SendMany(tos []ids.ID, msg wire.Message) {
	for _, to := range tos {
		e.Send(to, msg)
	}
}
func (e *bpEndpoint) Request(to ids.ID, msg wire.Message, timeout time.Duration, cb netapi.ReplyFunc) {
	cb(nil, netapi.ErrUnreachable)
}
func (e *bpEndpoint) Handle(string, netapi.Handler) {}

func (e *bpEndpoint) QueuedBytes(to ids.ID) int {
	if e.saturated[to] {
		return 1 << 20
	}
	return 0
}
func (e *bpEndpoint) Saturated(to ids.ID) bool   { return e.saturated[to] }
func (e *bpEndpoint) OnDrain(fn func(to ids.ID)) { e.drainFns = append(e.drainFns, fn) }
func (e *bpEndpoint) fireDrain(to ids.ID) {
	for _, fn := range e.drainFns {
		fn(to)
	}
}

// sentTo filters the send log by destination.
func (e *bpEndpoint) sentTo(to ids.ID) []wire.Message {
	var out []wire.Message
	for _, r := range e.sent {
		if r.to == to {
			out = append(out, r.msg)
		}
	}
	return out
}

// TestControlMessageMarking pins which pub/sub messages are exempt from
// budget drops: routing state is control, event traffic is not.
func TestControlMessageMarking(t *testing.T) {
	control := []wire.Message{
		&SubMsg{}, &UnsubMsg{}, &PeerMsg{}, &DetachMsg{}, &ReclaimMsg{},
	}
	for _, m := range control {
		if !wire.Control(m) {
			t.Errorf("%s must be control-plane traffic", m.Kind())
		}
	}
	data := []wire.Message{&PubMsg{}, &DeliverMsg{}, &ReclaimReply{}}
	for _, m := range data {
		if wire.Control(m) {
			t.Errorf("%s must NOT be control-plane traffic", m.Kind())
		}
	}
}

// TestBrokerShedsDeliveriesFirst pins the shed order under
// backpressure: per-subscriber deliveries toward a saturated
// destination are dropped at the broker, while neighbour forwards (one
// PubMsg serving a whole subtree) and control traffic keep flowing.
func TestBrokerShedsDeliveriesFirst(t *testing.T) {
	ep := newBPEndpoint("shed-broker")
	b := NewBroker(ep, Options{})
	nbor := ids.FromString("shed-nbor")
	b.AddNeighbor(nbor)

	sub1 := ids.FromString("shed-sub-1")
	sub2 := ids.FromString("shed-sub-2")
	f := NewFilter(TypeIs("shed.evt"))
	b.subscribe(sub1, f)
	b.subscribe(sub2, f)
	b.subscribe(nbor, f) // neighbour forwards events too

	pub := ids.FromString("shed-pub")
	mkEvent := func(stamp uint64) *event.Event {
		return event.New("shed.evt", "shed", 0).Set("x", event.I(1)).Stamp(stamp)
	}

	// Saturate sub1's link and the neighbour's: only the subscriber
	// delivery is shed; the forward must survive.
	ep.saturated[sub1] = true
	ep.saturated[nbor] = true
	ep.sent = nil
	b.handlePub(nil, pub, &PubMsg{Event: mkEvent(1)})

	if got := len(ep.sentTo(sub1)); got != 0 {
		t.Fatalf("saturated subscriber got %d messages, want 0 (shed)", got)
	}
	if got := len(ep.sentTo(sub2)); got != 1 {
		t.Fatalf("healthy subscriber got %d messages, want 1", got)
	}
	fwds := ep.sentTo(nbor)
	if len(fwds) != 1 {
		t.Fatalf("saturated neighbour got %d messages, want 1 (forwards are never shed)", len(fwds))
	}
	if _, ok := fwds[0].(*PubMsg); !ok {
		t.Fatalf("neighbour received %T, want *PubMsg", fwds[0])
	}
	st := b.Stats()
	if st.ShedDeliveries != 1 {
		t.Fatalf("ShedDeliveries = %d, want 1", st.ShedDeliveries)
	}
	if st.ClientDelivers != 1 {
		t.Fatalf("ClientDelivers = %d, want 1 (shed deliveries are not counted as delivered)", st.ClientDelivers)
	}

	// Control traffic keeps flowing to the saturated destination — the
	// broker sheds only fan-out, never subscription state.
	ep.sent = nil
	b.subscribe(sub2, NewFilter(TypeIs("shed.other")))
	sawControl := false
	for _, m := range ep.sentTo(nbor) {
		if wire.Control(m) {
			sawControl = true
		}
	}
	if !sawControl {
		t.Fatal("subscription propagation stopped toward the saturated neighbour")
	}

	// Drain ends the episode: DrainEvents counts it and deliveries
	// resume toward the recovered destination.
	ep.saturated[sub1] = false
	ep.fireDrain(sub1)
	if st := b.Stats(); st.DrainEvents != 1 {
		t.Fatalf("DrainEvents = %d, want 1", st.DrainEvents)
	}
	ep.sent = nil
	b.handlePub(nil, pub, &PubMsg{Event: mkEvent(2)})
	if got := len(ep.sentTo(sub1)); got != 1 {
		t.Fatalf("recovered subscriber got %d messages, want 1", got)
	}
}

// TestBrokerShedDisabled: an endpoint that never reports a destination
// saturated gets blind fan-out — the broker sheds only on a saturation
// signal, never on its own account.
func TestBrokerShedDisabled(t *testing.T) {
	ep := &countingEndpoint{nullEndpoint: nullEndpoint{id: ids.FromString("noshed-broker"), rng: rand.New(rand.NewSource(3))}}
	b := NewBroker(ep, Options{})
	sub := ids.FromString("noshed-sub")
	b.subscribe(sub, NewFilter(TypeIs("shed.evt")))
	b.handlePub(nil, ids.FromString("noshed-pub"), &PubMsg{
		Event: event.New("shed.evt", "shed", 0).Stamp(1)})
	if ep.sends != 1 {
		t.Fatalf("broker without a backpressure signal sent %d messages, want 1", ep.sends)
	}
	if st := b.Stats(); st.ShedDeliveries != 0 {
		t.Fatalf("ShedDeliveries = %d without a backpressure signal, want 0", st.ShedDeliveries)
	}
}

// TestShedDrainSeamUnderFanout runs fifty shed episodes toward one of
// seven subscribers of a filter: each sheds several publishes toward the
// saturated one, then drains. Neither ShedDeliveries nor DrainEvents may
// be lost or double-counted — an episode that sheds four times closes
// with one drain — and the healthy subscribers miss nothing. leakcheck
// pins that the broker started no goroutine of its own.
func TestShedDrainSeamUnderFanout(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	ep := newBPEndpoint("seam-broker")
	b := NewBroker(ep, Options{})

	f := NewFilter(TypeIs("seam.evt"))
	hot := ids.FromString("seam-hot")
	b.subscribe(hot, f)
	var cold []ids.ID
	for i := 0; i < 6; i++ {
		d := ids.FromString(fmt.Sprintf("seam-cold-%d", i))
		cold = append(cold, d)
		b.subscribe(d, f)
	}
	pub := ids.FromString("seam-pub")

	const (
		episodes     = 50
		shedPerEp    = 4 // publishes while hot is saturated
		deliverPerEp = 3 // publishes after the drain
	)
	seq := uint64(0)
	publish := func() {
		seq++
		b.handlePub(nil, pub, &PubMsg{
			Event: event.New("seam.evt", "seam", 0).Set("x", event.I(1)).Stamp(seq)})
	}
	for e := 0; e < episodes; e++ {
		ep.saturated[hot] = true
		for i := 0; i < shedPerEp; i++ {
			publish() // sheds toward hot; the cold subscribers are sent it
		}
		ep.saturated[hot] = false
		ep.fireDrain(hot)
		for i := 0; i < deliverPerEp; i++ {
			publish()
		}
	}

	st := b.Stats()
	if want := uint64(episodes * shedPerEp); st.ShedDeliveries != want {
		t.Fatalf("ShedDeliveries = %d, want %d (lost or double-counted sheds)", st.ShedDeliveries, want)
	}
	if st.DrainEvents != episodes {
		t.Fatalf("DrainEvents = %d, want %d", st.DrainEvents, episodes)
	}
	total := uint64(episodes * (shedPerEp + deliverPerEp))
	// hot receives only the post-drain publishes; cold receive everything.
	if got := len(ep.sentTo(hot)); got != episodes*deliverPerEp {
		t.Fatalf("hot received %d events, want %d", got, episodes*deliverPerEp)
	}
	for _, d := range cold {
		if got := len(ep.sentTo(d)); got != int(total) {
			t.Fatalf("cold %s received %d events, want %d", d.Short(), got, total)
		}
	}
	if want := uint64(episodes*deliverPerEp) + total*uint64(len(cold)); st.ClientDelivers != want {
		t.Fatalf("ClientDelivers = %d, want %d", st.ClientDelivers, want)
	}
}
