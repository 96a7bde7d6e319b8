package pubsub

import (
	"math/rand"
	"testing"
	"time"

	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/vclock"
	"github.com/gloss/active/internal/wire"
)

// countEndpoint is a netapi.Endpoint that sends nothing: it counts what
// it is handed, by kind, without allocating, and reports one destination
// saturated so the broker sheds toward it. It has no local run queue, so
// the broker reaches its own client through Send like any other.
type countEndpoint struct {
	id        ids.ID
	rng       *rand.Rand
	saturated ids.ID
	pubs      int // PubMsg sends, one per destination
	delivers  int // DeliverMsg sends, one per destination
	local     int // DeliverMsg handed to the local run queue
}

func (e *countEndpoint) ID() ids.ID                    { return e.id }
func (e *countEndpoint) Info() netapi.NodeInfo         { return netapi.NodeInfo{ID: e.id} }
func (e *countEndpoint) Clock() vclock.Clock           { return nil }
func (e *countEndpoint) Rand() *rand.Rand              { return e.rng }
func (e *countEndpoint) Handle(string, netapi.Handler) {}
func (e *countEndpoint) Request(_ ids.ID, _ wire.Message, _ time.Duration, cb netapi.ReplyFunc) {
	cb(nil, netapi.ErrUnreachable)
}

func (e *countEndpoint) Send(_ ids.ID, msg wire.Message) {
	switch msg.(type) {
	case *PubMsg:
		e.pubs++
	case *DeliverMsg:
		e.delivers++
	}
}

func (e *countEndpoint) QueuedBytes(ids.ID) int   { return 0 }
func (e *countEndpoint) Saturated(to ids.ID) bool { return to == e.saturated }
func (e *countEndpoint) OnDrain(func(to ids.ID))  {}

// localCountEndpoint is a countEndpoint with the local run queue
// (netapi.LocalDeliverer), the TCP endpoint's shape: the broker hands the
// delivery to its own client to DeliverLocal instead of sending it.
type localCountEndpoint struct{ *countEndpoint }

func (e localCountEndpoint) DeliverLocal(msg wire.Message) {
	if _, ok := msg.(*DeliverMsg); ok {
		e.local++
	}
}

// TestHandlePubAllocs: a publish allocates only the messages it hands
// over — one per message kind sent, however wide the fan-out and whatever
// mix of neighbours, clients, a detached proxy, a shed destination and
// the broker's own node it reaches, plus one for a delivery queued on the
// local run queue. The working set (target set, order, per-kind lists,
// index visitor) is the broker's and is reused. Both endpoint shapes are
// counted: one without the local run queue, where the broker's own node
// is sent to like any client, and one with it.
func TestHandlePubAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds do not hold under -race")
	}
	t.Run("send-to-self", func(t *testing.T) { testHandlePubAllocs(t, false) })
	t.Run("local-run-queue", func(t *testing.T) { testHandlePubAllocs(t, true) })
}

func testHandlePubAllocs(t *testing.T, local bool) {
	self := ids.FromString("alloc-broker")
	ep := &countEndpoint{id: self, rng: rand.New(rand.NewSource(1)), saturated: ids.FromString("alloc-shed")}
	var nep netapi.Endpoint = ep
	if local {
		nep = localCountEndpoint{ep}
	}
	// A one-slot proxy buffer fills on the warm-up run; later runs count
	// a drop, which allocates nothing.
	b := NewBroker(nep, Options{proxyBufferLimit: 1})
	nbor := []ids.ID{ids.FromString("alloc-nbor-0"), ids.FromString("alloc-nbor-1")}
	for _, n := range nbor {
		b.AddNeighbor(n)
	}
	client := []ids.ID{ids.FromString("alloc-client-0"), ids.FromString("alloc-client-1"), ids.FromString("alloc-client-2")}
	proxied := ids.FromString("alloc-proxied")
	b.handleDetach(nil, proxied, &DetachMsg{})
	publisher := ids.FromString("alloc-publisher")

	sub := func(typ string, from ...ids.ID) {
		for _, d := range from {
			b.Subscribe(d, NewFilter(TypeIs(typ)))
		}
	}
	sub("only.sender", client[0])
	sub("width.1", client[0])
	sub("width.2", nbor[0], client[1])
	sub("width.2.silent", proxied, ep.saturated)
	sub("only.self", self)
	sub("width.8", nbor[0], nbor[1], client[0], client[1], client[2], self, proxied, ep.saturated)
	// A second entry over the same directions: targets are distinct
	// destinations, not matched entries.
	b.Subscribe(client[0], NewFilter(TypeIs("width.8"), Eq("n", event.I(1))))

	cases := []struct {
		name           string
		typ            string
		from           ids.ID
		pubs, delivers int  // destinations of each kind, the broker's own node included
		toSelf         bool // the broker's own node is among the delivers
	}{
		{"matches nothing", "unsubscribed", publisher, 0, 0, false},
		{"matches only its sender", "only.sender", client[0], 0, 0, false},
		{"fan-out of 1", "width.1", publisher, 0, 1, false},
		{"fan-out of 2", "width.2", publisher, 1, 1, false},
		{"fan-out of 2 to a proxy and a shed client", "width.2.silent", publisher, 0, 0, false},
		{"fan-out of 1 to its own node", "only.self", publisher, 0, 1, true},
		{"fan-out of 8", "width.8", publisher, 2, 4, true},
		{"fan-out of 8 arriving from a neighbour", "width.8", nbor[1], 1, 4, true},
	}
	for _, tc := range cases {
		ev := event.New(tc.typ, "alloc", 0).Set("n", event.I(1)).Stamp(1).Freeze()
		pub := &PubMsg{Event: ev}
		publish := func() { b.handlePub(nil, tc.from, pub) }

		wantSent, wantLocal := tc.delivers, 0
		if local && tc.toSelf {
			wantSent, wantLocal = tc.delivers-1, 1
		}
		ep.pubs, ep.delivers, ep.local = 0, 0, 0
		publish()
		if ep.pubs != tc.pubs || ep.delivers != wantSent || ep.local != wantLocal {
			t.Errorf("%s: sent %d pubs and %d delivers and queued %d locally, want %d, %d and %d",
				tc.name, ep.pubs, ep.delivers, ep.local, tc.pubs, wantSent, wantLocal)
		}
		msgs := float64(wantLocal)
		if tc.pubs > 0 {
			msgs++
		}
		if wantSent > 0 {
			msgs++
		}
		if n := testing.AllocsPerRun(200, publish); n != msgs {
			t.Errorf("%s: %.1f allocs per publish, want %v: one message per kind sent, one per local delivery", tc.name, n, msgs)
		}
	}
}
