package netapi_test

import (
	"encoding/xml"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/simnet"
	"github.com/gloss/active/internal/transport"
	"github.com/gloss/active/internal/wire"
)

// The cases below hold both substrates to one contract for a send to
// self — a Send, a SendMany destination among remote ones, a Request and
// its reply — issued from a handler and from a timer. Each message
// reaches its handler with from == ID(), runs after the callback that
// sent it and before the node's next arrival, and is not a network send
// (simnet's Metrics().Sent, transport's Stats().Sent).
//
// The loop-only cases hold them to the rule for a send to another node:
// a Send or a Request made on the loop has left the loop toward its peer
// before it returns, inside the callback that made it, with no hop
// through anything the loop must first run. The rows read a count the
// send path bumps on the loop itself (rig.onLoop): a TCP writer that
// drains the frame at once cannot take that back, as it can take back
// QueuedBytes.

type probeMsg struct {
	Text string `xml:"text,attr"`
}

func (probeMsg) Kind() string { return "conf.probe" }

// probesEncoded counts probe encodes. The TCP transport encodes a frame
// on the loop, in the send that queues it.
var probesEncoded atomic.Uint64

// MarshalXML counts the encode, then writes the probe as encoding/xml
// would.
func (m *probeMsg) MarshalXML(e *xml.Encoder, start xml.StartElement) error {
	probesEncoded.Add(1)
	type plain probeMsg
	return e.EncodeElement((*plain)(m), start)
}

type goMsg struct{}

func (goMsg) Kind() string { return "conf.go" }

type nextMsg struct{}

func (nextMsg) Kind() string { return "conf.next" }

// journal is what ran on the node under test, in order.
type journal struct {
	mu      sync.Mutex
	entries []string
}

func (j *journal) add(e string) {
	j.mu.Lock()
	j.entries = append(j.entries, e)
	j.mu.Unlock()
}

func (j *journal) read() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]string(nil), j.entries...)
}

// rig is one substrate with the node under test and two remote peers.
type rig struct {
	self  netapi.Endpoint
	peers []netapi.Endpoint
	// callback runs issue on self as one callback — the handler of a
	// message from the first peer, or a timer — with an arrival queued
	// behind it whose handling runs next. It returns the network sends
	// it made itself.
	callback func(fromTimer bool, issue, next func()) uint64
	// sent is the substrate's count of network sends.
	sent func() uint64
	// onLoop is a count of network sends that the send path bumps on the
	// loop, so a callback may read it.
	onLoop func() uint64
	// until runs the substrate until done holds, or fails t.
	until func(t *testing.T, done func() bool)
}

func simRig(t *testing.T) *rig {
	w := simnet.NewWorld(simnet.Config{Seed: 1, DisableJitter: true})
	self := w.NewNode(ids.FromString("conf-self"), "eu", netapi.Coord{})
	p0 := w.NewNode(ids.FromString("conf-p0"), "eu", netapi.Coord{X: 100})
	p1 := w.NewNode(ids.FromString("conf-p1"), "eu", netapi.Coord{X: 200})
	return &rig{
		self:  self,
		peers: []netapi.Endpoint{p0, p1},
		callback: func(fromTimer bool, issue, next func()) uint64 {
			self.Handle("conf.next", func(netapi.Ctx, ids.ID, wire.Message) { next() })
			if fromTimer {
				// Due at the instant the next message lands, and ahead of it.
				self.Clock().After(w.Latency(p0.ID(), self.ID()), issue)
				p0.Send(self.ID(), &nextMsg{})
				return 1
			}
			self.Handle("conf.go", func(netapi.Ctx, ids.ID, wire.Message) { issue() })
			p0.Send(self.ID(), &goMsg{})
			p0.Send(self.ID(), &nextMsg{})
			return 2
		},
		sent:   func() uint64 { return w.Metrics().Sent },
		onLoop: func() uint64 { return w.Metrics().Sent },
		until: func(t *testing.T, done func() bool) {
			for i := 0; !done(); i++ {
				if i == 1000 {
					t.Fatal("simnet: not done after 10 virtual seconds")
				}
				w.RunFor(10 * time.Millisecond)
			}
		},
	}
}

func tcpRig(t *testing.T) *rig {
	reg := wire.NewRegistry()
	transport.RegisterMessages(reg)
	for _, m := range []wire.Message{&probeMsg{}, &goMsg{}, &nextMsg{}} {
		reg.Register(m)
	}
	listen := func(name string) *transport.Node {
		n, err := transport.Listen(ids.FromString(name), reg, transport.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		return n
	}
	self, p0, p1 := listen("conf-self"), listen("conf-p0"), listen("conf-p1")
	self.AddPeer(p0.ID(), p0.Addr())
	self.AddPeer(p1.ID(), p1.Addr())
	p0.AddPeer(self.ID(), self.Addr())
	return &rig{
		self:  self,
		peers: []netapi.Endpoint{p0, p1},
		callback: func(fromTimer bool, issue, next func()) uint64 {
			// The callback holds the actor loop until the next arrival is
			// in the inbox. Every arrival is an inbox post, so a Do stands
			// for the next received message.
			parked, release := make(chan struct{}), make(chan struct{})
			run := func() {
				close(parked)
				<-release
				issue()
			}
			if fromTimer {
				self.Clock().After(time.Millisecond, run)
			} else {
				self.Handle("conf.go", func(netapi.Ctx, ids.ID, wire.Message) { run() })
				p0.Do(func() { p0.Send(self.ID(), &goMsg{}) })
			}
			<-parked
			self.Do(next)
			close(release)
			return 0
		},
		// Stats rides the loop, so a callback counts encodes instead.
		sent:   func() uint64 { return self.Stats().Sent },
		onLoop: probesEncoded.Load,
		until: func(t *testing.T, done func() bool) {
			deadline := time.Now().Add(10 * time.Second)
			for !done() {
				if time.Now().After(deadline) {
					t.Fatal("transport: not done after 10 s")
				}
				time.Sleep(time.Millisecond)
			}
		},
	}
}

// selfCase is one way to address the node itself, or a loop-only send
// to another node.
type selfCase struct {
	name   string
	issue  func(r *rig, j *journal)
	remote uint64   // network sends the case makes
	during []string // what the callback logs itself
	want   []string // what runs between the callback and the next arrival
}

// sentOnLoop runs send, which addresses the second peer, and logs
// whether the substrate counted it as a network send before it returned.
func sentOnLoop(r *rig, j *journal, send func()) {
	before := r.onLoop()
	send()
	if r.onLoop() > before {
		j.add("sent toward p1")
	} else {
		j.add("nothing sent toward p1")
	}
}

var selfCases = []selfCase{
	{"Send", func(r *rig, _ *journal) {
		r.self.Send(r.self.ID(), &probeMsg{Text: "send"})
	}, 0, nil, []string{"probe send"}},
	{"SendMany", func(r *rig, _ *journal) {
		r.self.SendMany([]ids.ID{r.peers[0].ID(), r.self.ID(), r.peers[1].ID()}, &probeMsg{Text: "many"})
	}, 2, nil, []string{"probe many"}},
	{"Request", func(r *rig, j *journal) {
		r.self.Request(r.self.ID(), &probeMsg{Text: "ask"}, 5*time.Second, func(reply wire.Message, err error) {
			if err != nil {
				j.add("reply error " + err.Error())
				return
			}
			j.add("reply " + reply.(*probeMsg).Text)
		})
	}, 0, nil, []string{"probe ask", "reply re ask"}},
	{"RemoteSend", func(r *rig, j *journal) {
		sentOnLoop(r, j, func() { r.self.Send(r.peers[1].ID(), &probeMsg{Text: "out"}) })
	}, 1, []string{"sent toward p1"}, nil},
	{"RemoteRequest", func(r *rig, j *journal) {
		// The peers answer nothing; the request outlives the test.
		sentOnLoop(r, j, func() {
			r.self.Request(r.peers[1].ID(), &probeMsg{Text: "ask out"}, time.Minute, func(wire.Message, error) {})
		})
	}, 1, []string{"sent toward p1"}, nil},
}

func TestSelfDeliveryConformance(t *testing.T) {
	for _, sub := range []struct {
		name  string
		build func(*testing.T) *rig
	}{{"simnet", simRig}, {"transport", tcpRig}} {
		for _, c := range selfCases {
			for _, fromTimer := range []bool{false, true} {
				from := "handler"
				if fromTimer {
					from = "timer"
				}
				t.Run(sub.name+"/"+c.name+"/"+from, func(t *testing.T) {
					testSelfDelivery(t, sub.build(t), c, fromTimer)
				})
			}
		}
	}
}

func testSelfDelivery(t *testing.T, r *rig, c selfCase, fromTimer bool) {
	j := &journal{}
	var remote atomic.Int32 // probes the peers received
	probe := func(self bool) netapi.Handler {
		return func(ctx netapi.Ctx, from ids.ID, msg wire.Message) {
			text := msg.(*probeMsg).Text
			if !self {
				remote.Add(1)
				return
			}
			if from != r.self.ID() {
				text += fmt.Sprintf(" from %s", from.Short())
			}
			j.add("probe " + text)
			ctx.Reply(&probeMsg{Text: "re " + text}) // a no-op for a one-way message
		}
	}
	r.self.Handle("conf.probe", probe(true))
	for _, ep := range r.peers {
		ep.Handle("conf.probe", probe(false))
	}
	before := r.sent()
	own := r.callback(fromTimer, func() {
		c.issue(r, j)
		j.add("callback done")
	}, func() { j.add("next") })
	want := slices.Concat(c.during, []string{"callback done"}, c.want, []string{"next"})
	r.until(t, func() bool { return len(j.read()) >= len(want) && remote.Load() == int32(c.remote) })
	if got := j.read(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ran %q, want %q", got, want)
	}
	if got, want := r.sent()-before, own+c.remote; got != want {
		t.Fatalf("%d network sends, want %d: the %d the rig made and the %d to remote nodes", got, want, own, c.remote)
	}
}
