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
	"github.com/gloss/active/internal/vclock"
	"github.com/gloss/active/internal/wire"
)

// concEndpoint is a scriptable netapi.Endpoint that advertises
// ConcurrentSend, so the broker's fan-out pool engages against it. Sends
// may arrive from any worker goroutine; the endpoint records them in a
// per-destination arrival-order log, which is exactly the observable the
// FIFO and differential tests compare. It also implements Backpressured
// with scriptable saturation for the shed/drain seam tests.
type concEndpoint struct {
	id  ids.ID
	rng *rand.Rand

	mu        sync.Mutex
	log       map[ids.ID][]wire.Message // per-destination arrival order
	saturated map[ids.ID]bool
	drainFns  []func(ids.ID)
}

func newConcEndpoint(name string) *concEndpoint {
	return &concEndpoint{
		id:        ids.FromString(name),
		rng:       rand.New(rand.NewSource(5)),
		log:       make(map[ids.ID][]wire.Message),
		saturated: make(map[ids.ID]bool),
	}
}

func (e *concEndpoint) ID() ids.ID            { return e.id }
func (e *concEndpoint) Info() netapi.NodeInfo { return netapi.NodeInfo{ID: e.id} }
func (e *concEndpoint) Clock() vclock.Clock   { return nil }
func (e *concEndpoint) Rand() *rand.Rand      { return e.rng }
func (e *concEndpoint) Send(to ids.ID, msg wire.Message) {
	e.mu.Lock()
	e.log[to] = append(e.log[to], msg)
	e.mu.Unlock()
}
func (e *concEndpoint) Request(to ids.ID, msg wire.Message, timeout time.Duration, cb netapi.ReplyFunc) {
	cb(nil, netapi.ErrUnreachable)
}
func (e *concEndpoint) Handle(string, netapi.Handler) {}

func (e *concEndpoint) ConcurrentSends() bool { return true }

func (e *concEndpoint) QueuedBytes(to ids.ID) int {
	if e.Saturated(to) {
		return 1 << 20
	}
	return 0
}
func (e *concEndpoint) Saturated(to ids.ID) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.saturated[to]
}
func (e *concEndpoint) OnDrain(fn func(to ids.ID)) { e.drainFns = append(e.drainFns, fn) }

func (e *concEndpoint) setSaturated(to ids.ID, v bool) {
	e.mu.Lock()
	e.saturated[to] = v
	e.mu.Unlock()
}

// fireDrain invokes the drain callbacks the way a real endpoint does: on
// the callback goroutine (here, the test goroutine driving the actor).
func (e *concEndpoint) fireDrain(to ids.ID) {
	for _, fn := range e.drainFns {
		fn(to)
	}
}

// sentTo snapshots the arrival-order log for one destination.
func (e *concEndpoint) sentTo(to ids.ID) []wire.Message {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]wire.Message(nil), e.log[to]...)
}

// destLine renders one destination's log as "kind:eventID" in arrival
// order — the comparison key for the parallel-vs-serial differential.
func (e *concEndpoint) destLine(to ids.ID) []string {
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

// TestFanoutPoolCapabilityGate pins when the pool engages: never without
// ConcurrentSend (bpEndpoint), never with FanoutWorkers = 1, otherwise on.
func TestFanoutPoolCapabilityGate(t *testing.T) {
	if b := NewBroker(newBPEndpoint("gate-serial-ep"), Options{FanoutWorkers: 8}); b.pool != nil {
		t.Fatal("pool engaged over an endpoint without ConcurrentSend")
	}
	if b := NewBroker(newConcEndpoint("gate-w1"), Options{FanoutWorkers: 1}); b.pool != nil {
		t.Fatal("pool engaged with FanoutWorkers = 1 (serial reference)")
	}
	b := NewBroker(newConcEndpoint("gate-w4"), Options{FanoutWorkers: 4})
	if b.pool == nil {
		t.Fatal("pool did not engage with FanoutWorkers = 4 over a concurrent endpoint")
	}
	if got := len(b.pool.workers); got != 4 {
		t.Fatalf("pool has %d workers, want 4", got)
	}
	b.Close()
	if b.pool != nil {
		t.Fatal("Close did not clear the pool")
	}
}

// localConcEndpoint is a concEndpoint with the local run queue
// (netapi.LocalDeliverer): what is queued there is logged like a send to
// the node itself, so both kinds of endpoint keep comparable logs.
type localConcEndpoint struct{ *concEndpoint }

func (e localConcEndpoint) DeliverLocal(msg wire.Message) { e.Send(e.id, msg) }

// fanoutParWorld is one side of the parallel-vs-serial differential: a
// standalone broker over a concEndpoint with a fixed cast of subscribers,
// neighbours and publishers.
type fanoutParWorld struct {
	ep     *concEndpoint
	b      *Broker
	subs   []ids.ID
	nbors  []ids.ID
	pubsrc []ids.ID
}

// newFanoutParWorld builds one side; local gives its endpoint the local
// run queue.
func newFanoutParWorld(name string, workers int, local bool) *fanoutParWorld {
	w := &fanoutParWorld{ep: newConcEndpoint(name)}
	var ep netapi.Endpoint = w.ep
	if local {
		ep = localConcEndpoint{w.ep}
	}
	w.b = NewBroker(ep, Options{FanoutWorkers: workers})
	for i := 0; i < 12; i++ {
		w.subs = append(w.subs, ids.FromString(fmt.Sprintf("fp-sub-%d", i)))
	}
	for i := 0; i < 3; i++ {
		n := ids.FromString(fmt.Sprintf("fp-nbor-%d", i))
		w.nbors = append(w.nbors, n)
		w.b.AddNeighbor(n)
	}
	w.pubsrc = []ids.ID{ids.FromString("fp-pub-a"), ids.FromString("fp-pub-b")}
	return w
}

// TestBrokerDifferentialFanoutWorkersVsSerial is the tentpole property
// test: under a randomized workload with subscription churn, saturation
// episodes and drains, a broker fanning out through N workers must be
// observably identical to the serial reference — same per-destination
// message sequences (FIFO included), same Stats, same forwarding state.
// That covers what the pooled side does without its pool: the broker's
// own node is a subscriber and leaves the target set for the local run
// queue (local) or a send-to-self from the actor (the capability hidden,
// as behind the benchmark's spy), and a fan-out of one — sub 0 alone
// takes "fp.solo", which alternates with wide publishes that reach sub 0
// too — is sent inline when sub 0's worker is idle and pooled when not.
// The serial side has neither the pool nor the run queue.
func TestBrokerDifferentialFanoutWorkersVsSerial(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for _, local := range []bool{true, false} {
				t.Run(fmt.Sprintf("local=%v", local), func(t *testing.T) {
					testFanoutWorkersVsSerial(t, workers, local)
				})
			}
		})
	}
}

func testFanoutWorkersVsSerial(t *testing.T, workers int, local bool) {
	par := newFanoutParWorld(fmt.Sprintf("fp-par-%d", workers), workers, local)
	ser := newFanoutParWorld(fmt.Sprintf("fp-ser-%d", workers), 1, false)
	if par.b.pool == nil || (par.b.local != nil) != local {
		t.Fatal("parallel side has no pool, or not the run queue asked for; differential is vacuous")
	}
	if ser.b.pool != nil || ser.b.local != nil {
		t.Fatal("serial side has a pool or a local run queue")
	}
	worlds := []*fanoutParWorld{par, ser}

	rng := rand.New(rand.NewSource(int64(1000 + workers)))
	// Subscriptions: every subscriber, every neighbour and the broker's
	// own node take a few random filters, which only "wide" events can
	// match; sub 0, neighbour 0 and the node itself each take every wide
	// event and one type nobody shares. Identical on both sides.
	solo := func(w *fanoutParWorld) map[string]ids.ID {
		return map[string]ids.ID{"fp.solo": w.subs[0], "fp.nbor": w.nbors[0], "fp.self": w.ep.id}
	}
	dests := func(w *fanoutParWorld) []ids.ID {
		return append(append(append([]ids.ID(nil), w.subs...), w.nbors...), w.ep.id)
	}
	for _, w := range worlds {
		sub := rand.New(rand.NewSource(7))
		for _, d := range dests(w) {
			for k := 0; k < 3; k++ {
				f := ixRandFilter(sub)
				w.b.subscribe(d, NewFilter(append(f.Constraints, Exists("wide"))...))
			}
		}
		for _, typ := range []string{"fp.solo", "fp.nbor", "fp.self"} {
			w.b.subscribe(solo(w)[typ], NewFilter(TypeIs(typ)))
			w.b.subscribe(solo(w)[typ], NewFilter(Exists("wide")))
		}
	}

	inlineable := 0
	for i := 0; i < 600; i++ {
		// Occasionally toggle saturation on a random subscriber, or
		// drain it — scripted identically against both endpoints so
		// shed decisions (taken on the actor loop at publish time)
		// must agree.
		switch rng.Intn(10) {
		case 0:
			d := par.subs[rng.Intn(len(par.subs))]
			for _, w := range worlds {
				w.ep.setSaturated(d, true)
			}
		case 1:
			d := par.subs[rng.Intn(len(par.subs))]
			for _, w := range worlds {
				w.ep.setSaturated(d, false)
				w.ep.fireDrain(d)
			}
		}
		var ev *event.Event
		switch i % 6 {
		case 1:
			ev = event.New("fp.solo", "solo", 0).Stamp(uint64(i))
		case 3:
			ev = event.New("fp.self", "solo", 0).Stamp(uint64(i))
		case 5:
			ev = event.New("fp.nbor", "solo", 0).Stamp(uint64(i))
		default:
			ev = ixRandEvent(rng, uint64(i)).Set("wide", event.B(true))
		}
		src := rng.Intn(len(par.pubsrc))
		before := ser.b.Stats()
		for _, w := range worlds {
			w.b.handlePub(nil, w.pubsrc[src], &PubMsg{Event: ev.Clone()})
		}
		after := ser.b.Stats()
		if i%6 == 1 || i%6 == 5 {
			inlineable += int(after.ClientDelivers - before.ClientDelivers + after.NeighborFwds - before.NeighborFwds)
		}
	}
	for _, w := range worlds {
		w.b.DrainFanout()
	}
	if inlineable < 100 {
		t.Fatalf("only %d publishes had a fan-out of one; the inline path is untested (vacuous)", inlineable)
	}

	// Per-destination send sequences must match exactly — this is
	// both the delivery-set check and the per-destination FIFO
	// check (order matters, no sorting).
	pd, sd := dests(par), dests(ser)
	for k := range pd {
		gp, gs := par.ep.destLine(pd[k]), ser.ep.destLine(sd[k])
		if len(gp) != len(gs) {
			t.Fatalf("dest %s: parallel sent %d, serial %d", pd[k].Short(), len(gp), len(gs))
		}
		if mixed := pd[k] == par.subs[0] || pd[k] == par.nbors[0] || pd[k] == par.ep.id; mixed && len(gp) < 150 {
			t.Fatalf("dest %s, which takes both widths, was sent only %d messages (vacuous)", pd[k].Short(), len(gp))
		}
		for i := range gp {
			if gp[i] != gs[i] {
				t.Fatalf("dest %s: send %d diverges: parallel %s, serial %s",
					pd[k].Short(), i, gp[i], gs[i])
			}
		}
	}
	if sp, ss := par.b.Stats(), ser.b.Stats(); sp != ss {
		t.Fatalf("stats diverge:\nparallel: %+v\nserial:   %+v", sp, ss)
	}
	if sp := par.b.Stats(); sp.ShedDeliveries == 0 {
		t.Fatal("workload never shed; saturation seam untested (vacuous)")
	}
	par.b.Close()
}

// TestFanoutPerSourceFIFOTwoPublishers pins the ordering guarantee the
// pool must preserve: two publishers interleave publishes through one
// broker toward one (plus several decoy) subscribers, and every
// subscriber must observe each source's events in publish order, even
// though sends run on concurrent workers.
func TestFanoutPerSourceFIFOTwoPublishers(t *testing.T) {
	ep := newConcEndpoint("fifo-broker")
	b := NewBroker(ep, Options{FanoutWorkers: 8})
	if b.pool == nil {
		t.Fatal("pool did not engage")
	}
	defer b.Close()

	f := NewFilter(TypeIs("fifo.evt"))
	var subs []ids.ID
	for i := 0; i < 9; i++ { // 9 subscribers spread across the 8 workers
		d := ids.FromString(fmt.Sprintf("fifo-sub-%d", i))
		subs = append(subs, d)
		b.subscribe(d, f)
	}
	srcs := []ids.ID{ids.FromString("fifo-pub-a"), ids.FromString("fifo-pub-b")}

	const perSource = 300
	rng := rand.New(rand.NewSource(21))
	next := []int{0, 0}
	for next[0] < perSource || next[1] < perSource {
		s := rng.Intn(2)
		if next[s] >= perSource {
			s = 1 - s
		}
		// Source and per-source sequence ride in the event itself.
		ev := event.New("fifo.evt", fmt.Sprintf("src-%d", s), 0).
			Set("seq", event.I(int64(next[s]))).
			Stamp(uint64(s*1_000_000 + next[s]))
		b.handlePub(nil, srcs[s], &PubMsg{Event: ev})
		next[s]++
	}
	b.DrainFanout()

	for _, d := range subs {
		msgs := ep.sentTo(d)
		if len(msgs) != 2*perSource {
			t.Fatalf("sub %s received %d events, want %d", d.Short(), len(msgs), 2*perSource)
		}
		last := map[string]int64{}
		for i, m := range msgs {
			ev := m.(*DeliverMsg).Event
			seq := int64(ev.GetNum("seq"))
			prev, ok := last[ev.Source]
			if !ok {
				prev = -1
			}
			if seq != prev+1 {
				t.Fatalf("sub %s: source %s FIFO violated at arrival %d: seq %d after %d",
					d.Short(), ev.Source, i, seq, prev)
			}
			last[ev.Source] = seq
		}
	}
}

// TestShedDrainSeamUnderFanout is the race-seam test for satellite (b):
// drain callbacks land on the actor loop while fan-out jobs are in
// flight on the workers, and neither ShedDeliveries nor DrainEvents may
// be lost or double-counted. The counts asserted are exact, and the test
// is in CI's -race step: any classification or bookkeeping that leaked
// off the actor loop would trip the detector.
func TestShedDrainSeamUnderFanout(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	ep := newConcEndpoint("seam-broker")
	b := NewBroker(ep, Options{FanoutWorkers: 4})
	if b.pool == nil {
		t.Fatal("pool did not engage")
	}
	defer b.Close()

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
		ep.setSaturated(hot, true)
		for i := 0; i < shedPerEp; i++ {
			publish() // sheds toward hot; cold fan-out keeps the pool busy
		}
		// The drain fires while this episode's jobs may still be in
		// flight on the workers — the seam under test.
		ep.setSaturated(hot, false)
		ep.fireDrain(hot)
		for i := 0; i < deliverPerEp; i++ {
			publish()
		}
	}
	b.DrainFanout()

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

// devnullConcEndpoint is the benchmark flavour of concEndpoint: it
// advertises ConcurrentSend but only counts sends atomically, so the
// measured cost is the broker pipeline, not a log mutex.
type devnullConcEndpoint struct {
	id   ids.ID
	rng  *rand.Rand
	sent atomic.Uint64
}

func (e *devnullConcEndpoint) ID() ids.ID            { return e.id }
func (e *devnullConcEndpoint) Info() netapi.NodeInfo { return netapi.NodeInfo{ID: e.id} }
func (e *devnullConcEndpoint) Clock() vclock.Clock   { return nil }
func (e *devnullConcEndpoint) Rand() *rand.Rand      { return e.rng }
func (e *devnullConcEndpoint) Send(ids.ID, wire.Message) {
	e.sent.Add(1)
}
func (e *devnullConcEndpoint) Request(to ids.ID, msg wire.Message, timeout time.Duration, cb netapi.ReplyFunc) {
	cb(nil, netapi.ErrUnreachable)
}
func (e *devnullConcEndpoint) Handle(string, netapi.Handler) {}
func (e *devnullConcEndpoint) ConcurrentSends() bool         { return true }

// BenchmarkFanoutWorkers measures the full publish pipeline (match +
// classification + fan-out) per publish as the worker count grows.
// workers=1 is the serial reference path. On a single-core runner the
// pooled rows show pure handoff overhead; with real cores they show the
// pipeline speedup E-T15 tables.
func BenchmarkFanoutWorkers(b *testing.B) {
	from := ids.FromString("bench-fw-src")
	for _, fanout := range []int{16, 64} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("fanout=%d/workers=%d", fanout, workers), func(b *testing.B) {
				ep := &devnullConcEndpoint{id: ids.FromString("bench-fw"), rng: rand.New(rand.NewSource(4))}
				br := NewBroker(ep, Options{FanoutWorkers: workers})
				defer br.Close()
				if workers > 1 && br.pool == nil {
					b.Fatal("pool did not engage")
				}
				f := NewFilter(TypeIs("hot"))
				for i := 0; i < fanout; i++ {
					br.subscribe(ids.FromString(fmt.Sprintf("fw-sub-%d", i)), f)
				}
				msg := &PubMsg{Event: event.New("hot", "bench", 0).
					Set("user", event.S("user-1")).
					Set("x", event.F(4.5)).
					Stamp(1)}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					br.handlePub(nil, from, msg)
				}
				br.DrainFanout()
				b.StopTimer()
				if got := ep.sent.Load(); got != uint64(b.N*fanout) {
					b.Fatalf("endpoint saw %d sends, want %d", got, uint64(b.N*fanout))
				}
			})
		}
	}
}
