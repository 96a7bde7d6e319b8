package pubsub

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/simnet"
)

// renderEvent serialises everything observable about a delivered event so
// the clone-vs-borrow differential can compare delivery contents exactly.
func renderEvent(e *event.Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|%s|%d|", e.ID, e.Type, e.Source, e.Time)
	for _, name := range e.Attrs.Names() {
		v := e.Attrs[name]
		fmt.Fprintf(&b, "%s=%s:%s;", name, v.K, v.String())
	}
	b.WriteString("|" + e.Body)
	return b.String()
}

var fanoutTypes = []string{"gps.location", "weather.report", "meta.gauges", "suggestion.meet"}

func randomFanoutFilter(rng *rand.Rand) Filter {
	cs := []Constraint{TypeIs(fanoutTypes[rng.Intn(len(fanoutTypes))])}
	if rng.Intn(2) == 0 {
		cs = append(cs, Eq("user", event.S(fmt.Sprintf("user-%d", rng.Intn(3)))))
	}
	if rng.Intn(3) == 0 {
		cs = append(cs, Gt("x", event.F(float64(rng.Intn(50)))))
	}
	return NewFilter(cs...)
}

func randomFanoutEvent(rng *rand.Rand, seq uint64) *event.Event {
	ev := event.New(fanoutTypes[rng.Intn(len(fanoutTypes))], fmt.Sprintf("src-%d", rng.Intn(4)), time.Duration(seq)).
		Set("user", event.S(fmt.Sprintf("user-%d", rng.Intn(3)))).
		Set("x", event.F(float64(rng.Intn(100))))
	if rng.Intn(4) == 0 {
		ev.SetBody(fmt.Sprintf("<payload n=\"%d\"/>", rng.Intn(1000)))
	}
	return ev.Stamp(seq)
}

// runFanoutWorkload drives a randomized publish workload over a small
// broker tree. got is every delivery as "client|content", sorted; want is
// the reference: for each publish, a detached copy taken before the event
// entered the network, rendered once per client whose filter it matches —
// what a copy-per-delivery fan-out would have handed over. clones sums
// Stats.EventClones over the brokers.
func runFanoutWorkload(seed int64) (got, want []string, clones uint64) {
	rng := rand.New(rand.NewSource(seed))
	tn := newChain(seed, 3, Options{})
	const nClients = 10
	filters := make([]Filter, nClients)
	for i := 0; i < nClients; i++ {
		c := tn.addClient(rng.Intn(len(tn.brokers)))
		idx := i
		filters[i] = randomFanoutFilter(rng)
		c.Subscribe(filters[i], func(e *event.Event) {
			got = append(got, fmt.Sprintf("c%d|%s", idx, renderEvent(e)))
		})
	}
	tn.settle()
	for i := 0; i < 80; i++ {
		pub := tn.clients[rng.Intn(len(tn.clients))]
		ev := randomFanoutEvent(rng, uint64(i))
		ref := ev.CloneDetached()
		for ci, f := range filters {
			if f.Matches(ref) {
				want = append(want, fmt.Sprintf("c%d|%s", ci, renderEvent(ref)))
			}
		}
		pub.Publish(ev)
	}
	tn.settle()
	for _, br := range tn.brokers {
		clones += br.Stats().EventClones
	}
	sort.Strings(got)
	sort.Strings(want)
	return got, want, clones
}

// TestFanoutBorrowVsCloneDifferential is the aliasing-safety property
// test: under randomized workloads, borrow fan-out (one frozen event
// shared by every delivery) must hand every subscriber exactly what a
// private copy made at publish time would have held — same clients, same
// contents, byte for byte — without making a single copy.
func TestFanoutBorrowVsCloneDifferential(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		borrow, clone, clones := runFanoutWorkload(seed)
		if len(borrow) == 0 {
			t.Fatalf("seed %d: workload produced no deliveries (vacuous)", seed)
		}
		if len(borrow) != len(clone) {
			t.Fatalf("seed %d: borrow delivered %d, clone reference %d", seed, len(borrow), len(clone))
		}
		for i := range borrow {
			if borrow[i] != clone[i] {
				t.Fatalf("seed %d: delivery %d diverges\nborrow: %s\nclone:  %s", seed, i, borrow[i], clone[i])
			}
		}
		if clones != 0 {
			t.Fatalf("seed %d: brokers made %d event copies, want 0", seed, clones)
		}
	}
}

// TestFrozenEventImmuneToMisbehavingSubscriber proves a delivered event
// cannot be corrupted: in-place mutation panics, and every other
// subscriber still observes the original contents. The sanctioned routes
// — Mutable and CloneDetached — hand back writable copies that leave the
// shared event untouched.
func TestFrozenEventImmuneToMisbehavingSubscriber(t *testing.T) {
	tn := newChain(3, 1, Options{})
	evil := tn.addClient(0)
	victim := tn.addClient(0)
	pub := tn.addClient(0)

	var evilPanic any
	evil.Subscribe(NewFilter(TypeIs("t")), func(e *event.Event) {
		if !e.Frozen() {
			t.Errorf("delivered event not frozen")
		}
		// The sanctioned escape hatches must work and stay detached.
		m := e.Mutable()
		if m == e {
			t.Errorf("Mutable returned the shared frozen event itself")
		}
		m.Set("user", event.S("mallory"))
		e.CloneDetached().Set("user", event.S("also-mallory"))
		// In-place mutation of the shared event must panic.
		defer func() { evilPanic = recover() }()
		//vetactive:ignore frozenmut deliberately mutates a frozen event to assert the panic
		e.Set("user", event.S("mallory"))
	})
	var got []string
	victim.Subscribe(NewFilter(TypeIs("t")), func(e *event.Event) {
		got = append(got, e.GetString("user"))
	})
	tn.settle()
	pub.Publish(event.New("t", "src", 0).Set("user", event.S("alice")).Stamp(1))
	tn.settle()

	if evilPanic == nil {
		t.Fatal("mutating a frozen delivered event did not panic")
	}
	if len(got) != 1 || got[0] != "alice" {
		t.Fatalf("victim saw %v, want [alice]", got)
	}
}

// TestFanoutSharesOneEvent pins the zero-copy mechanics: every local
// subscriber receives the same *Event value and the broker makes zero
// clones.
func TestFanoutSharesOneEvent(t *testing.T) {
	tn := newChain(4, 1, Options{})
	const subs = 6
	var seen []*event.Event
	for i := 0; i < subs; i++ {
		c := tn.addClient(0)
		c.Subscribe(NewFilter(TypeIs("hot")), func(e *event.Event) { seen = append(seen, e) })
	}
	pub := tn.addClient(0)
	tn.settle()
	pub.Publish(event.New("hot", "src", 0).Set("x", event.F(1)).Stamp(1))
	tn.settle()
	if len(seen) != subs {
		t.Fatalf("delivered %d, want %d", len(seen), subs)
	}
	for _, e := range seen[1:] {
		if e != seen[0] {
			t.Fatal("fan-out copied the event: subscribers saw distinct values")
		}
	}
	if st := tn.brokers[0].Stats(); st.EventClones != 0 {
		t.Fatalf("fan-out made %d clones, want 0", st.EventClones)
	}
}

// TestProxyBufferSafeUnderBorrow: events buffered for a detached client
// are frozen shared values; replay after reattach must deliver original
// contents even if a connected subscriber received (and could have tried
// to corrupt) the same event values meanwhile.
func TestProxyBufferSafeUnderBorrow(t *testing.T) {
	tn := newChain(5, 1, Options{})
	mobile := tn.addClient(0)
	fixed := tn.addClient(0)
	pub := tn.addClient(0)
	var replayed []string
	mobile.Subscribe(NewFilter(TypeIs("t")), func(e *event.Event) {
		replayed = append(replayed, e.GetString("user"))
	})
	fixed.Subscribe(NewFilter(TypeIs("t")), func(e *event.Event) {
		defer func() { _ = recover() }()
		//vetactive:ignore frozenmut deliberately mutates a frozen event to assert the panic
		e.Set("user", event.S("corrupted"))
	})
	tn.settle()
	mobile.Detach()
	tn.settle()
	pub.Publish(event.New("t", "src", 0).Set("user", event.S("bob")).Stamp(7))
	tn.settle()
	done := false
	mobile.AttachTo(tn.brokers[0].ID(), 5*time.Second, func(dropped int, err error) {
		if err != nil || dropped != 0 {
			t.Errorf("reclaim: dropped=%d err=%v", dropped, err)
		}
		done = true
	})
	tn.settle()
	if !done {
		t.Fatal("handoff never completed")
	}
	if len(replayed) != 1 || replayed[0] != "bob" {
		t.Fatalf("replayed %v, want [bob]", replayed)
	}
}

// BenchmarkFanout measures the per-publish delivery path at growing
// fan-out. clones/delivery must read exactly 0: local delivery to
// read-only subscribers is zero-copy, allocations independent of width.
func BenchmarkFanout(b *testing.B) {
	from := ids.FromString("bench-fanout-src")
	for _, fanout := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) {
			ep := &nullEndpoint{id: ids.FromString("bench-fanout"), rng: rand.New(rand.NewSource(3))}
			br := NewBroker(ep, Options{})
			for i := 0; i < fanout; i++ {
				br.subscribe(ids.FromString(fmt.Sprintf("sub-%d", i)), NewFilter(TypeIs("hot")))
			}
			ev := event.New("hot", "bench", 0).
				Set("user", event.S("user-1")).
				Set("x", event.F(4.5)).
				Stamp(1)
			msg := &PubMsg{Event: ev}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				br.handlePub(nil, from, msg)
			}
			b.StopTimer()
			st := br.Stats()
			if st.ClientDelivers > 0 {
				b.ReportMetric(float64(st.EventClones)/float64(st.ClientDelivers), "clones/delivery")
			}
		})
	}
}

// BenchmarkFanoutWorld exercises the whole stack — publish, broker
// matching, simulated delivery with batching — under DisableJitter, the
// configuration for million-message runs.
func BenchmarkFanoutWorld(b *testing.B) {
	for _, fanout := range []int{8, 64} {
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) {
			w := simnet.NewWorld(simnet.Config{Seed: 11, DisableJitter: true})
			bn := w.NewNode(ids.FromString("bench-broker"), "eu", netapi.Coord{})
			br := NewBroker(bn, Options{})
			clients := make([]*Client, fanout)
			for i := range clients {
				cn := w.NewNode(ids.FromString(fmt.Sprintf("bench-cl-%d", i)), "eu", netapi.Coord{X: 1})
				clients[i] = NewClient(cn, br.ID())
				clients[i].Subscribe(NewFilter(TypeIs("hot")), func(*event.Event) {})
			}
			pn := w.NewNode(ids.FromString("bench-pub"), "eu", netapi.Coord{X: 2})
			pub := NewClient(pn, br.ID())
			w.RunFor(time.Second)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pub.Publish(event.New("hot", "bench", w.Now()).Set("x", event.F(1)).Stamp(uint64(i)))
				w.RunFor(10 * time.Millisecond)
			}
		})
	}
}

// TestFanoutPerSourceFIFOTwoPublishers pins per-source FIFO through one
// broker: two publishers interleave publishes toward nine subscribers,
// and every subscriber must be sent each source's events in publish
// order.
func TestFanoutPerSourceFIFOTwoPublishers(t *testing.T) {
	ep := newBPEndpoint("fifo-broker")
	b := NewBroker(ep, Options{})

	f := NewFilter(TypeIs("fifo.evt"))
	var subs []ids.ID
	for i := 0; i < 9; i++ {
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
