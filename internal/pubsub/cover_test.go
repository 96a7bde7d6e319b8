package pubsub

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/simnet"
	"github.com/gloss/active/internal/wire"
)

// --- the oracle ---------------------------------------------------------------
//
// Until the incremental cover, the broker recomputed every neighbour's
// forwarding set from scratch on each unsubscribe: reconcileAll over
// minimalCover, an all-pairs Covers over the whole table. That path is
// kept here, out of shipped code, as the definition the cover is tested
// against.

func sortedFilterKeys(m map[string]Filter) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// minimalCover drops filters covered by another filter in the set. Among
// mutually covering filters the lexically smallest key survives.
func minimalCover(in map[string]Filter) map[string]Filter {
	out := make(map[string]Filter, len(in))
	for key, f := range in {
		covered := false
		for key2, f2 := range in {
			if key == key2 {
				continue
			}
			if Covers(f2, f) {
				if Covers(f, f2) && key < key2 {
					continue // mutual covering: keep the smaller key
				}
				covered = true
				break
			}
		}
		if !covered {
			out[key] = f
		}
	}
	return out
}

// desiredAt recomputes neighbour n's desired set from the broker's tables.
func desiredAt(b *Broker, n ids.ID) map[string]Filter {
	desired := make(map[string]Filter)
	for _, key := range b.entryKeys {
		ent := b.entries[key]
		if len(ent.dirs) == 1 && ent.dirs[n] {
			continue // only subscriber is n itself
		}
		desired[key] = ent.filter
	}
	return desired
}

// reconcileAll recomputes, for every neighbour, the minimal set of filters
// that must be forwarded, sends the diff and overwrites the cover's sent
// set with it (hidden and witnesses are not the oracle's business).
func reconcileAll(b *Broker) {
	for _, n := range b.nborOrder {
		desired := desiredAt(b, n)
		if !b.opts.DisableCovering {
			desired = minimalCover(desired)
		}
		c := b.covers[n]
		for _, e := range c.sent {
			if _, keep := desired[e.key]; !keep {
				b.ep.Send(n, &UnsubMsg{Filter: e.f})
			}
		}
		have := make(map[string]bool, len(c.sent))
		for _, e := range c.sent {
			have[e.key] = true
		}
		c.sent = c.sent[:0]
		for _, key := range sortedFilterKeys(desired) {
			c.sent = append(c.sent, coverEntry{key: key, f: desired[key]})
			if !have[key] {
				b.ep.Send(n, &SubMsg{Filter: desired[key]})
			}
		}
	}
}

// driveByOracle re-registers every handler that changes a desired set
// with one that updates the tables and then reconciles from scratch: the
// broker it leaves behind never runs cover.add or cover.remove.
func driveByOracle(b *Broker) {
	drop := func(from ids.ID, key string) {
		ent := b.entries[key]
		if ent == nil {
			return
		}
		delete(ent.dirs, from)
		if len(ent.dirs) == 0 {
			b.dropEntry(key)
		}
	}
	b.ep.Handle("pubsub.sub", func(_ netapi.Ctx, from ids.ID, msg wire.Message) {
		f := msg.(*SubMsg).Filter
		b.stats.SubsReceived++
		key := f.Key()
		ent := b.entries[key]
		if ent == nil {
			ent = b.addEntry(key, f)
		}
		ent.dirs[from] = true
		reconcileAll(b)
	})
	b.ep.Handle("pubsub.unsub", func(_ netapi.Ctx, from ids.ID, msg wire.Message) {
		drop(from, msg.(*UnsubMsg).Filter.Key())
		reconcileAll(b)
	})
	b.ep.Handle("pubsub.reclaim", func(ctx netapi.Ctx, from ids.ID, _ wire.Message) {
		reply := &ReclaimReply{}
		if p := b.proxies[from]; p != nil {
			reply.Events, reply.Dropped = p.buf, p.dropped
		}
		delete(b.proxies, from)
		for _, key := range append([]string(nil), b.entryKeys...) {
			if b.entries[key].dirs[from] {
				drop(from, key)
			}
		}
		reconcileAll(b)
		ctx.Reply(reply)
	})
}

// --- helpers --------------------------------------------------------------------

// sentKeys lists the keys of the filters a cover has sent, in order.
func sentKeys(c *cover) []string {
	out := make([]string, len(c.sent))
	for i, e := range c.sent {
		out[i] = e.key
	}
	return out
}

type nopCtx struct{}

func (nopCtx) Reply(wire.Message) {}
func (nopCtx) ReplyErr(error)     {}

// coverFamilyFilter draws from families built to overlap: per-user
// equalities (disjoint from each other, covered by the broad filters),
// nested ranges, nested prefixes, exists, mutually covering spellings of
// one predicate, and the index tests' unstructured random filters.
func coverFamilyFilter(rng *rand.Rand) Filter {
	switch rng.Intn(8) {
	case 0, 1:
		return NewFilter(TypeIs("gps.location"), Eq("user", event.S(fmt.Sprintf("user-%d", rng.Intn(8)))))
	case 2:
		lo := Gt("x", event.I(int64(rng.Intn(6))))
		if rng.Intn(2) == 0 {
			return NewFilter(lo)
		}
		return NewFilter(lo, Lt("x", event.F(float64(6+rng.Intn(6)))))
	case 3:
		prefixes := []string{"", "e", "eu", "eu-", "eu-west", "us"}
		return NewFilter(Prefix("tag", prefixes[rng.Intn(len(prefixes))]))
	case 4:
		switch rng.Intn(3) {
		case 0:
			return NewFilter(Exists("user"))
		case 1:
			return NewFilter(TypeIs("gps.location"), Exists("user"))
		default:
			return NewFilter(Exists("x"))
		}
	case 5:
		if rng.Intn(4) == 0 {
			return NewFilter()
		}
		return NewFilter(TypeIs(genTypes[rng.Intn(2)]))
	case 6:
		// One predicate, three keys: x > n as int, as float, and with a
		// redundant weaker bound.
		n := int64(rng.Intn(3))
		switch rng.Intn(3) {
		case 0:
			return NewFilter(Gt("x", event.I(n)))
		case 1:
			return NewFilter(Gt("x", event.F(float64(n))))
		default:
			return NewFilter(Gt("x", event.I(n)), Gt("x", event.I(n-1)))
		}
	default:
		return ixRandFilter(rng)
	}
}

func equivalent(f, g Filter) bool { return Covers(f, g) && Covers(g, f) }

// coveredBy reports whether some filter of held covers f.
func coveredBy(held map[string]Filter, key string, f Filter) bool {
	if _, ok := held[key]; ok {
		return true
	}
	for _, h := range held {
		if Covers(h, f) {
			return true
		}
	}
	return false
}

// --- the property test ------------------------------------------------------------

// TestIncrementalCoverMatchesOracle drives one broker on a recording
// endpoint through seeded random sequences of every operation that
// changes a neighbour's desired set, and after every step checks each
// neighbour's cover against the from-scratch oracle; then it runs a
// simnet chain of such brokers against a chain driven by the oracle alone
// and requires identical delivery sets.
func TestIncrementalCoverMatchesOracle(t *testing.T) {
	for _, disableCovering := range []bool{false, true} {
		opts := Options{DisableCovering: disableCovering}
		name := fmt.Sprintf("covering=%v", !disableCovering)
		t.Run(name+"/steps", func(t *testing.T) {
			for seed := int64(1); seed <= 6; seed++ {
				runCoverSteps(t, seed, opts)
			}
		})
		t.Run(name+"/chain", func(t *testing.T) { runCoverChain(t, opts) })
	}
}

func runCoverSteps(t *testing.T, seed int64, opts Options) {
	rng := rand.New(rand.NewSource(seed))
	ep := newBPEndpoint("cover-broker")
	b := NewBroker(ep, opts)
	var nbors, dirs []ids.ID
	for i := 0; i < 3; i++ {
		nbors = append(nbors, ids.FromString(fmt.Sprintf("nbor-%d", i)))
		b.AddNeighbor(nbors[i])
	}
	dirs = append(dirs, nbors...)
	for i := 0; i < 3; i++ {
		dirs = append(dirs, ids.FromString(fmt.Sprintf("client-%d", i)))
	}
	held := make(map[ids.ID]map[string]Filter) // what each neighbour's table holds from b
	for _, n := range nbors {
		held[n] = make(map[string]Filter)
	}
	type subRec struct {
		from ids.ID
		f    Filter
	}
	var subs []subRec

	for step := 0; step < 400; step++ {
		before := make(map[ids.ID]map[string]Filter)
		for _, n := range b.nborOrder {
			before[n] = desiredAt(b, n)
		}
		ep.sent = ep.sent[:0]
		var op string
		switch r := rng.Intn(82); {
		case r < 40:
			s := subRec{dirs[rng.Intn(len(dirs))], coverFamilyFilter(rng)}
			subs = append(subs, s)
			op = fmt.Sprintf("sub %v %q", s.from, s.f.Key())
			b.handleSub(nopCtx{}, s.from, &SubMsg{Filter: s.f})
		case r < 65 && len(subs) > 0:
			i := rng.Intn(len(subs))
			s := subs[i]
			subs = append(subs[:i], subs[i+1:]...)
			op = fmt.Sprintf("unsub %v %q", s.from, s.f.Key())
			b.handleUnsub(nopCtx{}, s.from, &UnsubMsg{Filter: s.f})
		case r < 70:
			from := dirs[3+rng.Intn(3)]
			op = fmt.Sprintf("reclaim %v", from)
			b.handleReclaim(nopCtx{}, from, &ReclaimMsg{})
		case r < 75:
			n := nbors[rng.Intn(len(nbors))]
			if b.neighbors[n] {
				op = fmt.Sprintf("remove-neighbor %v", n)
				b.RemoveNeighbor(n)
				delete(held, n)
			} else {
				op = fmt.Sprintf("peer %v", n)
				held[n] = make(map[string]Filter)
				before[n] = nil
				b.handlePeer(nopCtx{}, n, &PeerMsg{})
			}
		default:
			op = "resync"
			b.Resync()
			if len(ep.sent) != 0 {
				t.Fatalf("seed %d step %d: Resync of covers already in step sent %d messages", seed, step, len(ep.sent))
			}
		}
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d step %d (%s): %s", seed, step, op, fmt.Sprintf(format, args...))
		}

		// Replay what was sent into the model of each neighbour's table.
		// Make-before-break: between any two messages, a filter desired
		// both before and after the step stays covered at the neighbour.
		after := make(map[ids.ID]map[string]Filter)
		for _, n := range b.nborOrder {
			after[n] = desiredAt(b, n)
		}
		for _, rec := range ep.sent {
			h := held[rec.to]
			switch m := rec.msg.(type) {
			case *SubMsg:
				if _, dup := h[m.Filter.Key()]; dup {
					fail("Sub of %q, which %v already holds", m.Filter.Key(), rec.to)
				}
				h[m.Filter.Key()] = m.Filter
			case *UnsubMsg:
				if _, ok := h[m.Filter.Key()]; !ok {
					fail("Unsub of %q, which %v does not hold", m.Filter.Key(), rec.to)
				}
				delete(h, m.Filter.Key())
			default:
				continue
			}
			for key, f := range after[rec.to] {
				if _, stays := before[rec.to][key]; stays && !coveredBy(h, key, f) {
					fail("%v's table stopped covering %q, desired throughout", rec.to, key)
				}
			}
		}

		for _, n := range b.nborOrder {
			c := b.covers[n]
			desired := after[n]
			if len(c.subs)+len(c.unsubs) != 0 {
				fail("cover toward %v left %d changes unflushed", n, len(c.subs)+len(c.unsubs))
			}
			if got, want := sentKeys(c), sortedFilterKeys(held[n]); fmt.Sprint(got) != fmt.Sprint(want) {
				fail("sent toward %v is %v but its table holds %v", n, got, want)
			}
			if !sort.StringsAreSorted(sentKeys(c)) {
				fail("sent toward %v is not sorted: %v", n, sentKeys(c))
			}
			// sent ∪ hidden is exactly the desired set.
			if len(c.sent)+len(c.hidden) != len(desired) {
				fail("cover toward %v tracks %d+%d filters, desired has %d", n, len(c.sent), len(c.hidden), len(desired))
			}
			for _, e := range c.sent {
				if _, ok := desired[e.key]; !ok {
					fail("sent %q toward %v is not desired", e.key, n)
				}
			}
			if opts.DisableCovering {
				if len(c.hidden) != 0 {
					fail("covering disabled but %d filters hidden toward %v", len(c.hidden), n)
				}
				continue
			}
			// Every hidden filter has a witness in sent that covers it.
			for key, h := range c.hidden {
				if _, ok := desired[key]; !ok {
					fail("hidden %q toward %v is not desired", key, n)
				}
				i, ok := c.find(h.witness)
				if !ok || !Covers(c.sent[i].f, h.f) {
					fail("hidden %q toward %v: witness %q sent=%v does not cover it", key, n, h.witness, ok)
				}
			}
			// sent is an antichain.
			for i := range c.sent {
				for j := range c.sent {
					if i != j && Covers(c.sent[i].f, c.sent[j].f) {
						fail("sent toward %v is not an antichain: %q covers %q", n, c.sent[i].key, c.sent[j].key)
					}
				}
			}
			// sent is the oracle's minimal cover, up to the choice of
			// representative within a mutual-cover class.
			oracle := minimalCover(desired)
			if len(oracle) != len(c.sent) {
				fail("sent toward %v has %d filters %v, oracle %d %v", n, len(c.sent), sentKeys(c), len(oracle), sortedFilterKeys(oracle))
			}
			for key, f := range oracle {
				found := false
				for _, e := range c.sent {
					if e.key == key || equivalent(e.f, f) {
						found = true
						break
					}
				}
				if !found {
					fail("oracle keeps %q toward %v, sent has no equivalent: %v", key, n, sentKeys(c))
				}
			}
		}
	}
}

// runCoverChain drives two three-broker simnet chains — shipped brokers and
// brokers driven by the oracle — through one seeded script of subscribes,
// unsubscribes, client hand-offs and publishes,
// settling between phases, and compares what every client received.
func runCoverChain(t *testing.T, opts Options) {
	const (
		seed             = 91
		brokers          = 3
		clientsPerBroker = 2
		rounds           = 12
	)
	live := newDiffWorld(seed, brokers, clientsPerBroker, opts)
	ref := newDiffWorld(seed, brokers, clientsPerBroker, opts)
	for _, b := range ref.tn.brokers {
		driveByOracle(b)
	}
	worlds := []*diffWorld{live, ref}
	settle := func() {
		for _, w := range worlds {
			w.tn.settle()
		}
	}
	nClients := brokers * clientsPerBroker
	rng := rand.New(rand.NewSource(seed))
	type rec struct {
		client int
		f      Filter
	}
	var subs []rec
	at := make([]int, nClients) // broker each client is attached to
	for ci := range at {
		at[ci] = ci % brokers
	}
	seq := uint64(50_000)
	for round := 0; round < rounds; round++ {
		for i := 0; i < 12; i++ {
			s := rec{rng.Intn(nClients), coverFamilyFilter(rng)}
			subs = append(subs, s)
			for _, w := range worlds {
				got, ci := w.got, s.client
				w.tn.clients[ci].Subscribe(s.f, func(e *event.Event) {
					got.byClient[ci] = append(got.byClient[ci], e.ID.String())
				})
			}
		}
		settle()
		for i := 0; i < 5 && len(subs) > 0; i++ {
			j := rng.Intn(len(subs))
			s := subs[j]
			subs = append(subs[:j], subs[j+1:]...)
			for _, w := range worlds {
				w.tn.clients[s.client].Unsubscribe(s.f)
			}
			settle()
		}
		if round%3 == 2 { // hand a client off to the next broker
			ci := rng.Intn(nClients)
			at[ci] = (at[ci] + 1) % brokers
			for _, w := range worlds {
				w.tn.clients[ci].Detach()
			}
			settle()
			for _, w := range worlds {
				w.tn.clients[ci].AttachTo(w.tn.brokers[at[ci]].ID(), time.Second, nil)
			}
			settle()
		}
		for i := 0; i < 40; i++ {
			ci := rng.Intn(nClients)
			ev := ixRandEvent(rng, seq)
			seq++
			for _, w := range worlds {
				w.tn.clients[ci].Publish(ev.Clone())
			}
		}
		settle()
	}
	total := 0
	for ci := 0; ci < nClients; ci++ {
		ga := append([]string(nil), live.got.byClient[ci]...)
		gb := append([]string(nil), ref.got.byClient[ci]...)
		sort.Strings(ga)
		sort.Strings(gb)
		if fmt.Sprint(ga) != fmt.Sprint(gb) {
			t.Fatalf("client %d: incremental cover delivered %d events, oracle %d", ci, len(ga), len(gb))
		}
		total += len(ga)
	}
	if total == 0 {
		t.Fatal("nothing was delivered: the script exercises nothing")
	}
	for bi, b := range live.tn.brokers {
		if got, want := b.Stats().ForwardedSubs, ref.tn.brokers[bi].Stats().ForwardedSubs; got != want {
			t.Fatalf("broker %d forwards %d subscriptions, oracle %d", bi, got, want)
		}
	}
}

// --- make-before-break --------------------------------------------------------------

// renderControl renders the Sub/Unsub messages sent to one destination.
func renderControl(ep *bpEndpoint, to ids.ID) []string {
	var out []string
	for _, m := range ep.sentTo(to) {
		switch m := m.(type) {
		case *SubMsg:
			out = append(out, "sub "+m.Filter.Key())
		case *UnsubMsg:
			out = append(out, "unsub "+m.Filter.Key())
		}
	}
	return out
}

// TestControlPlaneSendsSubsBeforeUnsubs pins the order on the wire in both
// directions of a covering change: the filters taking over are subscribed
// before the filter stepping down is withdrawn.
func TestControlPlaneSendsSubsBeforeUnsubs(t *testing.T) {
	ep := newBPEndpoint("mbb-broker")
	b := NewBroker(ep, Options{})
	n := ids.FromString("mbb-nbor")
	b.AddNeighbor(n)
	c1, c2 := ids.FromString("mbb-c1"), ids.FromString("mbb-c2")
	broad := NewFilter(TypeIs("t"))
	anna := NewFilter(TypeIs("t"), Eq("user", event.S("anna")))
	bob := NewFilter(TypeIs("t"), Eq("user", event.S("bob")))

	b.Subscribe(c2, bob)
	b.Subscribe(c2, anna)
	ep.sent = nil
	// The broad filter supersedes both: announce it, then retire them.
	b.Subscribe(c1, broad)
	want := []string{"sub " + broad.Key(), "unsub " + anna.Key(), "unsub " + bob.Key()}
	if got := renderControl(ep, n); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("superseding subscribe sent\n %v\nwant\n %v", got, want)
	}
	ep.sent = nil
	// The broad filter leaves: uncover what it hid, then withdraw it.
	b.unsubscribe(c1, broad)
	want = []string{"sub " + anna.Key(), "sub " + bob.Key(), "unsub " + broad.Key()}
	if got := renderControl(ep, n); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("uncovering unsubscribe sent\n %v\nwant\n %v", got, want)
	}
}

// TestNarrowSubscriberMissesNothingWhenBroadLeaves is the end-to-end face
// of make-before-break: on a three-broker chain with jittered latencies
// (simnet links keep send order, as TCP connections do), a broad filter
// leaves while publishes keep arriving
// from the far end, and the subscriber of the narrow filter it was hiding
// receives every one of them. With Unsub sent ahead of the uncovering
// Subs, each broker on the path has a window with neither filter in its
// table and drops what arrives in it.
func TestNarrowSubscriberMissesNothingWhenBroadLeaves(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		tn := &testNet{world: simnet.NewWorld(simnet.Config{Seed: seed})}
		for i := 0; i < 3; i++ {
			node := tn.world.NewNode(ids.FromString(fmt.Sprintf("broker-%d", i)), "eu", netapi.Coord{X: float64(i * 100)})
			tn.brokers = append(tn.brokers, NewBroker(node, Options{}))
		}
		for i := 1; i < 3; i++ {
			ConnectBrokers(tn.brokers[i-1], tn.brokers[i])
		}
		broadSub, narrowSub, pub := tn.addClient(0), tn.addClient(0), tn.addClient(2)
		broad := NewFilter(TypeIs("t"))
		narrow := NewFilter(TypeIs("t"), Eq("user", event.S("bob")))
		got := 0
		broadSub.Subscribe(broad, func(*event.Event) {})
		tn.settle()
		narrowSub.Subscribe(narrow, func(*event.Event) { got++ })
		tn.settle()
		// 400 publishes 25µs apart straddle the unsubscribe and the whole
		// of its propagation down the chain (≈2 ms a hop).
		const pubs = 400
		clock := pub.ep.Clock()
		for i := 0; i < pubs; i++ {
			seq := uint64(i + 1)
			clock.After(time.Duration(i)*25*time.Microsecond, func() { pub.Publish(mkEvent("t", "bob", seq)) })
		}
		clock.After(2*time.Millisecond, func() { broadSub.Unsubscribe(broad) })
		tn.settle()
		if got != pubs {
			t.Fatalf("seed %d: narrow subscriber received %d of %d publishes while the broad filter left", seed, got, pubs)
		}
	}
}

// --- scaling ------------------------------------------------------------------------

// churnBroker builds the middle broker of a chain — two neighbours, one
// of them the source of n disjoint per-user filters — on an endpoint that
// only counts what is sent.
func churnBroker(n int) (*Broker, *countingEndpoint, ids.ID) {
	ep := &countingEndpoint{nullEndpoint: nullEndpoint{id: ids.FromString("churn-broker"), rng: rand.New(rand.NewSource(3))}}
	b := NewBroker(ep, Options{})
	up, down := ids.FromString("churn-up"), ids.FromString("churn-down")
	b.AddNeighbor(up)
	b.AddNeighbor(down)
	for i := 0; i < n; i++ {
		b.subscribe(down, churnFilter(i))
	}
	return b, ep, down
}

func churnFilter(i int) Filter {
	return NewFilter(TypeIs("gps.location"), Eq("user", event.S(fmt.Sprintf("user-%06d", i))))
}

type countingEndpoint struct {
	nullEndpoint
	sends int
}

func (e *countingEndpoint) Send(ids.ID, wire.Message) { e.sends++ }

// TestSwapCostIndependentOfTableSize is the scaling guard that needs no
// clock: one unsubscribe + subscribe among disjoint filters allocates the
// same at 500 filters as at 4000. Recomputing the cover allocated a
// desired map per neighbour per unsubscribe, growing with the table.
func TestSwapCostIndependentOfTableSize(t *testing.T) {
	swapAllocs := func(n int) float64 {
		b, _, from := churnBroker(n)
		held, other := churnFilter(0), churnFilter(n)
		return testing.AllocsPerRun(200, func() {
			b.unsubscribe(from, held)
			b.subscribe(from, other)
			b.unsubscribe(from, other)
			b.subscribe(from, held)
		})
	}
	small, large := swapAllocs(500), swapAllocs(4000)
	if small != large {
		t.Fatalf("a filter swap allocates %.0f times at 500 filters and %.0f at 4000: cost grows with the table", small, large)
	}
}

// BenchmarkBrokerChurn measures one filter swap (unsubscribe one per-user
// filter, subscribe another) on the middle broker of a chain holding n
// disjoint filters: ns per swap and control messages per swap.
func BenchmarkBrokerChurn(b *testing.B) {
	for _, n := range []int{400, 4000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			br, ep, from := churnBroker(n)
			ep.sends = 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Slot i%n holds filter i%n on even laps and n+i%n on odd ones.
				slot, odd := i%n, (i/n)%2 == 1
				cur, next := slot, n+slot
				if odd {
					cur, next = next, cur
				}
				br.unsubscribe(from, churnFilter(cur))
				br.subscribe(from, churnFilter(next))
			}
			b.ReportMetric(float64(ep.sends)/float64(b.N), "msgs/swap")
		})
	}
}
