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
	"github.com/gloss/active/internal/vclock"
	"github.com/gloss/active/internal/wire"
)

// --- randomized workload generators ------------------------------------------

var (
	genAttrs   = []string{"type", "source", "time", "user", "x", "y", "tag", "zone"}
	genTypes   = []string{"gps.location", "weather.report", "stream.tick", "alert.heat", "suggestion.meet"}
	genStrings = []string{"eu", "us", "eu-west", "north", "n", ""}
)

func ixRandValue(rng *rand.Rand, attr string) event.Value {
	switch attr {
	case "type":
		return event.S(genTypes[rng.Intn(len(genTypes))])
	case "source":
		return event.S(fmt.Sprintf("src-%d", rng.Intn(4)))
	case "time":
		return event.I(int64(rng.Intn(8)))
	case "user":
		return event.S(fmt.Sprintf("user-%d", rng.Intn(6)))
	case "x", "y":
		// Mix int and float values so cross-kind numeric comparisons are
		// exercised, including exact int/float equality collisions.
		if rng.Intn(2) == 0 {
			return event.I(int64(rng.Intn(10)))
		}
		return event.F(float64(rng.Intn(20)) / 2)
	case "tag":
		return event.S(genStrings[rng.Intn(len(genStrings))])
	default:
		switch rng.Intn(3) {
		case 0:
			return event.B(rng.Intn(2) == 0)
		case 1:
			return event.I(int64(rng.Intn(5)))
		default:
			return event.S(genStrings[rng.Intn(len(genStrings))])
		}
	}
}

func ixRandConstraint(rng *rand.Rand) Constraint {
	attr := genAttrs[rng.Intn(len(genAttrs))]
	ops := []Op{OpEq, OpEq, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpPrefix, OpSuffix, OpContains, OpExists}
	op := ops[rng.Intn(len(ops))]
	if op == OpExists {
		return Exists(attr)
	}
	return Constraint{Attr: attr, Op: op, Val: ixRandValue(rng, attr)}
}

func ixRandFilter(rng *rand.Rand) Filter {
	n := rng.Intn(4) // 0..3 constraints; 0 matches everything
	cs := make([]Constraint, 0, n)
	for i := 0; i < n; i++ {
		cs = append(cs, ixRandConstraint(rng))
	}
	return NewFilter(cs...)
}

func ixRandEvent(rng *rand.Rand, seq uint64) *event.Event {
	ev := event.New(genTypes[rng.Intn(len(genTypes))], fmt.Sprintf("src-%d", rng.Intn(4)),
		time.Duration(rng.Intn(8)))
	for _, attr := range []string{"user", "x", "y", "tag", "zone"} {
		if rng.Intn(3) > 0 { // each attribute is sometimes absent
			ev.Set(attr, ixRandValue(rng, attr))
		}
	}
	return ev.Stamp(seq)
}

// --- index unit tests ---------------------------------------------------------

// TestIndexDifferential is the core property test of the access-predicate
// index: a mutating stream of adds and removes, with every event
// checked against every live filter's Filter.Matches. Well over 1000
// randomized filter/event pairs per run.
func TestIndexDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ix := NewIndex()
	live := map[string]Filter{}
	var keys []string

	for round := 0; round < 1500; round++ {
		switch {
		case round%3 == 0 || len(keys) == 0:
			f := ixRandFilter(rng)
			key := f.Key()
			if _, dup := live[key]; !dup {
				live[key] = f
				keys = append(keys, key)
			}
			ix.Add(key, f)
		case round%7 == 0:
			i := rng.Intn(len(keys))
			key := keys[i]
			ix.Remove(key)
			delete(live, key)
			keys = append(keys[:i], keys[i+1:]...)
		}

		ev := ixRandEvent(rng, uint64(round))
		got := map[string]bool{}
		ix.Match(ev, func(key string) {
			if got[key] {
				t.Fatalf("round %d: filter %q visited twice", round, key)
			}
			got[key] = true
		})
		for key := range got {
			if _, ok := live[key]; !ok {
				t.Fatalf("round %d: index matched removed filter %q", round, key)
			}
		}
		for key, f := range live {
			if want := f.Matches(ev); want != got[key] {
				t.Fatalf("round %d: filter %q (%v) on event %v: index=%v linear=%v",
					round, key, f.Constraints, ev.Attrs, got[key], want)
			}
		}
	}
	if ix.Len() != len(live) {
		t.Fatalf("index holds %d filters, want %d", ix.Len(), len(live))
	}
}

func TestIndexZeroConstraintFilter(t *testing.T) {
	ix := NewIndex()
	f := NewFilter()
	ix.Add(f.Key(), f)
	n := 0
	ix.Match(event.New("anything", "s", 0).Stamp(1), func(string) { n++ })
	if n != 1 {
		t.Fatalf("zero-constraint filter matched %d times, want 1", n)
	}
	ix.Remove(f.Key())
	n = 0
	ix.Match(event.New("anything", "s", 0).Stamp(2), func(string) { n++ })
	if n != 0 {
		t.Fatalf("removed zero-constraint filter still matches")
	}
}

func TestIndexExistsOperator(t *testing.T) {
	ix := NewIndex()
	f := NewFilter(Exists("user"), TypeIs("t"))
	ix.Add(f.Key(), f)
	matched := func(ev *event.Event) bool {
		hit := false
		ix.Match(ev, func(string) { hit = true })
		return hit
	}
	if !matched(event.New("t", "s", 0).Set("user", event.S("bob")).Stamp(1)) {
		t.Fatal("exists+eq filter should match event with attribute present")
	}
	if matched(event.New("t", "s", 0).Stamp(2)) {
		t.Fatal("exists filter matched event lacking the attribute")
	}
	if matched(event.New("other", "s", 0).Set("user", event.S("bob")).Stamp(3)) {
		t.Fatal("type constraint ignored")
	}
	// Exists on an implicit envelope attribute always holds.
	ix2 := NewIndex()
	g := NewFilter(Exists("time"))
	ix2.Add(g.Key(), g)
	hit := false
	ix2.Match(event.New("t", "s", 5).Stamp(4), func(string) { hit = true })
	if !hit {
		t.Fatal("exists(time) must match every event")
	}
}

func TestIndexDuplicateConstraints(t *testing.T) {
	// A filter may carry the same constraint twice; it must match once,
	// and removal must leave no posting behind.
	ix := NewIndex()
	c := Eq("user", event.S("bob"))
	f := NewFilter(c, c)
	ix.Add(f.Key(), f)
	hit := 0
	ix.Match(event.New("t", "s", 0).Set("user", event.S("bob")).Stamp(1), func(string) { hit++ })
	if hit != 1 {
		t.Fatalf("duplicate-constraint filter matched %d times, want 1", hit)
	}
	ix.Remove(f.Key())
	if got := postingCount(ix); got != 0 {
		t.Fatalf("postings after removal = %d, want 0", got)
	}
	if got := len(ix.Attrs()); got != 0 {
		t.Fatalf("attrs after removal = %v, want none", ix.Attrs())
	}
}

// TestIndexLargeIntEquality pins the 2^53 float-collision case: distinct
// int64 values that collapse to the same float64 must not cross-match,
// because Value.Equal compares same-kind ints exactly. Reachable in
// practice through the implicit nanosecond "time" envelope attribute.
func TestIndexLargeIntEquality(t *testing.T) {
	const big = int64(1) << 53
	ix := NewIndex()
	f := NewFilter(Eq("n", event.I(big+1)))
	ix.Add(f.Key(), f)
	check := func(ev *event.Event, want bool) {
		t.Helper()
		hit := false
		ix.Match(ev, func(string) { hit = true })
		if lin := f.Matches(ev); lin != want {
			t.Fatalf("reference semantics changed: Matches=%v want %v", lin, want)
		}
		if hit != want {
			t.Fatalf("index=%v, want %v (and linear agrees with want)", hit, want)
		}
	}
	// float64(2^53) == float64(2^53+1), but the ints differ.
	check(event.New("t", "s", 0).Set("n", event.I(big)).Stamp(1), false)
	check(event.New("t", "s", 0).Set("n", event.I(big+1)).Stamp(2), true)
	// Cross-kind numeric equality still works for exactly representable values.
	ix2 := NewIndex()
	g := NewFilter(Eq("n", event.I(5)))
	ix2.Add(g.Key(), g)
	hit := false
	ix2.Match(event.New("t", "s", 0).Set("n", event.F(5.0)).Stamp(3), func(string) { hit = true })
	if !hit {
		t.Fatal("int-5 constraint must match float-5.0 value")
	}
}

// postingCount is the number of access postings in ix.
func postingCount(ix *Index) int {
	n := 0
	for _, ap := range ix.attrs {
		n += ap.n
	}
	return n
}

// TestIndexSharedConstraintPostedOnce: filters that all share one
// equality and differ in a second are posted under the second, so an
// event probes only its own candidates, not every filter of its type.
// One posting per filter, and every filter still matches its own event.
func TestIndexSharedConstraintPostedOnce(t *testing.T) {
	const n = 4000
	ix := NewIndex()
	for i := 0; i < n; i++ {
		f := NewFilter(TypeIs("gps.location"), Eq("user", event.S(fmt.Sprintf("u%d", i))))
		ix.Add(f.Key(), f)
	}
	if got := postingCount(ix); got != n {
		t.Fatalf("%d postings for %d filters, want one each", got, n)
	}
	ps, gps := ix.attrs["type"].lists[listEqStr], event.S("gps.location")
	if lo, hi := eqSpan(ps, listEqStr, &gps); hi-lo > 1 {
		t.Fatalf("%d postings under (type, gps.location), want at most 1", hi-lo)
	}
	for i := 0; i < n; i++ {
		user := fmt.Sprintf("u%d", i)
		ev := event.New("gps.location", "gps", 0).Set("user", event.S(user)).Set("x", event.F(1)).Stamp(uint64(i))
		var got []string
		ix.Match(ev, func(key string) { got = append(got, key) })
		want := NewFilter(TypeIs("gps.location"), Eq("user", event.S(user))).Key()
		if len(got) != 1 || got[0] != want {
			t.Fatalf("event of %s matched %q, want [%q]", user, got, want)
		}
	}
}

func TestIndexAttrsSorted(t *testing.T) {
	ix := NewIndex()
	for _, a := range []string{"zeta", "alpha", "mid"} {
		f := NewFilter(Exists(a))
		ix.Add(f.Key(), f)
	}
	attrs := ix.Attrs()
	if !sort.StringsAreSorted(attrs) {
		t.Fatalf("attr order not sorted: %v", attrs)
	}
}

// --- broker-level differential test -------------------------------------------

// deliveries records per-client delivered event IDs for one world.
type deliveries struct {
	byClient map[int][]string
}

// diffWorld is one of the two lockstep worlds under comparison.
type diffWorld struct {
	tn  *testNet
	got *deliveries
}

func newDiffWorld(seed int64, brokers, clientsPerBroker int, opts Options) *diffWorld {
	tn := newChain(seed, brokers, opts)
	for i := 0; i < brokers*clientsPerBroker; i++ {
		tn.addClient(i % brokers)
	}
	return &diffWorld{tn: tn, got: &deliveries{byClient: map[int][]string{}}}
}

// linearMatcher is the reference implementation the index is
// differentially tested and benchmarked against: the original O(table)
// scan, Filter.Matches on every registered filter. It embeds an Index for
// the filter table and for the Len/AttrCount figures
// Broker.Stats reports, so both worlds' Stats compare equal; its Match
// never touches the postings.
type linearMatcher struct{ *Index }

func newLinearMatcher() linearMatcher { return linearMatcher{NewIndex()} }

func (m linearMatcher) Match(ev *event.Event, visit func(key string)) {
	for key, fx := range m.filters {
		if fx.filter.Matches(ev) {
			visit(key)
		}
	}
}

// TestBrokerDifferentialIndexVsLinear drives two identical broker chains
// — one matching through the index, one through the linear-scan
// oracle behind the matcher seam — with the same randomized subscribe/
// publish/unsubscribe workload with covering on and off, and requires
// identical delivery sets, Stats counters, table contents and forwarding
// state. 160 filters × 240 events per run ≈ 38k filter/event pairs each.
func TestBrokerDifferentialIndexVsLinear(t *testing.T) {
	for _, disableCovering := range []bool{false, true} {
		name := fmt.Sprintf("covering=%v", !disableCovering)
		t.Run(name, func(t *testing.T) {
			runBrokerDifferential(t, Options{DisableCovering: disableCovering})
		})
	}
}

// runBrokerDifferential drives an index-matched and a linear-matched
// broker chain through the same randomized workload and requires
// identical observable behaviour.
func runBrokerDifferential(t *testing.T, opts Options) {
	const (
		brokers          = 3
		clientsPerBroker = 2
		nSubs            = 160
		nUnsubs          = 30
		nEvents          = 240
		seed             = 77
	)
	a := newDiffWorld(seed, brokers, clientsPerBroker, opts)
	b := newDiffWorld(seed, brokers, clientsPerBroker, opts)
	for _, br := range b.tn.brokers {
		br.index = newLinearMatcher() // tables are still empty
	}
	worlds := []*diffWorld{a, b}
	nClients := brokers * clientsPerBroker

	// One rng drives the workload; both worlds receive identical inputs.
	rng := rand.New(rand.NewSource(seed))

	// Random subscriptions.
	type subRec struct {
		client int
		f      Filter
	}
	var subs []subRec
	for i := 0; i < nSubs; i++ {
		ci := rng.Intn(nClients)
		f := ixRandFilter(rng)
		subs = append(subs, subRec{ci, f})
		for wi, w := range worlds {
			got, ci := w.got, ci
			_ = wi
			w.tn.clients[ci].Subscribe(f, func(e *event.Event) {
				got.byClient[ci] = append(got.byClient[ci], e.ID.String())
			})
		}
		if i%20 == 19 {
			for _, w := range worlds {
				w.tn.settle()
			}
		}
	}
	// Random unsubscriptions of earlier filters.
	for i := 0; i < nUnsubs; i++ {
		r := subs[rng.Intn(len(subs))]
		for _, w := range worlds {
			w.tn.clients[r.client].Unsubscribe(r.f)
		}
	}
	for _, w := range worlds {
		w.tn.settle()
	}

	// Random publishes; the same event content flows through both worlds.
	for i := 0; i < nEvents; i++ {
		ci := rng.Intn(nClients)
		ev := ixRandEvent(rng, uint64(10_000+i))
		for _, w := range worlds {
			w.tn.clients[ci].Publish(ev.Clone())
		}
		if i%40 == 39 {
			for _, w := range worlds {
				w.tn.settle()
			}
		}
	}
	for _, w := range worlds {
		w.tn.world.RunFor(20 * time.Second)
	}

	// Delivery sets must be identical per client.
	for ci := 0; ci < nClients; ci++ {
		ga := append([]string(nil), a.got.byClient[ci]...)
		gb := append([]string(nil), b.got.byClient[ci]...)
		sort.Strings(ga)
		sort.Strings(gb)
		if len(ga) != len(gb) {
			t.Fatalf("client %d: index delivered %d events, linear %d", ci, len(ga), len(gb))
		}
		for i := range ga {
			if ga[i] != gb[i] {
				t.Fatalf("client %d: delivery sets diverge at %d: %s vs %s", ci, i, ga[i], gb[i])
			}
		}
		ca, cb := a.tn.clients[ci], b.tn.clients[ci]
		if ca.Delivered != cb.Delivered || ca.Duplicates != cb.Duplicates {
			t.Fatalf("client %d counters diverge: index {%d,%d} linear {%d,%d}",
				ci, ca.Delivered, ca.Duplicates, cb.Delivered, cb.Duplicates)
		}
	}

	// Broker state must be identical: stats, table keys, forwarding maps.
	for bi := 0; bi < brokers; bi++ {
		ba, bb := a.tn.brokers[bi], b.tn.brokers[bi]
		if sa, sb := ba.Stats(), bb.Stats(); sa != sb {
			t.Fatalf("broker %d stats diverge:\nindex:  %+v\nlinear: %+v", bi, sa, sb)
		}
		ka := append([]string(nil), ba.entryKeys...)
		kb := append([]string(nil), bb.entryKeys...)
		if fmt.Sprint(ka) != fmt.Sprint(kb) {
			t.Fatalf("broker %d table keys diverge:\nindex:  %v\nlinear: %v", bi, ka, kb)
		}
		if ba.index.Len() != len(ba.entries) {
			t.Fatalf("broker %d: index holds %d filters but table has %d entries",
				bi, ba.index.Len(), len(ba.entries))
		}
		for n, ca := range ba.covers {
			if fa, fb := sentKeys(ca), sentKeys(bb.covers[n]); fmt.Sprint(fa) != fmt.Sprint(fb) {
				t.Fatalf("broker %d forwarding toward %v diverges:\nindex:  %v\nlinear: %v", bi, n, fa, fb)
			}
		}
	}
}

// --- benchmarks ---------------------------------------------------------------

// nullEndpoint satisfies netapi.Endpoint with no-op I/O so benchmarks can
// drive Broker.handlePub directly, without simulator scheduling cost.
type nullEndpoint struct {
	id  ids.ID
	rng *rand.Rand
}

func (n *nullEndpoint) ID() ids.ID                { return n.id }
func (n *nullEndpoint) Info() netapi.NodeInfo     { return netapi.NodeInfo{ID: n.id} }
func (n *nullEndpoint) Clock() vclock.Clock       { return nil }
func (n *nullEndpoint) Rand() *rand.Rand          { return n.rng }
func (n *nullEndpoint) Send(ids.ID, wire.Message) {}
func (n *nullEndpoint) Request(to ids.ID, msg wire.Message, timeout time.Duration, cb netapi.ReplyFunc) {
	cb(nil, netapi.ErrUnreachable)
}
func (n *nullEndpoint) Handle(string, netapi.Handler) {}

// benchBroker builds a standalone broker with subs distinct subscriptions
// in a realistic Siena mix: every filter pins an event type (50 types),
// most add a user equality, some add a numeric range. linear puts the
// linear-scan oracle behind it instead of the index.
func benchBroker(subs int, linear bool) (*Broker, []*event.Event) {
	ep := &nullEndpoint{id: ids.FromString("bench-broker"), rng: rand.New(rand.NewSource(9))}
	b := NewBroker(ep, Options{})
	if linear {
		b.index = newLinearMatcher()
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < subs; i++ {
		typ := fmt.Sprintf("type-%02d", i%50)
		cs := []Constraint{TypeIs(typ)}
		if i%4 != 0 {
			cs = append(cs, Eq("user", event.S(fmt.Sprintf("user-%d", i))))
		}
		if i%3 == 0 {
			cs = append(cs, Gt("x", event.F(float64(rng.Intn(100)))))
		}
		from := ids.FromString(fmt.Sprintf("client-%d", i))
		b.subscribe(from, NewFilter(cs...))
	}
	evs := make([]*event.Event, 64)
	for i := range evs {
		evs[i] = event.New(fmt.Sprintf("type-%02d", i%50), "bench", 0).
			Set("user", event.S(fmt.Sprintf("user-%d", rng.Intn(subs)))).
			Set("x", event.F(float64(rng.Intn(100)))).
			Stamp(uint64(i))
	}
	return b, evs
}

// BenchmarkBrokerPublish measures per-publish matching cost at growing
// subscription-table sizes, for the index and the linear-scan
// oracle. The acceptance bar for the index is ≥5× lower ns/op at
// subs=10000.
func BenchmarkBrokerPublish(b *testing.B) {
	from := ids.FromString("bench-pub-src")
	for _, subs := range []int{100, 1000, 10000} {
		for _, mode := range []struct {
			name   string
			linear bool
		}{{"index", false}, {"linear", true}} {
			b.Run(fmt.Sprintf("subs=%d/%s", subs, mode.name), func(b *testing.B) {
				br, evs := benchBroker(subs, mode.linear)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					br.handlePub(nil, from, &PubMsg{Event: evs[i%len(evs)]})
				}
			})
		}
	}
}

// BenchmarkIndexMatch isolates the index itself: mix/10000 is
// benchBroker's table, shared-type/N is N filters of mobile-subs' shape
// (type=gps.location ∧ user=uK, every filter sharing the type) probed by
// events of 5 attributes.
func BenchmarkIndexMatch(b *testing.B) {
	run := func(b *testing.B, ix *Index, evs []*event.Event) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ix.Match(evs[i%len(evs)], func(string) {})
		}
	}
	b.Run("mix/10000", func(b *testing.B) {
		br, evs := benchBroker(10000, false)
		run(b, br.index.(*Index), evs)
	})
	for _, n := range []int{400, 4000} {
		b.Run(fmt.Sprintf("shared-type/%d", n), func(b *testing.B) {
			ix := NewIndex()
			for i := 0; i < n; i++ {
				f := NewFilter(TypeIs("gps.location"), Eq("user", event.S(fmt.Sprintf("u%05d", i))))
				ix.Add(f.Key(), f)
			}
			evs := make([]*event.Event, 64)
			for i := range evs {
				evs[i] = event.New("gps.location", "gps", 0).
					Set("user", event.S(fmt.Sprintf("u%05d", i*7%n))).
					Set("lat", event.F(1)).Set("lon", event.F(2)).
					Set("acc", event.F(5)).Set("seq", event.I(int64(i))).Stamp(uint64(i))
			}
			run(b, ix, evs)
		})
	}
}
