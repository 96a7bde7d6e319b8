package workloads

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"github.com/gloss/active/bench/internal/rig"
	"github.com/gloss/active/bench/internal/spy"
	"github.com/gloss/active/bench/internal/trace"
	"github.com/gloss/active/internal/core"
	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/knowledge"
	"github.com/gloss/active/internal/match"
	"github.com/gloss/active/internal/pubsub"
	"github.com/gloss/active/internal/vclock"
	"github.com/gloss/active/internal/wire"
)

const whyCtxChain = "Figure-1 journey on real TCP: sensors at a, rule engine at c, suggestions back to a (10000 ev/s paced, window 128); match and transport/wire do the work, the 5-entry pubsub index almost none"

// Frozen sizes of ctx-chain.
const (
	ctxUsers      = 200
	ctxRegions    = 10
	ctxPacedRate  = 10000 // events/s, open loop
	ctxSatWindow  = 128   // events in flight, closed loop
	ctxTraceEvery = 4     // sampled journeys: every 4th event (≈13 % of them complete)
	ctxHotTempC   = 30
	ctxNearKm     = 0.5
)

// eventTime stamps generated events an hour ahead of any node clock, so
// the engine's 60 s window never expires one during a run and the
// standalone oracle engine sees exactly the same buffers.
const eventTime = time.Hour

// ctxNames caches the formatted attribute strings of the generator.
type ctxNames struct {
	users, gpsSrc, regions, readers []string
}

func newCtxNames() *ctxNames {
	n := &ctxNames{}
	for u := 0; u < ctxUsers; u++ {
		n.users = append(n.users, fmt.Sprintf("u%03d", u))
		n.gpsSrc = append(n.gpsSrc, fmt.Sprintf("gps-u%03d", u))
	}
	for r := 0; r < ctxRegions; r++ {
		n.regions = append(n.regions, fmt.Sprintf("r%d", r))
		n.readers = append(n.readers, fmt.Sprintf("door-%d", r))
	}
	return n
}

// ctxEvent builds sensor event number n: a third weather reports, a
// third GPS fixes, a third RFID reads.
func (names *ctxNames) ctxEvent(seed, n int64) *event.Event {
	h := mix(seed, n)
	at := eventTime + time.Duration(n)
	var ev *event.Event
	switch n % 3 {
	case 0:
		r := int(h % ctxRegions)
		temp := 10 + float64((h>>8)%250)/10 // 10.0 … 34.9 °C; ≥ 30 a fifth of the time
		ev = event.New("weather.report", "thermo-"+names.regions[r], at).
			Set("region", event.S(names.regions[r])).
			Set("tempC", event.F(temp))
	case 1:
		u := int(h % ctxUsers)
		// Acquainted users come in pairs (u, u^1) around one spot. Three
		// fixes in five are at the spot; the rest are kilometres away.
		x, y := float64(u/2)*10, 0.0
		if (h>>16)%5 < 2 {
			x += 5 + 3*float64(u&1)
		} else {
			x += float64((h>>24)%100) / 1000
			y += float64((h>>32)%100) / 1000
		}
		ev = event.New("gps.location", names.gpsSrc[u], at).
			Set("user", event.S(names.users[u])).
			Set("x", event.F(x)).Set("y", event.F(y)).
			Set("mode", event.S("foot"))
	default:
		u := int(h % ctxUsers)
		ev = event.New("rfid.read", "rfid-"+names.readers[(h>>8)%ctxRegions], at).
			Set("user", event.S(names.users[u])).
			Set("reader", event.S(names.readers[(h>>8)%ctxRegions])).
			Set("enter", event.B((h>>16)&1 == 0))
	}
	return ev.Set("n", event.I(n)).Stamp(uint64(n))
}

// ctxRules are the rules node c runs: ten single-pattern heat alerts
// and the two-pattern nearby-friends join.
func ctxRules(names *ctxNames) []*match.Rule {
	var rules []*match.Rule
	for _, r := range names.regions {
		rules = append(rules, &match.Rule{
			Name: "hot-" + r, WindowMs: 60000, SuppressMs: -1,
			Patterns: []match.Pattern{{
				Alias:  "w",
				Filter: pubsub.NewFilter(pubsub.TypeIs("weather.report"), pubsub.Eq("region", event.S(r))),
			}},
			Where: []match.Condition{{Type: "cmp", Left: "$w.tempC", Op: "ge", Right: fmt.Sprint(ctxHotTempC)}},
			Emit: match.Emit{Type: "alert.heat", Attrs: []match.EmitAttr{
				{Name: "region", From: "$w.region"},
				{Name: "tempC", From: "$w.tempC", Volatile: true},
				{Name: "n", From: "$w.n", Volatile: true},
			}},
		})
	}
	gps := pubsub.NewFilter(pubsub.TypeIs("gps.location"))
	rules = append(rules, &match.Rule{
		Name: "nearby-friends", WindowMs: 60000, SuppressMs: -1,
		Patterns: []match.Pattern{
			{Alias: "loc", Filter: gps, Bind: []match.Binding{{Attr: "user", Var: "U"}}},
			{Alias: "floc", Filter: gps, Bind: []match.Binding{{Attr: "user", Var: "F"}}},
		},
		Where: []match.Condition{
			{Type: "cmp", Left: "$U", Op: "ne", Right: "$F"},
			{Type: "kb", S: "$U", P: "knows", O: "$F"},
			{Type: "withinKm", A: "$loc", B: "$floc", Km: ctxNearKm},
		},
		Emit: match.Emit{Type: "suggestion.nearby", Attrs: []match.EmitAttr{
			{Name: "user", From: "$U"},
			{Name: "friend", From: "$F"},
			{Name: "n1", From: "$loc.n", Volatile: true},
			{Name: "n2", From: "$floc.n", Volatile: true},
		}},
	})
	return rules
}

// ctxFacts is node c's knowledge base: who knows whom.
func ctxFacts(names *ctxNames) []knowledge.Fact {
	var fs []knowledge.Fact
	for u := 0; u < ctxUsers; u++ {
		fs = append(fs, knowledge.Fact{S: names.users[u], P: "knows", O: names.users[u^1]})
	}
	return fs
}

// journeyOf returns the number of the sensor event that caused ev: its
// own "n", or for a joined suggestion the later of the two it joins.
func journeyOf(ev *event.Event) int64 {
	if ev == nil {
		return trace.NoJourney
	}
	if v, ok := ev.Attrs["n"]; ok {
		return v.I
	}
	v1, ok1 := ev.Attrs["n1"]
	v2, ok2 := ev.Attrs["n2"]
	if ok1 && ok2 {
		if v1.I > v2.I {
			return v1.I
		}
		return v2.I
	}
	return trace.NoJourney
}

// eventSampler keeps the spans of every `every`-th journey while on is
// set, and of all traffic that carries no event (subscription changes).
func eventSampler(on *atomic.Bool, every int64) spy.Sampler {
	return func(msg wire.Message) (int64, bool) {
		if !on.Load() {
			return trace.NoJourney, false
		}
		var ev *event.Event
		switch m := msg.(type) {
		case *pubsub.PubMsg:
			ev = m.Event
		case *pubsub.DeliverMsg:
			ev = m.Event
		default:
			return trace.NoJourney, true
		}
		j := journeyOf(ev)
		return j, j >= 0 && j%every == 0
	}
}

// outputKey identifies a synthesised event by content, not by its ID
// (which embeds the emitting engine's name).
func outputKey(ev *event.Event) string {
	names := ev.Attrs.Names()
	key := ev.Type
	for _, n := range names {
		key += "|" + n + "=" + ev.Attrs[n].String()
	}
	return key
}

// fixedClock is the oracle engine's clock: events carry eventTime, so
// any instant before it keeps every buffered event inside the window.
type fixedClock struct{}

func (fixedClock) Now() time.Duration                       { return 0 }
func (fixedClock) After(time.Duration, func()) vclock.Timer { return nil }

type ctxChain struct {
	loadBase
	names   *ctxNames
	a, b, c *rig.Node

	processed atomic.Int64 // events node c's engine has consumed

	// Confined to a's actor loop; read through Call.
	lat     journeys
	outputs []*event.Event // frozen, so safe to keep; keyed only after the run
	done    []journeyEnd
	// Confined to c's actor loop; read through Call.
	order []int64
}

func runCtxChain(ctx context.Context, p Params) (*Result, error) {
	w := &ctxChain{names: newCtxNames()}
	w.p, w.res = p, newResult("ctx-chain", p)
	return runEventLoad(ctx, w, float64(p.scale(ctxPacedRate, 500)), ctxSatWindow)
}

func (w *ctxChain) base() *loadBase { return &w.loadBase }

// boot builds the core/tcp_test.go topology: three active nodes, broker
// chain a—b—c, rules and knowledge on c, suggestion subscriptions on a.
func (w *ctxChain) boot() (func(), error) {
	var sample spy.Sampler
	if w.rec != nil {
		sample = eventSampler(&w.on, ctxTraceEvery)
	}
	cl := rig.NewCluster(wire.CodecBinary, w.rec, sample)
	w.cl = cl
	for _, name := range []string{"ctx-a", "ctx-b", "ctx-c"} {
		if _, err := cl.AddActive(name, core.NodeConfig{}); err != nil {
			cl.Close()
			return nil, err
		}
	}
	w.a, w.b, w.c = cl.Nodes[0], cl.Nodes[1], cl.Nodes[2]
	cl.Mesh()
	err := chainBrokers(cl.Nodes)
	var ruleErr error
	if err == nil {
		err = w.c.Call(func() {
			for _, f := range ctxFacts(w.names) {
				w.c.Active.KB.Add(f)
			}
			for _, r := range ctxRules(w.names) {
				if err := w.c.Active.Engine.AddRule(r); err != nil {
					ruleErr = err
				}
			}
			for _, typ := range []string{"weather.report", "gps.location", "rfid.read"} {
				// SubscribeMatching with the harness's completion signal
				// behind it: DeliverEvent is the program, the rest is ours.
				w.c.Client.Subscribe(pubsub.NewFilter(pubsub.TypeIs(typ)), w.onSensorEvent)
			}
		})
	}
	if err == nil {
		err = ruleErr
	}
	if err == nil {
		err = w.a.Call(func() {
			w.a.Client.Subscribe(pubsub.NewFilter(pubsub.TypeIs("alert.heat")), w.onSuggestion)
			w.a.Client.Subscribe(pubsub.NewFilter(pubsub.TypeIs("suggestion.nearby")), w.onSuggestion)
		})
	}
	if err == nil {
		// Propagation: a must know c's three filters, c must know a's two.
		err = waitTables(map[*rig.Node]int{w.a: 5, w.b: 5, w.c: 5})
	}
	if err != nil {
		cl.Close()
		return nil, err
	}
	return cl.Close, nil
}

// chainBrokers wires nodes[0]—nodes[1]—…, each on its own actor loop.
func chainBrokers(nodes []*rig.Node) error {
	for i := 0; i+1 < len(nodes); i++ {
		l, r := nodes[i], nodes[i+1]
		if err := l.Call(func() { l.Active.Broker.AddNeighbor(r.EP.ID()) }); err != nil {
			return err
		}
		if err := r.Call(func() { r.Active.Broker.AddNeighbor(l.EP.ID()) }); err != nil {
			return err
		}
	}
	return nil
}

// waitTables polls Broker.Stats().TableEntries until every listed
// broker's subscription table has reached its expected size.
func waitTables(want map[*rig.Node]int) error {
	ok := rig.WaitFor(10*time.Second, func() bool {
		for n, entries := range want {
			got := -1
			if n.Call(func() { got = n.Active.Broker.Stats().TableEntries }) != nil || got < entries {
				return false
			}
		}
		return true
	})
	if !ok {
		return fmt.Errorf("workloads: subscriptions did not propagate within 10 s")
	}
	return nil
}

// onSensorEvent runs on c's actor loop for every sensor event.
func (w *ctxChain) onSensorEvent(ev *event.Event) {
	n := journeyOf(ev)
	w.order = append(w.order, n)
	if w.sampled(n, ctxTraceEvery) {
		w.span(spanMatchPut, w.c.Index, n, func() { w.c.Active.DeliverEvent(ev) })
	} else {
		w.c.Active.DeliverEvent(ev)
	}
	w.processed.Add(1)
	w.release(1)
}

// onSuggestion runs on a's actor loop for every synthesised event.
func (w *ctxChain) onSuggestion(ev *event.Event) {
	now := time.Now()
	w.outputs = append(w.outputs, ev)
	if !w.recording.Load() {
		return
	}
	n := journeyOf(ev)
	due := w.due.get(n)
	w.lat = append(w.lat, timed{due, float64(now.UnixNano() - due)})
	if w.sampled(n, ctxTraceEvery) {
		t := w.rec.At(now)
		w.rec.Add(trace.Span{Name: w.rec.Name(spanFinal), Node: int16(w.a.Index), Journey: n, Start: t, End: w.rec.Now()})
		w.done = append(w.done, journeyEnd{id: n, due: w.rec.At(time.Unix(0, due)), end: t, lastNode: -1})
	}
}

func (w *ctxChain) publish(n int64, due time.Time) {
	ev := w.names.ctxEvent(w.p.Seed, n)
	w.post(w.a, n, due, w.sampled(n, ctxTraceEvery), func() { w.a.Client.Publish(ev) })
}

// settle waits until c has consumed everything published, then for the
// suggestions still travelling c→b→a.
func (w *ctxChain) settle() {
	rig.WaitFor(drainTimeout, func() bool { return w.processed.Load() >= w.next })
	drainActors(w.c, w.b, w.a)
}

func (w *ctxChain) takeLatencies() journeys {
	var out journeys
	_ = w.a.Call(func() { out, w.lat = w.lat, nil })
	return out
}

func (w *ctxChain) ends() []journeyEnd {
	var out []journeyEnd
	_ = w.a.Call(func() { out = w.done })
	return out
}

func (w *ctxChain) layerMetrics() {}

// verify replays c's recorded input through a standalone engine and
// requires the multiset of suggestions a received to equal what that
// engine emits; the replay doubles as the match.put_ns measurement.
func (w *ctxChain) verify(dog *rig.Watchdog) {
	var order []int64
	_ = w.c.Call(func() { order = w.order })
	w.res.Attempted = int(w.next)
	if name := dog.Stalled(); name != "" {
		w.res.fail(int(w.next)-len(order)+1, "watchdog: actor loop of %s stalled; %d of %d events never processed",
			name, int(w.next)-len(order), w.next)
		return
	}
	if missing := int(w.next) - len(order); missing != 0 {
		w.res.fail(abs(missing), "node c consumed %d events, %d were published", len(order), w.next)
	}
	for i, n := range order {
		if n != int64(i) {
			w.res.fail(1, "node c saw event %d at position %d: the chain reordered", n, i)
			break
		}
	}
	eng := match.NewEngine(fixedClock{}, knowledge.NewKB(), knowledge.NewGIS(), match.Options{})
	for _, f := range ctxFacts(w.names) {
		eng.KB().Add(f)
	}
	for _, r := range ctxRules(w.names) {
		if err := eng.AddRule(r); err != nil {
			w.res.fail(1, "oracle rule: %v", err)
		}
	}
	var want []string
	eng.OnEmit(func(ev *event.Event) { want = append(want, outputKey(ev)) })
	events := make([]*event.Event, len(order))
	for i, n := range order {
		events[i] = w.names.ctxEvent(w.p.Seed, n).Freeze()
	}
	t0 := time.Now()
	for _, ev := range events {
		eng.Put(ev)
	}
	putNs := float64(time.Since(t0)) / float64(max(len(events), 1))

	var received []*event.Event
	rig.WaitFor(drainTimeout, func() bool {
		_ = w.a.Call(func() { received = w.outputs })
		return len(received) >= len(want)
	})
	got := make([]string, len(received))
	for i, ev := range received {
		got[i] = outputKey(ev)
	}
	if diff := multisetDiff(want, got); diff > 0 {
		w.res.fail(diff, "suggestions differ from the standalone engine's: want %d, got %d, %d mismatched",
			len(want), len(got), diff)
	}
	w.p.logf("ctx-chain oracle: %d events in order, %d suggestions expected, %d received (%.1f per 100 events)",
		len(order), len(want), len(got), 100*float64(len(want))/float64(max(len(order), 1)))
	if w.p.Trace {
		st := eng.Stats()
		in := max(int(st.EventsIn), 1)
		w.res.set("match.put_ns", putNs, "ns", len(events))
		w.res.set("match.joins_per_event", float64(st.Joins)/float64(in), "count", in)
		w.res.set("match.condfail_ratio", ratio(st.CondFails, st.Joins), "ratio", int(st.Joins))
		w.res.set("match.emit_ratio", float64(st.Emitted)/float64(in), "ratio", in)
		replayCodecs(w.res, w.cl.Reg, events, w.a.EP.ID(), w.b.EP.ID())
		var filters []pubsub.Filter
		for _, typ := range []string{"weather.report", "gps.location", "rfid.read", "alert.heat", "suggestion.nearby"} {
			filters = append(filters, pubsub.NewFilter(pubsub.TypeIs(typ)))
		}
		replayIndex(w.res, filters, events)
	}
}

// multisetDiff counts elements present in one multiset and not the other.
func multisetDiff(want, got []string) int {
	a := append([]string(nil), want...)
	b := append([]string(nil), got...)
	sort.Strings(a)
	sort.Strings(b)
	diff, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] < b[j]:
			diff++
			i++
		default:
			diff++
			j++
		}
	}
	return diff + len(a) - i + len(b) - j
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}
