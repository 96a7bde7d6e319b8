package workloads

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gloss/active/bench/internal/rig"
	"github.com/gloss/active/bench/internal/spy"
	"github.com/gloss/active/bench/internal/trace"
	"github.com/gloss/active/internal/core"
	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/pubsub"
	"github.com/gloss/active/internal/wire"
)

const whyMobileSubs = "XML broker chain, 4 devices with 400 per-user filters, 2000 pubs/s beside 2 filter swaps/s paced, 10/s saturated (window 64): pubsub table writes next to reads, on the XML codec"

// Frozen sizes of mobile-subs. Every unsubscribe costs each of the
// three brokers O(table²) (reconcileAll/minimalCover): ≈10 ms at 400
// filters. In the saturate phase ten a second keep some broker busy
// ≈30 % of the time, so table maintenance shows in capacity_eps and
// cpu_us_per_event. In the paced phase two a second delay ≈6 % of the
// publishes: journey_p90_ms stays on the undelayed side and moves only
// when a reconcile gets so slow that the delayed share passes 10 %.
// (With 10/s while pacing, p90 sits among the delayed publishes, where a
// host 30 % slower for a few seconds moves it by half; at 500 filters
// even the median flips between the two modes from run to run; at 1 000
// the brokers saturate.)
const (
	mobDevices    = 4
	mobFilters    = 400 // 320 stable + 80 churn slots
	mobChurnSlots = 80
	mobPacedRate  = 2000                   // publishes/s, open loop
	mobChurnPaced = 500 * time.Millisecond // between filter swaps while pacing
	mobChurnSat   = 100 * time.Millisecond // … and while saturating
	mobProbeEvery = time.Millisecond
	mobSatWindow  = 64
	mobTraceEvery = 16
	mobMatchPct   = 80             // share of publishes aimed at a subscribed user
	mobProbeBase  = int64(1) << 40 // probe events are numbered from here
	mobApplyLimit = 3 * time.Second
)

func mobFilterFor(user string) pubsub.Filter {
	return pubsub.NewFilter(pubsub.TypeIs("gps.location"), pubsub.Eq("user", event.S(user)))
}

func mobEvent(user string, seed, n int64) *event.Event {
	h := mix(seed, n)
	return event.New("gps.location", "gps-"+user, eventTime+time.Duration(n&(mobProbeBase-1))).
		Set("user", event.S(user)).
		Set("x", event.F(float64(h%10000)/100)).
		Set("y", event.F(float64((h>>16)%10000)/100)).
		Set("mode", event.S("foot")).
		Set("n", event.I(n)).
		Stamp(uint64(n))
}

// mobSub is one subscription held by a device; its counters are
// confined to that device's actor loop.
type mobSub struct {
	user   string
	device *mobDevice
	stable bool
	last   int64
	count  int
	bad    int
	// applied is set by the first delivery: the subscription has
	// propagated a←b←c and a publish has come back.
	applied atomic.Bool
	askedAt time.Time // when Client.Subscribe was called
}

type mobDevice struct {
	node *rig.Node
	lat  journeys
	done []journeyEnd
}

type mobileSubs struct {
	loadBase
	a, b, c *rig.Node
	devices []*mobDevice
	filters int // table size in use (scaled down for smoke runs)
	slots   int // churn slots among them

	stable   []*mobSub // never unsubscribed: must see every publish exactly once
	churning []*mobSub // current occupant of each churn slot
	expect   []int     // publishes aimed at each stable subscription so far
	fresh    int       // next never-used user number

	credit   [ringMask + 1]atomic.Int32
	pending  int32
	tracked  int64        // publishes to stable subscriptions so far
	complete atomic.Int64 // of those, delivered

	// Churn state, generator goroutine only.
	nextChurn, nextProbe time.Time
	probing              *mobSub
	probeSeq             int64
	churns, applyLate    int

	applyMu sync.Mutex
	apply   latencies // Subscribe call → first delivery, from any device's loop
}

func runMobileSubs(ctx context.Context, p Params) (*Result, error) {
	w := &mobileSubs{filters: p.scale(mobFilters, 40), slots: p.scale(mobChurnSlots, 8)}
	w.p, w.res = p, newResult("mobile-subs", p)
	w.res.Rates["table_filters"] = float64(w.filters)
	w.res.Rates["churn_per_s_paced"] = float64(time.Second / mobChurnPaced)
	w.res.Rates["churn_per_s_saturate"] = float64(time.Second / mobChurnSat)
	return runEventLoad(ctx, w, float64(p.scale(mobPacedRate, 200)), mobSatWindow)
}

func (w *mobileSubs) base() *loadBase { return &w.loadBase }

// boot builds the XML chain a—b—c, four devices attached to c and
// their filters, and waits until all three brokers hold the table.
func (w *mobileSubs) boot() (func(), error) {
	var sample spy.Sampler
	if w.rec != nil {
		sample = eventSampler(&w.on, mobTraceEvery)
	}
	cl := rig.NewCluster(wire.CodecXML, w.rec, sample)
	w.cl = cl
	fail := func(err error) (func(), error) { cl.Close(); return nil, err }
	for _, name := range []string{"mob-a", "mob-b", "mob-c"} {
		if _, err := cl.AddActive(name, core.NodeConfig{}); err != nil {
			return fail(err)
		}
	}
	w.a, w.b, w.c = cl.Nodes[0], cl.Nodes[1], cl.Nodes[2]
	w.devices, w.stable, w.churning = nil, nil, nil
	for i := 0; i < mobDevices; i++ {
		n, err := cl.AddBare(fmt.Sprintf("mob-dev-%d", i), w.c.EP.ID())
		if err != nil {
			return fail(err)
		}
		w.devices = append(w.devices, &mobDevice{node: n})
	}
	cl.Mesh()
	if err := chainBrokers(cl.Nodes[:3]); err != nil {
		return fail(err)
	}
	for i := 0; i < w.filters; i++ {
		s := &mobSub{user: fmt.Sprintf("u%05d", i), device: w.devices[i%mobDevices], stable: i >= w.slots, last: -1}
		if s.stable {
			w.stable = append(w.stable, s)
		} else {
			w.churning = append(w.churning, s)
		}
		if err := w.subscribe(s); err != nil {
			return fail(err)
		}
	}
	w.expect = make([]int, len(w.stable))
	w.fresh = w.filters
	if err := waitTables(map[*rig.Node]int{w.a: w.filters, w.b: w.filters, w.c: w.filters}); err != nil {
		return fail(err)
	}
	return cl.Close, nil
}

// subscribe installs s on its device.
func (w *mobileSubs) subscribe(s *mobSub) error {
	dev := s.device
	return dev.node.Call(func() {
		dev.node.Client.Subscribe(mobFilterFor(s.user), func(ev *event.Event) { w.onFix(s, ev) })
	})
}

// onFix runs on the owning device's actor loop for every delivery.
func (w *mobileSubs) onFix(s *mobSub, ev *event.Event) {
	now := time.Now()
	n := journeyOf(ev)
	s.count++
	probe := n >= mobProbeBase
	if (!probe && n <= s.last) || ev.GetString("user") != s.user {
		s.bad++ // duplicate, out of publish order, or somebody else's fix
	}
	if !probe {
		s.last = n
	}
	if !s.applied.Swap(true) && !s.askedAt.IsZero() && w.recording.Load() {
		// A fresh subscription's first delivery: Subscribe call → now.
		w.applyMu.Lock()
		w.apply = append(w.apply, float64(now.Sub(s.askedAt)))
		w.applyMu.Unlock()
	}
	if probe {
		return
	}
	if s.stable {
		w.complete.Add(1)
		w.release(int(w.credit[n&ringMask].Load()))
	}
	if !w.recording.Load() {
		return
	}
	dev := s.device
	due := w.due.get(n)
	dev.lat = append(dev.lat, timed{due, float64(now.UnixNano() - due)})
	if w.sampled(n, mobTraceEvery) {
		t := w.rec.At(now)
		w.rec.Add(trace.Span{Name: w.rec.Name(spanFinal), Node: int16(dev.node.Index), Journey: n, Start: t, End: w.rec.Now()})
		dev.done = append(dev.done, journeyEnd{id: n, due: w.rec.At(time.Unix(0, due)), end: t, lastNode: -1})
	}
}

// publish emits fix n from a, and runs the churn that goes on beside
// the publishes: every so often one device swaps a filter for a fresh
// one, then 1 ms-spaced probe fixes for the fresh user measure how long
// the subscription took to apply.
func (w *mobileSubs) publish(n int64, due time.Time) {
	h := mix(w.p.Seed, n)
	var user string
	tracked := false
	if h%100 < mobMatchPct {
		if k := int((h >> 8) % uint64(w.filters)); k < len(w.churning) {
			user = w.churning[k].user
		} else {
			k -= len(w.churning)
			user, tracked = w.stable[k].user, true
			w.expect[k]++
		}
	} else {
		user = fmt.Sprintf("x%04d", (h>>8)%10000) // nobody subscribes to these
	}
	// Only a stable subscription is certain to deliver; every other
	// publish's window slot rides on the next one that is.
	if tracked {
		w.credit[n&ringMask].Store(w.pending + 1)
		w.pending = 0
		w.tracked++
	} else {
		w.pending++
	}
	ev := mobEvent(user, w.p.Seed, n)
	w.post(w.a, n, due, w.sampled(n, mobTraceEvery), func() { w.a.Client.Publish(ev) })
	w.churn(time.Now())
}

func (w *mobileSubs) churn(now time.Time) {
	if s := w.probing; s != nil {
		switch {
		case s.applied.Load():
			// Resolution is the probe spacing; the first probe that got
			// through was published at most 1 ms before this.
			w.probing = nil
		case now.Sub(s.askedAt) > mobApplyLimit:
			w.applyLate++
			w.probing = nil
		case !now.Before(w.nextProbe):
			w.nextProbe = now.Add(mobProbeEvery)
			w.probeSeq++
			ev := mobEvent(s.user, w.p.Seed, mobProbeBase+w.probeSeq)
			w.a.EP.Do(func() { w.a.Client.Publish(ev) })
		}
		return
	}
	every := mobChurnPaced
	if w.saturating {
		every = mobChurnSat
	}
	if w.nextChurn.IsZero() {
		w.nextChurn = now.Add(every)
	}
	if now.Before(w.nextChurn) {
		return
	}
	w.nextChurn = w.nextChurn.Add(every)
	if now.After(w.nextChurn) {
		w.nextChurn = now.Add(every) // a slow apply skipped ticks; do not burst
	}
	h := mix(w.p.Seed^0x5bd1e995, int64(w.churns))
	w.churns++
	slot := int(h % uint64(len(w.churning)))
	old := w.churning[slot]
	fresh := &mobSub{user: fmt.Sprintf("u%05d", w.fresh), device: old.device, last: -1, askedAt: now}
	w.fresh++
	w.churning[slot] = fresh
	dev := fresh.device
	dev.node.EP.Do(func() {
		dev.node.Client.Unsubscribe(mobFilterFor(old.user))
		dev.node.Client.Subscribe(mobFilterFor(fresh.user), func(ev *event.Event) { w.onFix(fresh, ev) })
	})
	w.probing, w.nextProbe = fresh, now
}

func (w *mobileSubs) settle() {
	rig.WaitFor(drainTimeout, func() bool { return w.complete.Load() >= w.tracked })
	w.release(int(w.pending))
	w.pending = 0
	drainActors(w.a, w.b, w.c)
}

func (w *mobileSubs) takeLatencies() journeys {
	var out journeys
	for _, d := range w.devices {
		_ = d.node.Call(func() { out, d.lat = append(out, d.lat...), nil })
	}
	return out
}

func (w *mobileSubs) ends() []journeyEnd {
	var out []journeyEnd
	for _, d := range w.devices {
		_ = d.node.Call(func() { out = append(out, d.done...) })
	}
	return out
}

func (w *mobileSubs) layerMetrics() {
	var events []*event.Event
	var filters []pubsub.Filter
	for _, s := range w.stable {
		filters = append(filters, mobFilterFor(s.user))
	}
	for _, s := range w.churning {
		filters = append(filters, mobFilterFor(s.user))
	}
	for n := max(w.next-replayCap, 0); n < w.next; n++ {
		events = append(events, mobEvent(w.stable[int(n)%len(w.stable)].user, w.p.Seed, n).Freeze())
	}
	replayCodecs(w.res, w.cl.Reg, events, w.a.EP.ID(), w.b.EP.ID())
	replayIndex(w.res, filters, events)
}

// verify requires every stable subscription to have seen each publish
// aimed at it exactly once and in order, every churned one to have seen
// no duplicate or foreign fix, and the brokers' tables to be back at
// their size — a filter that outlived its unsubscribe would show there.
func (w *mobileSubs) verify(dog *rig.Watchdog) {
	w.res.Attempted = int(w.next) + w.churns
	if name := dog.Stalled(); name != "" {
		w.res.fail(int(w.tracked-w.complete.Load())+1, "watchdog: actor loop of %s stalled; %d publishes undelivered",
			name, w.tracked-w.complete.Load())
		return
	}
	check := func(s *mobSub, want int) {
		var count, bad int
		_ = s.device.node.Call(func() { count, bad = s.count, s.bad })
		if want >= 0 && count != want {
			w.res.fail(abs(want-count), "subscription %s saw %d fixes, %d were published for it", s.user, count, want)
		}
		w.res.fail(bad, "subscription %s saw %d fixes duplicated, out of order or for another user", s.user, bad)
	}
	for k, s := range w.stable {
		check(s, w.expect[k])
	}
	for _, s := range w.churning {
		check(s, -1)
	}
	w.res.fail(w.applyLate, "%d fresh subscriptions saw no probe within %v", w.applyLate, mobApplyLimit)
	for _, n := range []*rig.Node{w.a, w.b, w.c} {
		entries := -1
		_ = n.Call(func() { entries = n.Active.Broker.Stats().TableEntries })
		if entries != w.filters {
			w.res.fail(1, "broker %s holds %d filters after the run, want %d: an unsubscribe did not settle", n.Name, entries, w.filters)
		}
	}
	apply := w.apply.ms()
	w.p.logf("mobile-subs oracle: %d publishes (%d to stable filters, each seen once), %d churns, apply %s",
		w.next, w.tracked, w.churns, describe(apply, "ms"))
	if w.p.Trace {
		w.res.set("sub_apply_p50_ms", apply.P50, "ms", apply.N)
	}
}
