package workloads

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"github.com/gloss/active/bench/internal/rig"
	"github.com/gloss/active/bench/internal/spy"
	"github.com/gloss/active/bench/internal/trace"
	"github.com/gloss/active/internal/core"
	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/pubsub"
	"github.com/gloss/active/internal/wire"
)

const whyFanoutWide = "one hub broker, 20000 background filters, 8 subscribers on one hot filter, 520 B bodies (8000 pubs/s paced, window 64): pubsub fan-out, wire encode-once and transport batching work; match is idle"

// Frozen sizes of fanout-wide.
const (
	fanBackground  = 20000 // background filters: 200 types × 16 attributes × 7 values
	fanSubscribers = 8
	fanPacedRate   = 8000 // publishes/s, open loop
	fanSatWindow   = 64
	fanTraceEvery  = 16
	fanBodyBytes   = 520
	fanLevels      = 12 // level 0…11; the hot filter wants level > 5: half match
)

var fanBody = "<r>" + strings.Repeat("x", fanBodyBytes-7) + "</r>"

// fanEvent builds publish number n: seven attributes and a 520-byte body.
func fanEvent(seed, n int64) *event.Event {
	h := mix(seed, n)
	return event.New("ctx.reading", "probe-7", eventTime+time.Duration(n)).
		Set("level", event.I(int64(h%fanLevels))).
		Set("sensor", event.S("s-17")).
		Set("zone", event.I(int64((h>>8)%64))).
		Set("unit", event.S("lux")).
		Set("quality", event.F(float64((h>>16)%1000)/1000)).
		Set("battery", event.I(int64((h>>32)%100))).
		Set("n", event.I(n)).
		SetBody(fanBody).
		Stamp(uint64(n))
}

func fanMatches(seed, n int64) bool { return mix(seed, n)%fanLevels > 5 }

func fanHotFilter() pubsub.Filter {
	return pubsub.NewFilter(pubsub.TypeIs("ctx.reading"), pubsub.Gt("level", event.I(5)))
}

// fanBackgroundFilters is the hub's idle table: type=bg.typeNNN ∧ ctxMM=v.
func fanBackgroundFilters(count int) []pubsub.Filter {
	out := make([]pubsub.Filter, count)
	for i := range out {
		out[i] = pubsub.NewFilter(
			pubsub.TypeIs(fmt.Sprintf("bg.type%03d", i%200)),
			pubsub.Eq(fmt.Sprintf("ctx%02d", (i/200)%16), event.I(int64(i/3200))))
	}
	return out
}

// fanSub is one subscriber's state, confined to its actor loop.
type fanSub struct {
	node  *rig.Node
	last  int64 // highest event number seen
	count int
	bad   int
	lat   journeys
	done  []journeyEnd
}

type fanoutWide struct {
	loadBase
	hub, pub *rig.Node
	subs     []*fanSub
	table    int // background filters installed

	arrivals [ringMask + 1]atomic.Int32 // subscribers that have seen event n
	credit   [ringMask + 1]atomic.Int32 // window slots event n's completion frees
	pending  int32                      // non-matching publishes since the last matching one
	matching int64                      // matching publishes so far
	complete atomic.Int64               // matching publishes every subscriber has seen
}

func runFanoutWide(ctx context.Context, p Params) (*Result, error) {
	w := &fanoutWide{table: p.scale(fanBackground, 200)}
	w.p, w.res = p, newResult("fanout-wide", p)
	w.res.Rates["background_filters"] = float64(w.table)
	return runEventLoad(ctx, w, float64(p.scale(fanPacedRate, 300)), fanSatWindow)
}

func (w *fanoutWide) base() *loadBase { return &w.loadBase }

// boot builds one hub with no neighbour brokers, its background table,
// eight subscribers on the hot filter and one publisher.
func (w *fanoutWide) boot() (func(), error) {
	var sample spy.Sampler
	if w.rec != nil {
		sample = eventSampler(&w.on, fanTraceEvery)
	}
	cl := rig.NewCluster(wire.CodecBinary, w.rec, sample)
	w.cl = cl
	fail := func(err error) (func(), error) { cl.Close(); return nil, err }
	hub, err := cl.AddActive("fan-hub", core.NodeConfig{})
	if err != nil {
		return fail(err)
	}
	w.hub, w.subs = hub, nil
	for i := 0; i < fanSubscribers; i++ {
		n, err := cl.AddBare(fmt.Sprintf("fan-sub-%d", i), hub.EP.ID())
		if err != nil {
			return fail(err)
		}
		w.subs = append(w.subs, &fanSub{node: n, last: -1})
	}
	if w.pub, err = cl.AddBare("fan-pub", hub.EP.ID()); err != nil {
		return fail(err)
	}
	cl.Mesh()

	filters := fanBackgroundFilters(w.table)
	idle := ids.FromString("fan-background-client")
	for lo := 0; lo < len(filters); lo += 1000 {
		chunk := filters[lo:min(lo+1000, len(filters))]
		if err := hub.Call(func() {
			for _, f := range chunk {
				hub.Active.Broker.Subscribe(idle, f)
			}
		}); err != nil {
			return fail(err)
		}
	}
	for _, s := range w.subs {
		if err := s.node.Call(func() { s.node.Client.Subscribe(fanHotFilter(), func(ev *event.Event) { w.onReading(s, ev) }) }); err != nil {
			return fail(err)
		}
	}
	// The hub never sends to the publisher, so it would never dial it
	// and the publisher would never learn the hub speaks binary. One
	// delivery hub→publisher completes the codec negotiation.
	hello := pubsub.NewFilter(pubsub.TypeIs("bench.hello"))
	greeted := make(chan struct{}, 1)
	if err := w.pub.Call(func() {
		w.pub.Client.Subscribe(hello, func(*event.Event) {
			select {
			case greeted <- struct{}{}:
			default:
			}
		})
	}); err != nil {
		return fail(err)
	}
	if err := waitTables(map[*rig.Node]int{hub: w.table + 2}); err != nil {
		return fail(err)
	}
	first := w.subs[0].node
	if err := first.Call(func() { first.Client.Publish(event.New("bench.hello", "fan-sub-0", 0).Stamp(1)) }); err != nil {
		return fail(err)
	}
	select {
	case <-greeted:
	case <-time.After(5 * time.Second):
		return fail(fmt.Errorf("workloads: hub never reached the publisher"))
	}
	if err := w.pub.Call(func() { w.pub.Client.Unsubscribe(hello) }); err != nil {
		return fail(err)
	}
	return cl.Close, nil
}

// onReading runs on subscriber s's actor loop for every delivery.
func (w *fanoutWide) onReading(s *fanSub, ev *event.Event) {
	now := time.Now()
	n := journeyOf(ev)
	s.count++
	if n <= s.last || ev.GetNum("level") <= 5 || len(ev.Body) != fanBodyBytes {
		s.bad++ // duplicate, out of publish order, or not what the filter asked for
	}
	s.last = n
	slot := &w.arrivals[n&ringMask]
	if slot.Add(1) < fanSubscribers {
		return
	}
	// Last of the eight: the publish is fully delivered.
	slot.Store(0)
	w.complete.Add(1)
	w.release(int(w.credit[n&ringMask].Load()))
	if !w.recording.Load() {
		return
	}
	due := w.due.get(n)
	s.lat = append(s.lat, timed{due, float64(now.UnixNano() - due)})
	if w.sampled(n, fanTraceEvery) {
		t := w.rec.At(now)
		w.rec.Add(trace.Span{Name: w.rec.Name(spanFinal), Node: int16(s.node.Index), Journey: n, Start: t, End: w.rec.Now()})
		s.done = append(s.done, journeyEnd{id: n, due: w.rec.At(time.Unix(0, due)), end: t, lastNode: int16(s.node.Index)})
	}
}

// publish emits reading n. A publish nobody subscribes to gives no
// completion signal, so its window slot rides on the next matching
// publish: the hub handles publishes in order, so when that one is
// delivered the earlier ones have been matched and dropped.
func (w *fanoutWide) publish(n int64, due time.Time) {
	if fanMatches(w.p.Seed, n) {
		w.credit[n&ringMask].Store(w.pending + 1)
		w.pending = 0
		w.matching++
	} else {
		w.pending++
	}
	ev := fanEvent(w.p.Seed, n)
	w.post(w.pub, n, due, w.sampled(n, fanTraceEvery), func() { w.pub.Client.Publish(ev) })
}

func (w *fanoutWide) settle() {
	rig.WaitFor(drainTimeout, func() bool { return w.complete.Load() >= w.matching })
	w.release(int(w.pending)) // trailing non-matching publishes
	w.pending = 0
	drainActors(w.pub, w.hub)
}

func (w *fanoutWide) takeLatencies() journeys {
	var out journeys
	for _, s := range w.subs {
		_ = s.node.Call(func() { out, s.lat = append(out, s.lat...), nil })
	}
	return out
}

func (w *fanoutWide) ends() []journeyEnd {
	var out []journeyEnd
	for _, s := range w.subs {
		_ = s.node.Call(func() { out = append(out, s.done...) })
	}
	return out
}

func (w *fanoutWide) layerMetrics() {
	events := make([]*event.Event, 0, replayCap)
	for n := max(w.next-replayCap, 0); n < w.next; n++ {
		events = append(events, fanEvent(w.p.Seed, n).Freeze())
	}
	replayCodecs(w.res, w.cl.Reg, events, w.pub.EP.ID(), w.hub.EP.ID())
	replayIndex(w.res, append(fanBackgroundFilters(w.table), fanHotFilter()), events)
}

// verify requires every subscriber to have seen exactly the level > 5
// publishes, once each, in publish order.
func (w *fanoutWide) verify(dog *rig.Watchdog) {
	w.res.Attempted = int(w.next)
	if name := dog.Stalled(); name != "" {
		w.res.fail(int(w.matching-w.complete.Load())+1, "watchdog: actor loop of %s stalled; %d publishes undelivered",
			name, w.matching-w.complete.Load())
		return
	}
	for _, s := range w.subs {
		var count, bad int
		_ = s.node.Call(func() { count, bad = s.count, s.bad })
		if count != int(w.matching) {
			w.res.fail(abs(int(w.matching)-count), "%s saw %d deliveries, %d publishes matched its filter", s.node.Name, count, w.matching)
		}
		w.res.fail(bad, "%s saw %d deliveries duplicated, out of order or not matching", s.node.Name, bad)
	}
	w.p.logf("fanout-wide oracle: %d publishes, %d matched, each seen once and in order by %d subscribers",
		w.next, w.matching, len(w.subs))
}
