package pubsub

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/ids"
)

func newNullClient() *Client {
	ep := &nullEndpoint{id: ids.FromString("client"), rng: rand.New(rand.NewSource(1))}
	return NewClient(ep, ids.FromString("broker"))
}

// TestUnsubscribeInsideHandler: a handler that withdraws a subscription
// while an event is being dispatched must neither shift the remaining
// subscriptions (one skipped, another run twice) nor dereference the one
// it withdrew. The withdrawn subscription is skipped if its turn has not
// come yet.
func TestUnsubscribeInsideHandler(t *testing.T) {
	filters := map[string]Filter{
		"a": NewFilter(TypeIs("t")),
		"b": NewFilter(Exists("x")),
		"c": NewFilter(Eq("x", event.I(1))),
		"d": NewFilter(TypeIs("t"), Eq("x", event.I(1))),
	}
	for _, tc := range []struct {
		drop string
		want map[string]int
	}{
		{"a", map[string]int{"a": 1, "b": 1, "c": 1, "d": 1}},
		{"d", map[string]int{"a": 1, "b": 1, "c": 1}},
	} {
		t.Run("a-drops-"+tc.drop, func(t *testing.T) {
			c := newNullClient()
			got := map[string]int{}
			for _, name := range []string{"a", "b", "c", "d"} {
				name := name
				c.Subscribe(filters[name], func(*event.Event) {
					got[name]++
					if name == "a" {
						c.Unsubscribe(filters[tc.drop])
					}
				})
			}
			c.Publish(event.New("t", "s", 0).Set("x", event.I(1)).Stamp(1))
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("handler calls %v, want %v", got, tc.want)
			}
		})
	}
}

// oracleClient is the linear-scan reference for Client.dispatch: every
// live subscription in subscription order, Filter.Matches on each, with
// the client's duplicate suppression.
type oracleClient struct {
	order      []*oracleSub
	seen       map[ids.ID]bool
	seenFIFO   []ids.ID
	delivered  uint64
	duplicates uint64
}

type oracleSub struct {
	key      string
	filter   Filter
	handlers []func(*event.Event)
}

func (o *oracleClient) subscribe(f Filter, h func(*event.Event)) {
	key := f.Key()
	for _, s := range o.order {
		if s.key == key {
			s.handlers = append(s.handlers, h)
			return
		}
	}
	o.order = append(o.order, &oracleSub{key: key, filter: f, handlers: []func(*event.Event){h}})
}

func (o *oracleClient) unsubscribe(f Filter) {
	key := f.Key()
	for i, s := range o.order {
		if s.key == key {
			o.order = append(o.order[:i:i], o.order[i+1:]...)
			return
		}
	}
}

func (o *oracleClient) dispatch(ev *event.Event) {
	ev.Freeze()
	if o.seen[ev.ID] {
		o.duplicates++
		return
	}
	o.seen[ev.ID] = true
	if o.seenFIFO = append(o.seenFIFO, ev.ID); len(o.seenFIFO) > seenLimit {
		delete(o.seen, o.seenFIFO[0])
		o.seenFIFO = o.seenFIFO[1:]
	}
	for _, s := range o.order {
		if s.filter.Matches(ev) {
			o.delivered++
			for _, h := range s.handlers {
				h(ev)
			}
		}
	}
}

// TestClientDispatchDifferential drives a Client and the linear-scan
// oracle with one random stream of subscribes (duplicate and overlapping
// filters from a small pool), unsubscribes and publishes, some of them
// repeated; a third of the handlers republish a derived event from inside
// the handler, so dispatch nests. After every publish the handler calls so
// far, in order, and the Delivered/Duplicates counters must agree.
func TestClientDispatchDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pool := make([]Filter, 40)
	for i := range pool {
		pool[i] = ixRandFilter(rng)
	}
	type call struct {
		handler int
		event   ids.ID
	}
	var gotLog, wantLog []call
	checked := 0 // calls already compared
	c := newNullClient()
	o := &oracleClient{seen: map[ids.ID]bool{}}
	var cDerived, oDerived uint64
	derived := func(seq *uint64, from *event.Event) *event.Event {
		*seq++
		return event.New("derived", from.ID.String(), 0).Set("x", event.I(int64(*seq%10))).Stamp(*seq)
	}
	handlers := 0
	var history []*event.Event
	for step := 0; step < 1500; step++ {
		switch r := rng.Intn(10); {
		case r < 3:
			f := pool[rng.Intn(len(pool))]
			h, emits := handlers, rng.Intn(3) == 0
			handlers++
			c.Subscribe(f, func(e *event.Event) {
				gotLog = append(gotLog, call{h, e.ID})
				if emits && e.Type != "derived" {
					c.Publish(derived(&cDerived, e))
				}
			})
			o.subscribe(f, func(e *event.Event) {
				wantLog = append(wantLog, call{h, e.ID})
				if emits && e.Type != "derived" {
					o.dispatch(derived(&oDerived, e))
				}
			})
		case r < 4:
			f := pool[rng.Intn(len(pool))]
			c.Unsubscribe(f)
			o.unsubscribe(f)
		default:
			var ev *event.Event
			if len(history) > 0 && rng.Intn(5) == 0 {
				ev = history[rng.Intn(len(history))] // a duplicate
			} else {
				ev = ixRandEvent(rng, uint64(step))
				history = append(history, ev)
			}
			c.dispatch(ev.CloneDetached())
			o.dispatch(ev.CloneDetached())
			if !slices.Equal(gotLog[checked:], wantLog[checked:]) {
				t.Fatalf("step %d: handler calls diverge:\nclient %v\noracle %v", step, gotLog[checked:], wantLog[checked:])
			}
			checked = len(gotLog)
			if c.Delivered != o.delivered || c.Duplicates != o.duplicates {
				t.Fatalf("step %d: counters diverge: client {%d,%d} oracle {%d,%d}",
					step, c.Delivered, c.Duplicates, o.delivered, o.duplicates)
			}
		}
	}
	if c.Delivered == 0 || c.Duplicates == 0 || cDerived == 0 {
		t.Fatalf("stream too tame: %d delivered, %d duplicates, %d derived", c.Delivered, c.Duplicates, cDerived)
	}
}

// TestClientDispatchAllocs: a delivery to a client holding 100
// subscriptions of mobile-subs' shape (type=gps.location ∧ user=uN)
// allocates nothing once the duplicate-suppression window is full: the
// index walk, the hit buffer and its sort reuse the client's memory.
func TestClientDispatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds do not hold under -race")
	}
	c := newNullClient()
	hits := 0
	for i := 0; i < 100; i++ {
		c.Subscribe(NewFilter(TypeIs("gps.location"), Eq("user", event.S(fmt.Sprintf("u%05d", i)))),
			func(*event.Event) { hits++ })
	}
	msgs := make([]*DeliverMsg, 2*seenLimit)
	for i := range msgs {
		msgs[i] = &DeliverMsg{Event: event.New("gps.location", "gps", 0).
			Set("user", event.S(fmt.Sprintf("u%05d", i%100))).
			Set("x", event.F(1)).Set("y", event.F(2)).Stamp(uint64(i))}
	}
	from := ids.FromString("broker")
	for _, m := range msgs[:seenLimit] {
		c.handleDeliver(nil, from, m)
	}
	next := seenLimit
	allocs := testing.AllocsPerRun(seenLimit-1, func() {
		c.handleDeliver(nil, from, msgs[next])
		next++
	})
	if hits != next {
		t.Fatalf("%d handler calls for %d deliveries", hits, next)
	}
	if allocs > 0 {
		t.Fatalf("a delivery allocates %v times, want 0", allocs)
	}
}
