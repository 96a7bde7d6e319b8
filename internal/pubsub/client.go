package pubsub

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/wire"
)

// seenLimit bounds the client's duplicate-suppression window.
const seenLimit = 4096

// Subscription is a client-side subscription handle. Several handlers may
// share one filter (e.g. a monitor and an evolution engine both watching
// node adverts through the same client).
type Subscription struct {
	Filter   Filter
	Handlers []func(*event.Event)

	seq  uint64 // subscription order: handlers of one event run in it
	gone bool   // unsubscribed
}

// Client attaches to a broker, publishes events and receives matched
// notifications. It supports Mobikit-style mobility: Detach leaves a
// buffering proxy at the old broker; AttachTo re-subscribes at the new
// broker and replays the buffered events exactly once.
type Client struct {
	ep       netapi.Endpoint
	local    netapi.LocalDeliverer // ep's local run queue, or nil
	broker   ids.ID
	subs     map[string]*Subscription
	index    *Index // over the keys of subs
	nextSeq  uint64
	seen     map[ids.ID]bool
	seenFIFO []ids.ID
	detached bool
	// hits is dispatch's buffer of matched subscriptions. A handler may
	// dispatch again (a matchlet's Emit publishes): the nested call
	// appends past its caller's run and truncates back to it on return.
	hits  []*Subscription
	onHit func(key string) // appends c.subs[key] to hits, bound once

	// Delivered counts events handed to subscription handlers.
	Delivered uint64
	// Duplicates counts suppressed duplicate deliveries.
	Duplicates uint64
}

// NewClient binds a client to ep and attaches it to the given broker.
func NewClient(ep netapi.Endpoint, broker ids.ID) *Client {
	c := &Client{
		ep:     ep,
		local:  netapi.Capabilities(ep).Local,
		broker: broker,
		subs:   make(map[string]*Subscription),
		index:  NewIndex(),
		seen:   make(map[ids.ID]bool),
	}
	c.onHit = func(key string) { c.hits = append(c.hits, c.subs[key]) }
	ep.Handle("pubsub.deliver", c.handleDeliver)
	return c
}

// Broker returns the current attachment point.
func (c *Client) Broker() ids.ID { return c.broker }

// send passes a one-way message to the current broker — through the
// endpoint's local run queue where there is one and the broker is on this
// very node (every ActiveNode's is): no inbox slot for the loop to wait on.
func (c *Client) send(msg wire.Message) {
	if c.local != nil && c.broker == c.ep.ID() {
		c.local.DeliverLocal(msg)
		return
	}
	c.ep.Send(c.broker, msg)
}

// Subscribe registers a filter with a handler and propagates it. A second
// subscription with an identical filter adds the handler rather than
// replacing the first.
func (c *Client) Subscribe(f Filter, h func(*event.Event)) {
	key := f.Key()
	sub, dup := c.subs[key]
	if !dup {
		c.nextSeq++
		sub = &Subscription{Filter: f, seq: c.nextSeq}
		c.subs[key] = sub
		c.index.Add(key, f)
	}
	sub.Handlers = append(sub.Handlers, h)
	c.send(&SubMsg{Filter: f})
}

// Unsubscribe withdraws a filter.
func (c *Client) Unsubscribe(f Filter) {
	key := f.Key()
	sub, ok := c.subs[key]
	if !ok {
		return
	}
	sub.gone = true
	delete(c.subs, key)
	c.index.Remove(key)
	c.send(&UnsubMsg{Filter: f})
}

// Publish sends an event into the network via the current broker, and
// dispatches it to this client's own matching subscriptions (the broker
// never echoes an event back to the direction it came from, so local
// subscribers need the loopback; ID dedup keeps this safe).
//
// Publishing freezes the event: from here on one immutable value is
// shared by every subscriber in the network, so the caller must not
// mutate it afterwards (mutator methods will panic). Build a fresh event
// per publish, or CloneDetached before republishing with changes.
func (c *Client) Publish(ev *event.Event) {
	ev.Freeze()
	c.send(&PubMsg{Event: ev})
	c.dispatch(ev)
}

// Detach disconnects the client, leaving a buffering proxy behind.
func (c *Client) Detach() {
	c.detached = true
	c.send(&DetachMsg{})
}

// AttachTo moves the client to a new broker: it re-subscribes there, then
// reclaims buffered events from the previous broker. onComplete (optional)
// fires when the handoff has finished; dropped is the number of events the
// proxy had to discard for lack of buffer space.
//
// When re-attaching to the same broker, the reclaim must complete before
// re-subscribing (the reclaim tears down the client's entries there);
// cross-broker, subscribing at the new broker first minimises the loss
// window, and ID dedup suppresses any overlap.
func (c *Client) AttachTo(newBroker ids.ID, timeout time.Duration, onComplete func(dropped int, err error)) {
	oldBroker := c.broker
	c.broker = newBroker
	c.detached = false
	if oldBroker != newBroker {
		c.resubscribe()
	}
	c.ep.Request(oldBroker, &ReclaimMsg{}, timeout, func(reply wire.Message, err error) {
		if oldBroker == newBroker {
			c.resubscribe()
		}
		rr, ok := reply.(*ReclaimReply)
		if err == nil && !ok {
			err = fmt.Errorf("pubsub: unexpected reclaim reply %T", reply)
		}
		if err != nil {
			if onComplete != nil {
				onComplete(0, err)
			}
			return
		}
		for _, ev := range rr.Events {
			c.dispatch(ev)
		}
		if onComplete != nil {
			onComplete(rr.Dropped, nil)
		}
	})
}

func (c *Client) resubscribe() {
	subs := make([]*Subscription, 0, len(c.subs))
	for _, s := range c.subs {
		subs = append(subs, s)
	}
	slices.SortFunc(subs, bySeq)
	for _, s := range subs {
		c.send(&SubMsg{Filter: s.Filter})
	}
}

func bySeq(a, b *Subscription) int { return cmp.Compare(a.seq, b.seq) }

func (c *Client) handleDeliver(_ netapi.Ctx, _ ids.ID, msg wire.Message) {
	c.dispatch(msg.(*DeliverMsg).Event)
}

// dispatch hands an event to every matching subscription, once per event
// ID, in subscription order. The event is frozen first: handlers share one
// immutable value (zero-copy delivery) and take Mutable()/CloneDetached()
// when they need to rewrite. A subscription withdrawn by an earlier
// handler of the same event is skipped.
func (c *Client) dispatch(ev *event.Event) {
	ev.Freeze()
	if c.seen[ev.ID] {
		c.Duplicates++
		return
	}
	c.seen[ev.ID] = true
	c.seenFIFO = append(c.seenFIFO, ev.ID)
	if len(c.seenFIFO) > seenLimit {
		delete(c.seen, c.seenFIFO[0])
		c.seenFIFO = c.seenFIFO[1:]
	}
	start := len(c.hits)
	c.index.Match(ev, c.onHit)
	end := len(c.hits)
	slices.SortFunc(c.hits[start:end], bySeq)
	for i := start; i < end; i++ {
		s := c.hits[i]
		if s.gone {
			continue
		}
		c.Delivered++
		for _, h := range s.Handlers {
			h(ev)
		}
	}
	clear(c.hits[start:end])
	c.hits = c.hits[:start]
}
