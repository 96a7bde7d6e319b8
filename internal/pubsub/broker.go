package pubsub

import (
	"slices"
	"sort"

	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/wire"
)

// Options configure a broker.
type Options struct {
	// DisableCovering turns off covering-based pruning of subscription
	// propagation (for the E-T4 ablation). All subscriptions are then
	// forwarded verbatim.
	DisableCovering bool

	// proxyBufferLimit bounds the number of events buffered for a
	// detached mobile client. Default 1024. Not an option: only this
	// package's tests move it.
	proxyBufferLimit int
}

func (o *Options) applyDefaults() {
	if o.proxyBufferLimit == 0 {
		o.proxyBufferLimit = 1024
	}
}

// matcher is the seam between the broker and its predicate index. Index
// is the one shipped implementation; the seam exists so the differential
// tests can put a linear-scan oracle behind the same broker.
type matcher interface {
	Add(key string, f Filter)
	Remove(key string)
	Match(ev *event.Event, visit func(key string))
	Len() int
	AttrCount() int
}

// entry records one distinct filter and the directions subscribed to it.
type entry struct {
	filter Filter
	dirs   map[ids.ID]bool
}

// proxy buffers notifications for a detached mobile client.
type proxy struct {
	buf     []*event.Event
	dropped int
}

// Stats counts broker activity for the scaling experiments.
type Stats struct {
	TableEntries   int // distinct filters in the subscription table
	ForwardedSubs  int // filters currently forwarded to neighbours (total)
	IndexAttrs     int // attributes with postings in the predicate index
	SubsReceived   uint64
	PubsReceived   uint64
	Matches        uint64 // events matched at this broker
	ClientDelivers uint64
	NeighborFwds   uint64
	// EventClones is never written: fan-out shares one frozen event and
	// makes no copies. Declared only because the frozen benchmark reads it
	// (bench/internal/workloads/replay.go:169,198); the next PR allowed to
	// edit bench/ removes both.
	EventClones uint64
	// ShedDeliveries counts per-subscriber deliveries dropped because
	// the endpoint reported the destination's send queue saturated
	// (netapi.Backpressured) — fan-out shed at the broker instead of
	// overflowing the transport outbox.
	ShedDeliveries uint64
	// DrainEvents counts overload episodes that ended: a destination
	// the broker had shed toward drained back below its low watermark.
	DrainEvents uint64
}

// Broker is one node of the content-based event service.
type Broker struct {
	ep        netapi.Endpoint
	bp        netapi.Backpressured  // non-nil when the endpoint reports saturation
	local     netapi.LocalDeliverer // non-nil when ep has a local run queue
	opts      Options
	neighbors map[ids.ID]bool
	nborOrder []ids.ID // sorted, for deterministic iteration
	entries   map[string]*entry
	entryKeys []string          // sorted
	index     matcher           // access-predicate view of entries
	covers    map[ids.ID]*cover // per neighbour: what it holds on our behalf
	proxies   map[ids.ID]*proxy
	shedTo    map[ids.ID]struct{} // destinations with an open shed episode
	stats     Stats
	pub       pubScratch
}

// pubScratch is handlePub's working set. The broker owns it and resets it
// on each publish, so a publish allocates only the messages it sends.
// One set per broker is enough because handlePub never re-enters itself:
// nothing it calls dispatches a message to a handler on the way —
// DeliverLocal queues on the endpoint's local run queue, Send enqueues
// (an outbox, the inbox, the simulator's scheduler) — and the target
// lists it lends out are only borrowed: netapi.SendMany iterates tos
// before it returns.
type pubScratch struct {
	from     ids.ID              // the publish's arrival direction
	matched  bool                // some table entry matched
	targets  map[ids.ID]struct{} // distinct destinations; cleared, so it keeps its buckets
	order    []ids.ID            // targets in ids.Cmp order
	fwds     []ids.ID            // neighbour brokers, sent one PubMsg
	delivers []ids.ID            // clients, sent one DeliverMsg
	visit    func(key string)    // b.collect, bound once so Match gets no fresh closure
}

// NewBroker constructs a broker bound to ep and registers its handlers.
// A publish is matched, classified and sent on the endpoint's callback
// goroutine, one netapi.SendMany per message kind, so the per-destination
// order of what the broker sends is the order it handled the publishes in.
func NewBroker(ep netapi.Endpoint, opts Options) *Broker {
	opts.applyDefaults()
	b := &Broker{
		ep:        ep,
		opts:      opts,
		neighbors: make(map[ids.ID]bool),
		entries:   make(map[string]*entry),
		index:     NewIndex(),
		covers:    make(map[ids.ID]*cover),
		proxies:   make(map[ids.ID]*proxy),
		shedTo:    make(map[ids.ID]struct{}),
	}
	b.pub.targets = make(map[ids.ID]struct{})
	b.pub.visit = b.collect
	caps := netapi.Capabilities(ep)
	b.local = caps.Local
	if caps.Backpressure != nil {
		b.bp = caps.Backpressure
		b.bp.OnDrain(b.onDrain)
	}
	ep.Handle("pubsub.sub", b.handleSub)
	ep.Handle("pubsub.unsub", b.handleUnsub)
	ep.Handle("pubsub.pub", b.handlePub)
	ep.Handle("pubsub.peer", b.handlePeer)
	ep.Handle("pubsub.detach", b.handleDetach)
	ep.Handle("pubsub.reclaim", b.handleReclaim)
	return b
}

// ID returns the broker's node ID.
func (b *Broker) ID() ids.ID { return b.ep.ID() }

// AddNeighbor marks id as a peer broker. The overlay must remain acyclic;
// topology construction is the caller's responsibility (see ConnectBrokers).
//
//vetactive:actoronly
func (b *Broker) AddNeighbor(id ids.ID) {
	if b.neighbors[id] {
		return
	}
	b.neighbors[id] = true
	b.nborOrder = append(b.nborOrder, id)
	slices.SortFunc(b.nborOrder, ids.Cmp)
	b.covers[id] = &cover{covering: !b.opts.DisableCovering, hidden: make(map[string]coverEntry)}
}

// RemoveNeighbor severs a peer link (e.g. after the peer broker died):
// subscriptions that arrived from that direction are retracted, and the
// cover kept toward it is discarded. Safe to call for unknown ids.
//
//vetactive:actoronly
func (b *Broker) RemoveNeighbor(id ids.ID) {
	if !b.neighbors[id] {
		return
	}
	delete(b.neighbors, id)
	for i, n := range b.nborOrder {
		if n == id {
			b.nborOrder = append(b.nborOrder[:i], b.nborOrder[i+1:]...)
			break
		}
	}
	delete(b.covers, id)
	b.retractAll(id)
}

// Neighbors lists the current peer brokers in deterministic order.
func (b *Broker) Neighbors() []ids.ID {
	out := make([]ids.ID, len(b.nborOrder))
	copy(out, b.nborOrder)
	return out
}

// Resync pushes the full desired subscription set to every neighbour —
// called after AddNeighbor when the topology has been repaired, so the
// new link learns what must flow over it; covers already in step send nothing.
//
//vetactive:actoronly
func (b *Broker) Resync() {
	for _, n := range b.nborOrder {
		b.refresh(n)
	}
	b.flush()
}

// refresh brings neighbour n's cover in step with the tables: every entry
// n wants is added, every other removed — no-ops where nothing changed.
//
//vetactive:actoronly
func (b *Broker) refresh(n ids.ID) {
	c := b.covers[n]
	for _, key := range b.entryKeys {
		if ent := b.entries[key]; b.wants(n, ent) {
			c.add(key, ent.filter)
		} else {
			c.remove(key)
		}
	}
}

// ConnectBrokers wires two brokers as neighbours (both directions), in
// memory: no message is sent. It serves harnesses that wire brokers by
// hand; a deployment links a broker to its parent over PeerMsg.
//
//vetactive:actorloop
func ConnectBrokers(a, b *Broker) {
	a.AddNeighbor(b.ID())
	b.AddNeighbor(a.ID())
}

// Stats returns a snapshot of activity counters and table sizes. It
// must run on the broker's owning goroutine: counters and tables are
// actor-confined, and nothing of the broker runs elsewhere.
//
//vetactive:ignore atomicstats actor-confined; the broker owns no goroutine
func (b *Broker) Stats() Stats {
	s := b.stats
	s.TableEntries = len(b.entries)
	s.IndexAttrs = b.index.AttrCount()
	for _, c := range b.covers {
		s.ForwardedSubs += len(c.sent)
	}
	return s
}

// addEntry installs a new distinct filter in the subscription table and
// the predicate index together; the two must never diverge.
//
//vetactive:actoronly
func (b *Broker) addEntry(key string, f Filter) *entry {
	ent := &entry{filter: f, dirs: make(map[ids.ID]bool)}
	b.entries[key] = ent
	b.addEntryKey(key)
	b.index.Add(key, f)
	return ent
}

// dropEntry removes a distinct filter from the table and the index.
//
//vetactive:actoronly
func (b *Broker) dropEntry(key string) {
	delete(b.entries, key)
	b.dropEntryKey(key)
	b.index.Remove(key)
}

//vetactive:actoronly
func (b *Broker) addEntryKey(key string) {
	i := sort.SearchStrings(b.entryKeys, key)
	if i < len(b.entryKeys) && b.entryKeys[i] == key {
		return
	}
	b.entryKeys = append(b.entryKeys, "")
	copy(b.entryKeys[i+1:], b.entryKeys[i:])
	b.entryKeys[i] = key
}

//vetactive:actoronly
func (b *Broker) dropEntryKey(key string) {
	i := sort.SearchStrings(b.entryKeys, key)
	if i < len(b.entryKeys) && b.entryKeys[i] == key {
		b.entryKeys = append(b.entryKeys[:i], b.entryKeys[i+1:]...)
	}
}

// --- subscription handling ---------------------------------------------------

//vetactive:actorloop
func (b *Broker) handleSub(_ netapi.Ctx, from ids.ID, msg wire.Message) {
	sub := msg.(*SubMsg)
	b.stats.SubsReceived++
	b.subscribe(from, sub.Filter)
}

// subscribe records a subscription arriving from dir and adds it to the
// desired set of every other direction that wants it.
//
//vetactive:actoronly
func (b *Broker) subscribe(from ids.ID, f Filter) {
	key := f.Key()
	ent, ok := b.entries[key]
	if !ok {
		ent = b.addEntry(key, f)
	}
	ent.dirs[from] = true
	for _, n := range b.nborOrder {
		if n != from && b.wants(n, ent) {
			b.covers[n].add(key, f)
		}
	}
	b.flush()
}

// wants reports whether ent belongs to neighbour n's desired set: some
// direction other than n subscribes to it.
func (b *Broker) wants(n ids.ID, ent *entry) bool { return !ent.onlyFrom(n) }

// onlyFrom reports whether n is the entry's sole subscriber.
func (ent *entry) onlyFrom(n ids.ID) bool { return len(ent.dirs) == 1 && ent.dirs[n] }

// flush ends every cover change: it sends each neighbour what its cover has
// logged, Subs first and Unsubs last, so what stays desired stays covered.
//
//vetactive:actoronly
func (b *Broker) flush() {
	for _, n := range b.nborOrder {
		c := b.covers[n]
		for _, e := range c.subs {
			b.ep.Send(n, &SubMsg{Filter: e.f})
		}
		for _, e := range c.unsubs {
			b.ep.Send(n, &UnsubMsg{Filter: e.f})
		}
		c.subs, c.unsubs = c.subs[:0], c.unsubs[:0]
	}
}

//vetactive:actorloop
func (b *Broker) handleUnsub(_ netapi.Ctx, from ids.ID, msg wire.Message) {
	unsub := msg.(*UnsubMsg)
	b.unsubscribe(from, unsub.Filter)
}

//vetactive:actoronly
func (b *Broker) unsubscribe(from ids.ID, f Filter) {
	key := f.Key()
	if ent, ok := b.entries[key]; ok && ent.dirs[from] {
		b.retract(from, key, ent)
		b.flush()
	}
}

// retract drops direction from from the entry under key, and the filter from
// the desired set of every neighbour it no longer concerns. The caller flushes.
//
//vetactive:actoronly
func (b *Broker) retract(from ids.ID, key string, ent *entry) {
	delete(ent.dirs, from)
	if len(ent.dirs) == 0 {
		b.dropEntry(key)
	}
	for _, n := range b.nborOrder {
		if len(ent.dirs) == 0 || ent.onlyFrom(n) {
			b.covers[n].remove(key)
		}
	}
}

// retractAll retracts every subscription held by direction from (a client
// that moved on, a neighbour that died) and flushes once.
//
//vetactive:actoronly
func (b *Broker) retractAll(from ids.ID) {
	for _, key := range append([]string(nil), b.entryKeys...) {
		if ent := b.entries[key]; ent.dirs[from] {
			b.retract(from, key, ent)
		}
	}
	b.flush()
}

// --- notification handling -------------------------------------------------------

//vetactive:actorloop
func (b *Broker) handlePub(_ netapi.Ctx, from ids.ID, msg wire.Message) {
	pub := msg.(*PubMsg)
	b.stats.PubsReceived++
	ev := pub.Event
	// One frozen event backs every local delivery, proxy buffer slot and
	// outgoing message. Freezing here (rather than at decode) keeps wire
	// round-trips byte-identical while guaranteeing no subscriber can
	// rewrite what its neighbours see.
	ev.Freeze()
	s := &b.pub
	clear(s.targets)
	s.from, s.matched = from, false
	b.index.Match(ev, s.visit)
	if s.matched {
		b.stats.Matches++
	}
	if len(s.targets) == 0 {
		return
	}
	s.order = s.order[:0]
	for d := range s.targets {
		s.order = append(s.order, d)
	}
	if len(s.order) > 1 {
		slices.SortFunc(s.order, ids.Cmp)
	}
	// Partition the fan-out by message kind so each group rides one
	// multicast: the message — and under a serialising transport its
	// encoded body — is built once for all destinations in the group
	// (encode once, send many).
	s.fwds, s.delivers = s.fwds[:0], s.delivers[:0]
	self, toSelf := b.ep.ID(), false
	for _, d := range s.order {
		if b.neighbors[d] {
			b.stats.NeighborFwds++
			s.fwds = append(s.fwds, d)
			continue
		}
		if p, detached := b.proxies[d]; detached {
			if len(p.buf) >= b.opts.proxyBufferLimit {
				p.dropped++
				continue
			}
			p.buf = append(p.buf, ev)
			continue
		}
		// Shed the lowest-value fan-out work first: a delivery toward a
		// saturated subscriber link is dropped here, before the encode,
		// rather than overflowing the transport outbox. Forwards to
		// neighbour brokers (above) are never shed — they serve whole
		// subtrees, and shedding would starve every subscriber behind
		// them for one congested hop.
		if b.bp != nil && b.bp.Saturated(d) {
			b.stats.ShedDeliveries++
			b.shedTo[d] = struct{}{}
			continue
		}
		b.stats.ClientDelivers++
		// This node's own client leaves the target set where the endpoint
		// has a cheaper way to it than a send to self.
		if d == self && b.local != nil {
			toSelf = true
			continue
		}
		s.delivers = append(s.delivers, d)
	}
	if toSelf {
		b.local.DeliverLocal(&DeliverMsg{Event: ev})
	}
	if len(s.fwds) > 0 {
		netapi.SendMany(b.ep, s.fwds, &PubMsg{Event: ev})
	}
	if len(s.delivers) > 0 {
		netapi.SendMany(b.ep, s.delivers, &DeliverMsg{Event: ev})
	}
}

// collect is handlePub's index visitor: the directions subscribed to the
// matched entry key, bar the publish's own arrival direction, join the
// target set.
func (b *Broker) collect(key string) {
	s := &b.pub
	s.matched = true
	for d := range b.entries[key].dirs {
		if d != s.from {
			s.targets[d] = struct{}{}
		}
	}
}

// Close is a no-op: the broker owns no goroutine, and every publish it
// handled has been sent to the endpoint by the time its handler returns.
func (b *Broker) Close() {}

// onDrain is the endpoint's below-the-low-watermark-again signal: the
// destination can absorb fan-out again. A shed episode toward it is
// finalised into DrainEvents so overload episodes are countable.
//
//vetactive:actoronly
func (b *Broker) onDrain(to ids.ID) {
	if _, shed := b.shedTo[to]; shed {
		delete(b.shedTo, to)
		b.stats.DrainEvents++
	}
}

// Subscribe installs a subscription as if a SubMsg had arrived from the
// direction from — the local-injection seam the experiment harness and
// benchmarks use to build large subscription tables without a network.
// Like every handler it must run on the actor goroutine.
//
//vetactive:actoronly
func (b *Broker) Subscribe(from ids.ID, f Filter) {
	b.stats.SubsReceived++
	b.subscribe(from, f)
}

// Publish runs the full publish pipeline — match, classification, shed
// decisions, fan-out — for msg as if it had arrived from the direction
// from; the experiment harness's injection seam, actor goroutine only.
//
//vetactive:actoronly
func (b *Broker) Publish(from ids.ID, msg *PubMsg) {
	b.handlePub(nil, from, msg)
}

// --- topology repair ------------------------------------------------------------------

// handlePeer registers the sender as a peer broker and resynchronises the
// subscription state flowing over the new link.
//
//vetactive:actorloop
func (b *Broker) handlePeer(_ netapi.Ctx, from ids.ID, _ wire.Message) {
	if b.neighbors[from] {
		return
	}
	b.AddNeighbor(from)
	b.Resync()
}

// --- mobility -----------------------------------------------------------------------

//vetactive:actorloop
func (b *Broker) handleDetach(_ netapi.Ctx, from ids.ID, _ wire.Message) {
	if _, ok := b.proxies[from]; !ok {
		b.proxies[from] = &proxy{}
	}
}

//vetactive:actorloop
func (b *Broker) handleReclaim(ctx netapi.Ctx, from ids.ID, _ wire.Message) {
	p := b.proxies[from]
	reply := &ReclaimReply{}
	if p != nil {
		reply.Events = p.buf
		reply.Dropped = p.dropped
	}
	delete(b.proxies, from)
	// The client has moved on: drop all its subscriptions here.
	b.retractAll(from)
	ctx.Reply(reply)
}
