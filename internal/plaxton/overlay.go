// Package plaxton implements the deterministic structured overlay the
// paper's storage architecture relies on (§3, §4.5): Plaxton-style prefix
// routing with Pastry's concrete node state — a digit-indexed routing
// table plus a leaf set of numerically adjacent nodes. Routing reaches the
// live node whose ID is numerically closest to the target key in
// O(log₁₆ N) hops, which is what makes the P2P storage layer's document
// discovery deterministic ("data can always be found").
package plaxton

import (
	"fmt"
	"log/slog"
	"slices"
	"time"

	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/vclock"
	"github.com/gloss/active/internal/wire"
)

// Options configure an overlay node.
type Options struct {
	// LeafHalf is the number of leaf-set entries maintained on each side
	// of the local node. Default 8.
	LeafHalf int
	// HeartbeatInterval is the period of leaf-set liveness probing and
	// routing-table maintenance. There is no default: zero (or negative)
	// leaves maintenance off, so a dead node is never noticed and the
	// store never re-replicates around it. Worlds with churn set it (1-5s
	// in the experiments); static benchmark worlds leave it off.
	//
	// A ping received counts as an ack: a peer that pinged this node
	// within the last interval is not probed, so two nodes that list each
	// other exchange one ping and one pong per interval, not two of each.
	// A peer that pinged just before it died is therefore probed one
	// interval later, and a node that lists a dead peer forgets it within
	// 2×HeartbeatInterval + ProbeTimeout of the peer's last ping landing
	// (HeartbeatInterval + ProbeTimeout when the peer never pings it).
	HeartbeatInterval time.Duration
	// ProbeTimeout bounds liveness probes. Default 500ms.
	ProbeTimeout time.Duration
	// JoinTimeout bounds the join protocol. Default 10s.
	JoinTimeout time.Duration
	// Logger receives overlay diagnostics; nil discards them.
	Logger *slog.Logger
}

func (o *Options) applyDefaults() {
	if o.LeafHalf == 0 {
		o.LeafHalf = 8
	}
	if o.ProbeTimeout == 0 {
		o.ProbeTimeout = 500 * time.Millisecond
	}
	if o.JoinTimeout == 0 {
		o.JoinTimeout = 10 * time.Second
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
}

// RouteInfo describes a routed message's journey so far.
type RouteInfo struct {
	// Key is the routing target.
	Key ids.ID
	// Origin is the node that initiated the route.
	Origin ids.ID
	// Hops is the number of network hops taken so far.
	Hops int
	// Path lists the nodes traversed (only when the route was traced).
	Path []ids.ID
}

// DeliverFunc receives a message routed to this node.
type DeliverFunc func(info RouteInfo, msg wire.Message)

// ForwardHook observes (and may consume) a message of the kind it was
// registered for passing through this node on its way to key. Returning
// true stops the routing — the hook has handled the message (this is how
// promiscuous caching answers reads mid-path, §4.5).
type ForwardHook func(info RouteInfo, msg wire.Message) bool

// Stats counts routing activity.
type Stats struct {
	Forwarded   uint64 // messages passed to a next hop
	Delivered   uint64 // messages delivered locally
	HookHandled uint64 // messages consumed by the forward hook
	JoinsServed uint64
}

// Overlay is one overlay node.
type Overlay struct {
	ep     netapi.Endpoint
	reg    *wire.Registry
	binary bool // routed payloads of wire.BinaryMessage types travel in binary form
	opts   Options
	log    *slog.Logger
	self   ids.ID
	table  [ids.Digits][16]ids.ID
	leaves *leafSet

	handlers    map[string]DeliverFunc
	hooks       map[string]ForwardHook
	leavesDirty []func()

	joined bool
	join   *joining // the join in progress, nil when none is

	probing   map[ids.ID]bool
	probeNext int // round-robin index over table rows for maintenance
	// pinged is when each peer last pinged this node, while that was
	// within the last HeartbeatInterval: such a peer is not probed.
	// forget drops a peer, and every heartbeat drops the older entries.
	pinged map[ids.ID]time.Duration
	// dead quarantines recently failed nodes (ID → expiry) so that leaf
	// repair gossip cannot reinstate them before every neighbour has
	// purged them — otherwise two nodes with staggered heartbeats can
	// re-teach each other a dead node forever.
	dead  map[ids.ID]time.Duration
	stats Stats
}

// joining is a join in progress. It completes once the joiner holds the
// state of every hop on the join route, whatever order those states
// arrive in, and every node in that view has answered its announce or
// timed out: a node that has joined is known to the nodes it knows.
type joining struct {
	done  func(error)
	timer vclock.Timer
	// states counts the StateMsgs received; last is the root's hop
	// number, -1 until its Done has arrived.
	states, last int
	// unanswered counts announces not yet answered or timed out; zero
	// until every hop's state is in.
	unanswered int
}

// New constructs an overlay node bound to ep. codec is the node's wire
// codec (wire.CodecXML or wire.CodecBinary; "" is XML): it selects the
// form routed payloads are encoded in, while both forms are accepted from
// other nodes. Call CreateNetwork on the first node and Join on the rest.
func New(ep netapi.Endpoint, reg *wire.Registry, codec string, opts Options) *Overlay {
	opts.applyDefaults()
	o := &Overlay{
		ep:       ep,
		reg:      reg,
		binary:   codec == wire.CodecBinary,
		opts:     opts,
		log:      opts.Logger.With("node", ep.ID().Short()),
		self:     ep.ID(),
		leaves:   newLeafSet(ep.ID(), opts.LeafHalf),
		handlers: make(map[string]DeliverFunc),
		hooks:    make(map[string]ForwardHook),
		probing:  make(map[ids.ID]bool),
		pinged:   make(map[ids.ID]time.Duration),
		dead:     make(map[ids.ID]time.Duration),
	}
	ep.Handle("plaxton.route", o.handleRoute)
	ep.Handle("plaxton.join", o.handleJoin)
	ep.Handle("plaxton.state", o.handleState)
	ep.Handle("plaxton.announce", o.handleAnnounce)
	ep.Handle("plaxton.ping", o.handlePing)
	ep.Handle("plaxton.leafreq", func(ctx netapi.Ctx, from ids.ID, _ wire.Message) {
		o.learn(from)
		ctx.Reply(&LeafReplyMsg{Leaves: o.leaves.members()})
	})
	return o
}

// ID returns the node's overlay identifier.
func (o *Overlay) ID() ids.ID { return o.self }

// Joined reports whether the node participates in the overlay.
func (o *Overlay) Joined() bool { return o.joined }

// Stats returns a snapshot of routing counters. Must run on the
// overlay's owning goroutine: routing state is confined to the
// endpoint's delivery loop.
//
//vetactive:ignore atomicstats actor-confined to the endpoint delivery goroutine
func (o *Overlay) Stats() Stats { return o.stats }

// Leaves returns a copy of the current leaf-set members.
func (o *Overlay) Leaves() []ids.ID { return slices.Clone(o.leaves.members()) }

// OnDeliver registers the upcall for routed messages of the given payload
// kind.
func (o *Overlay) OnDeliver(kind string, fn DeliverFunc) { o.handlers[kind] = fn }

// SetForwardHook installs the mid-path interception hook for routed
// messages of the given payload kind. Other kinds pass through this node
// without being decoded.
func (o *Overlay) SetForwardHook(kind string, h ForwardHook) { o.hooks[kind] = h }

// OnLeavesChanged registers a callback invoked whenever leaf-set
// membership changes (the storage layer re-replicates on this signal).
func (o *Overlay) OnLeavesChanged(fn func()) {
	o.leavesDirty = append(o.leavesDirty, fn)
}

// CreateNetwork bootstraps a brand-new overlay consisting of this node.
func (o *Overlay) CreateNetwork() {
	o.joined = true
	o.startMaintenance()
}

// Join enters the overlay via the given bootstrap node. done fires with
// nil once the node has joined — it holds the state of every node on its
// join route, and every node in that view has answered its announce or
// timed out — or with an error after JoinTimeout (e.g. when the
// bootstrap is dead).
func (o *Overlay) Join(bootstrap ids.ID, done func(error)) {
	if o.joined {
		if done != nil {
			done(nil)
		}
		return
	}
	j := &joining{done: done, last: -1}
	o.join = j
	j.timer = o.ep.Clock().After(o.opts.JoinTimeout, func() {
		if o.join == j {
			o.finishJoin(fmt.Errorf("plaxton: join via %s timed out", bootstrap.Short()))
		}
	})
	o.ep.Send(bootstrap, &JoinMsg{Joiner: o.self})
}

func (o *Overlay) finishJoin(err error) {
	j := o.join
	o.join = nil
	j.timer.Stop()
	if err == nil {
		o.joined = true
		o.startMaintenance()
	}
	if j.done != nil {
		j.done(err)
	}
}

// --- routing -----------------------------------------------------------------

// Route sends msg toward the live node numerically closest to key.
// Local delivery happens synchronously when this node is the root.
func (o *Overlay) Route(key ids.ID, msg wire.Message) error {
	return o.route(key, msg, false)
}

// RouteTraced is Route, but records the identities of the nodes the
// message traverses; the delivery upcall sees them in RouteInfo.Path.
// The storage layer uses this for path caching.
func (o *Overlay) RouteTraced(key ids.ID, msg wire.Message) error {
	return o.route(key, msg, true)
}

func (o *Overlay) route(key ids.ID, msg wire.Message, trace bool) error {
	rm := &RouteMsg{
		Key:       key.String(),
		Origin:    o.self.String(),
		Trace:     trace,
		InnerKind: msg.Kind(),
	}
	return o.routeStep(key, o.self, rm, msg)
}

func (o *Overlay) handleRoute(_ netapi.Ctx, from ids.ID, msg wire.Message) {
	o.learn(from)
	rm := msg.(*RouteMsg)
	key, err := ids.Parse(rm.Key)
	if err != nil {
		o.log.Warn("bad route key", "err", err)
		return
	}
	origin, err := ids.Parse(rm.Origin)
	if err != nil {
		o.log.Warn("bad route origin", "err", err)
		return
	}
	rm.Hops++
	if rm.Trace {
		rm.Path = append(rm.Path, o.self.String())
	}
	_ = o.routeStep(key, origin, rm, nil) // only a payload of our own can fail to encode
}

// routeStep decides the next hop for rm, or delivers it locally. msg is
// rm's payload where the caller holds it decoded — at the origin, whose
// rm has no Inner until the message has to leave the node — and nil
// otherwise; a hop decodes the payload at most once, and only for a kind
// that has a hook or is delivered here.
func (o *Overlay) routeStep(key ids.ID, origin ids.ID, rm *RouteMsg, msg wire.Message) error {
	if hook := o.hooks[rm.InnerKind]; hook != nil {
		if msg == nil {
			msg, _ = o.decodeInner(rm) // undecodable: nothing to offer the hook
		}
		if msg != nil && hook(o.routeInfo(key, origin, rm), msg) {
			o.stats.HookHandled++
			return nil
		}
	}
	next := o.nextHop(key)
	if next == o.self {
		o.deliverLocal(key, origin, rm, msg)
		return nil
	}
	if rm.Inner == nil && msg != nil {
		inner, err := o.encodeInner(msg)
		if err != nil {
			return fmt.Errorf("plaxton: encode payload: %w", err)
		}
		rm.Inner = inner
	}
	o.stats.Forwarded++
	o.ep.Send(next, rm)
	return nil
}

// routeInfo assembles the delivery metadata for rm.
func (o *Overlay) routeInfo(key ids.ID, origin ids.ID, rm *RouteMsg) RouteInfo {
	info := RouteInfo{Key: key, Origin: origin, Hops: rm.Hops}
	if rm.Trace {
		path, err := stringsToIDs(rm.Path)
		if err == nil {
			info.Path = path
		}
	}
	return info
}

// nextHop implements the Pastry routing rule.
func (o *Overlay) nextHop(key ids.ID) ids.ID { return o.nextHopEx(key, ids.Zero) }

// nextHopEx is nextHop with one candidate excluded — used by the join
// protocol, where the joiner itself must never be chosen as the next hop.
func (o *Overlay) nextHopEx(key ids.ID, exclude ids.ID) ids.ID {
	if key == o.self {
		return o.self
	}
	if o.leaves.inRange(key) {
		best := o.self
		for _, id := range o.leaves.members() {
			if id != exclude && ids.Closer(key, id, best) {
				best = id
			}
		}
		return best
	}
	l := ids.CommonPrefixLen(key, o.self)
	d := key.Digit(l)
	if e := o.table[l][d]; !e.IsZero() && e != exclude {
		return e
	}
	// Rare case: any known node with an equal-or-longer shared prefix
	// that is numerically closer than us.
	best := o.self
	consider := func(id ids.ID) {
		if id.IsZero() || id == o.self || id == exclude {
			return
		}
		if ids.CommonPrefixLen(key, id) >= l && ids.Closer(key, id, best) {
			best = id
		}
	}
	for _, id := range o.leaves.members() {
		consider(id)
	}
	for r := range o.table {
		for c := range o.table[r] {
			consider(o.table[r][c])
		}
	}
	return best
}

// encodeInner gives a routed payload its wire form: on a binary-codec
// node, wire.BinaryMagic followed by the message's own binary body (the
// kind travels beside it as RouteMsg.InnerKind, so no interned kind table
// has to match along the path); otherwise the open XML envelope.
func (o *Overlay) encodeInner(msg wire.Message) ([]byte, error) {
	if bm, ok := msg.(wire.BinaryMessage); ok && o.binary {
		return wire.MarshalBinary([]byte{wire.BinaryMagic}, bm), nil
	}
	return o.reg.Encode(&wire.Envelope{From: o.self, To: o.self, Msg: msg})
}

// decodeInner sniffs the payload's first byte as transport does with a
// frame, so XML- and binary-codec nodes route through each other. Inner is
// never modified once built, so the decoded message may alias it.
func (o *Overlay) decodeInner(rm *RouteMsg) (wire.Message, error) {
	if !wire.IsBinaryFrame(rm.Inner) {
		env, err := o.reg.Decode(rm.Inner)
		if err != nil {
			return nil, err
		}
		if env.Msg == nil || env.Msg.Kind() != rm.InnerKind {
			return nil, fmt.Errorf("plaxton: routed payload is not a %q", rm.InnerKind)
		}
		return env.Msg, nil
	}
	msg, err := o.reg.New(rm.InnerKind)
	if err != nil {
		return nil, err
	}
	bm, ok := msg.(wire.BinaryMessage)
	if !ok {
		return nil, fmt.Errorf("plaxton: kind %q has no binary form", rm.InnerKind)
	}
	if err := bm.ParseWire(wire.NewBinReaderBorrowed(rm.Inner[1:])); err != nil {
		return nil, err
	}
	return msg, nil
}

func (o *Overlay) deliverLocal(key ids.ID, origin ids.ID, rm *RouteMsg, msg wire.Message) {
	h, ok := o.handlers[rm.InnerKind]
	if !ok {
		o.log.Warn("no deliver handler", "kind", rm.InnerKind)
		return
	}
	if msg == nil {
		var err error
		if msg, err = o.decodeInner(rm); err != nil {
			o.log.Warn("undecodable routed payload", "kind", rm.InnerKind, "err", err)
			return
		}
	}
	o.stats.Delivered++
	h(o.routeInfo(key, origin, rm), msg)
}

// --- state learning -----------------------------------------------------------

// learn opportunistically inserts a node into the routing state.
func (o *Overlay) learn(id ids.ID) {
	if id == o.self || id.IsZero() {
		return
	}
	if exp, quarantined := o.dead[id]; quarantined {
		if o.ep.Clock().Now() < exp {
			return
		}
		delete(o.dead, id)
	}
	if o.leaves.insert(id) {
		o.notifyLeaves()
	}
	r := ids.CommonPrefixLen(id, o.self)
	if r < ids.Digits {
		c := id.Digit(r)
		if o.table[r][c].IsZero() {
			o.table[r][c] = id
		}
	}
}

// forget removes a failed node everywhere and quarantines it against
// reinsertion by repair gossip.
func (o *Overlay) forget(id ids.ID) {
	quarantine := 4 * o.opts.HeartbeatInterval
	if quarantine <= 0 {
		quarantine = 10 * time.Second
	}
	o.dead[id] = o.ep.Clock().Now() + quarantine
	delete(o.pinged, id)
	changed := o.leaves.remove(id)
	for r := range o.table {
		for c := range o.table[r] {
			if o.table[r][c] == id {
				o.table[r][c] = ids.Zero
			}
		}
	}
	if changed {
		o.notifyLeaves()
		o.repairLeaves()
	}
}

func (o *Overlay) notifyLeaves() {
	for _, fn := range o.leavesDirty {
		fn()
	}
}

// --- join protocol --------------------------------------------------------------

func (o *Overlay) handleJoin(_ netapi.Ctx, from ids.ID, msg wire.Message) {
	jm := msg.(*JoinMsg)
	joiner := jm.Joiner
	// Learn the previous hop, but never the joiner itself before routing:
	// the join must reach the node that is currently numerically closest,
	// not shortcut to the newcomer.
	if from != joiner {
		o.learn(from)
	}
	o.stats.JoinsServed++
	next := o.nextHopEx(joiner, joiner)
	done := next == o.self
	o.ep.Send(joiner, &StateMsg{
		From:   o.self,
		Hop:    jm.Hop,
		Done:   done,
		Leaves: o.leaves.members(),
		Table:  o.tableEntries(),
	})
	if !done {
		o.ep.Send(next, &JoinMsg{Joiner: joiner, Hop: jm.Hop + 1})
	}
	o.learn(joiner)
}

func (o *Overlay) tableEntries() []ids.ID {
	var out []ids.ID
	for r := range o.table {
		for c := range o.table[r] {
			if !o.table[r][c].IsZero() {
				out = append(out, o.table[r][c])
			}
		}
	}
	return out
}

func (o *Overlay) handleState(_ netapi.Ctx, from ids.ID, msg wire.Message) {
	sm := msg.(*StateMsg)
	o.learn(from)
	for _, id := range sm.Leaves {
		o.learn(id)
	}
	for _, id := range sm.Table {
		o.learn(id)
	}
	j := o.join
	if j == nil || j.unanswered > 0 {
		return
	}
	j.states++
	if sm.Done {
		j.last = sm.Hop
	}
	if j.last < 0 || j.states <= j.last {
		return // an earlier hop's state is still on its way
	}
	// The view is whole: announce ourselves to everything in it.
	known := o.allKnown()
	j.unanswered = len(known)
	for _, id := range known {
		o.ep.Request(id, &AnnounceMsg{Node: o.self}, o.opts.ProbeTimeout, func(wire.Message, error) {
			if j.unanswered--; j.unanswered == 0 && o.join == j {
				o.finishJoin(nil)
			}
		})
	}
}

func (o *Overlay) handleAnnounce(ctx netapi.Ctx, from ids.ID, msg wire.Message) {
	o.learn(from)
	o.learn(msg.(*AnnounceMsg).Node)
	ctx.Reply(&PongMsg{})
}

// allKnown returns every node in the routing state, deterministically.
func (o *Overlay) allKnown() []ids.ID {
	seen := make(map[ids.ID]bool)
	var out []ids.ID
	add := func(id ids.ID) {
		if !id.IsZero() && id != o.self && !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	for _, id := range o.leaves.members() {
		add(id)
	}
	for r := range o.table {
		for c := range o.table[r] {
			add(o.table[r][c])
		}
	}
	return out
}

// --- maintenance ------------------------------------------------------------------

func (o *Overlay) startMaintenance() {
	if o.opts.HeartbeatInterval <= 0 {
		return
	}
	var tick func()
	tick = func() {
		o.heartbeat()
		o.ep.Clock().After(o.opts.HeartbeatInterval, tick)
	}
	o.ep.Clock().After(o.opts.HeartbeatInterval, tick)
}

// handlePing answers a peer's probe and, when heartbeats are on, notes
// when it came: the ping is this node's ack from that peer.
func (o *Overlay) handlePing(ctx netapi.Ctx, from ids.ID, _ wire.Message) {
	o.learn(from)
	if o.opts.HeartbeatInterval > 0 {
		o.pinged[from] = o.ep.Clock().Now()
	}
	ctx.Reply(&PongMsg{})
}

// heartbeat probes leaf members and one routing-table row per round.
func (o *Overlay) heartbeat() {
	now := o.ep.Clock().Now()
	for id, at := range o.pinged {
		if now-at >= o.opts.HeartbeatInterval {
			delete(o.pinged, id)
		}
	}
	for _, id := range o.leaves.members() {
		o.probe(id)
	}
	// Round-robin one table row per heartbeat to bound probe volume.
	row := o.probeNext % ids.Digits
	o.probeNext++
	for c := range o.table[row] {
		if e := o.table[row][c]; !e.IsZero() && !o.leaves.contains(e) {
			o.probe(e)
		}
	}
}

// probe pings id; on failure the node is forgotten and repair runs. A
// peer whose own ping came within the last interval is not probed: its
// ping was the ack. A pong does not count so: if it did, two nodes that
// list each other would take turns, each probing every other interval.
func (o *Overlay) probe(id ids.ID) {
	if o.probing[id] {
		return
	}
	if at, ok := o.pinged[id]; ok && o.ep.Clock().Now()-at < o.opts.HeartbeatInterval {
		return
	}
	o.probing[id] = true
	o.ep.Request(id, &PingMsg{}, o.opts.ProbeTimeout, func(_ wire.Message, err error) {
		delete(o.probing, id)
		if err != nil {
			o.log.Debug("probe failed", "peer", id.Short(), "err", err)
			o.forget(id)
		}
	})
}

// repairLeaves refills the leaf set by asking the current extremes for
// their own leaves.
func (o *Overlay) repairLeaves() {
	for _, id := range o.leaves.members() {
		o.ep.Request(id, &LeafReqMsg{}, o.opts.ProbeTimeout, func(reply wire.Message, err error) {
			if err != nil {
				return
			}
			lr, ok := reply.(*LeafReplyMsg)
			if !ok {
				return
			}
			for _, m := range lr.Leaves {
				o.learn(m)
			}
		})
	}
}
