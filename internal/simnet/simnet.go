// Package simnet is a deterministic discrete-event simulation of a
// wide-area network. It is the default substrate on which the active
// architecture runs in tests, examples and benchmarks.
//
// The model: nodes live at planar coordinates (km); message latency is
// base + distance·perKm + jitter, and a link delivers in send order, as a
// TCP connection does; messages may be lost with a configured
// probability; links can be severed (partitions) and nodes killed
// (churn). The entire world executes on a single goroutine driven by a
// vclock.Scheduler, so every run with the same seed is bit-identical.
//
// Endpoint semantics — handlers, pending requests, reply dispatch, the
// request ctxs and the local run queue — live in netapi.Loop, which every
// Node runs. A Node adds only what a simulated link does: latency, loss,
// delivery batches, the outbox-budget mirror, metrics and liveness. A
// send to self crosses no link: it runs after the current callback, as
// on TCP, and counts in no metric.
package simnet

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"time"

	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/vclock"
	"github.com/gloss/active/internal/wire"
)

const (
	// baseLatency is the fixed per-message cost.
	baseLatency = time.Millisecond
	// latencyPerKm adds distance-proportional delay: roughly twice the
	// speed of light in fibre, standing in for routing overhead.
	latencyPerKm = 10 * time.Microsecond
)

// Config parameterises a World.
type Config struct {
	// Seed drives all randomness (jitter, loss, node RNGs).
	Seed int64
	// Jitter adds a uniform random delay in [0, Jitter). Default 200µs.
	Jitter time.Duration
	// DisableJitter removes the random per-message delay entirely (an
	// explicit flag, since a zero Jitter selects the default). Message
	// deadlines then collapse onto shared instants, which lets the
	// delivery batcher coalesce a fan-out to one node into one event and
	// the scheduler's buckets a fan-out to many into one heap entry — the
	// configuration for million-message benchmark runs.
	DisableJitter bool
	// LossRate is the probability a message is silently dropped.
	LossRate float64
	// Codec, when non-nil, is used to account encoded message bytes in
	// Metrics (enable only when bandwidth matters). Any wire.Codec works:
	// *wire.Registry accounts the open XML format, *wire.BinaryCodec the
	// compact fast path. Registries must be fully populated before the
	// first message is sent.
	Codec wire.Codec
	// OutboxHighWater mirrors transport.Options.OutboxHighWater: a
	// per-sender, per-destination byte budget on in-flight messages.
	// Non-control sends toward a destination already holding that many
	// in-flight bytes are dropped (Metrics.DroppedOverflow); control
	// messages (wire.ControlMessage) are exempt. 0 disables budgeting
	// (the default). Sizing uses Config.Codec when installed; without
	// one every message counts one byte, making the budget a message
	// count.
	OutboxHighWater int
	// OutboxLowWater is the relief threshold mirroring the transport:
	// when a saturated in-flight queue drains back to it, the
	// netapi.Backpressured drain callbacks fire. Default
	// OutboxHighWater/2.
	OutboxLowWater int
}

func (c *Config) applyDefaults() {
	if c.Jitter == 0 {
		c.Jitter = 200 * time.Microsecond
	}
	if c.OutboxHighWater > 0 && c.OutboxLowWater == 0 {
		c.OutboxLowWater = c.OutboxHighWater / 2
	}
}

// Metrics aggregates world-level traffic counters.
type Metrics struct {
	Sent      uint64
	Delivered uint64
	Dropped   uint64 // loss, dead destination, filtered link, or outbox overflow
	// DroppedOverflow counts messages dropped by the byte-budget mirror
	// (Config.OutboxHighWater) — a subset of Dropped, split out so
	// E-table drop rates are attributable, mirroring the transport's
	// Stats.DroppedOverflow.
	DroppedOverflow uint64
	Bytes           uint64 // only counted when a codec is installed (Config.Codec or SetCodec)
	ByKind          map[string]uint64
	// BytesByKind splits Bytes per message kind (codec required, like
	// Bytes) so experiments can attribute traffic to a subsystem without
	// baseline-correcting overlay noise out of the global counter.
	// Messages implementing PayloadKinder (overlay route envelopes) are
	// charged to the kind they carry; ByKind frame counts stay on the
	// envelope kind.
	BytesByKind map[string]uint64
	Unhandled   uint64
	// FlushEvents counts scheduler delivery events: messages bound for
	// the same destination at the same instant share one (the simulation
	// mirror of the TCP transport's Stats.FlushWrites). Sent/Delivered
	// keep counting messages, so message-count semantics agree between
	// simulation and TCP regardless of batching.
	FlushEvents uint64
	// BatchedMsgs counts messages that rode in a delivery batch after the
	// first (the mirror of transport's Stats.BatchedFrames).
	BatchedMsgs uint64
}

// PayloadKinder is implemented by envelope messages (e.g. the overlay's
// route frame) that carry another message: BytesByKind charges the whole
// frame to the carried kind, so a storage put routed through the overlay
// counts as storage traffic, not routing traffic.
type PayloadKinder interface {
	PayloadKind() string
}

// LinkFilter decides whether a message from → to may traverse the network.
type LinkFilter func(from, to ids.ID) bool

// World is the simulated network. Everything in it runs on the caller's
// goroutine.
type World struct {
	cfg     Config
	codec   wire.Codec // nil-normalised view of cfg.Codec
	sched   *vclock.Scheduler
	rng     *rand.Rand
	metrics Metrics
	// spare holds delivered batches (Node.batches) for reuse.
	spare  []*delivBatch
	nodes  map[ids.ID]*Node
	order  []*Node // creation order, for deterministic iteration
	filter LinkFilter
	// ready holds, in wake order, the nodes whose local run queue took
	// an entry since the last drain.
	ready []*Node
	// fanout is the SharedBody a SendMany sizes its message through. A
	// SendMany transmits to every destination before it returns, so one
	// serves each in turn.
	fanout wire.SharedBody
}

// delivBatch accumulates the envelopes of one coalesced delivery, in
// send order, and is the scheduler task that delivers them. It holds
// each envelope by value: the one a loop transmits is borrowed for the
// call. sizes carries each envelope's accounted bytes, populated only
// when the outbox budget is enabled (release needs them back).
type delivBatch struct {
	dest  *Node
	at    time.Duration
	envs  []wire.Envelope
	sizes []int
}

// NewWorld constructs an empty world. It panics on an inverted outbox
// budget (low watermark above high), matching transport.Listen's
// rejection of the same misconfiguration.
func NewWorld(cfg Config) *World {
	cfg.applyDefaults()
	if cfg.OutboxLowWater > cfg.OutboxHighWater {
		panic(fmt.Sprintf("simnet: OutboxLowWater %d exceeds OutboxHighWater %d",
			cfg.OutboxLowWater, cfg.OutboxHighWater))
	}
	w := &World{
		cfg:   cfg,
		codec: normalizeCodec(cfg.Codec),
		sched: vclock.NewScheduler(),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		nodes: make(map[ids.ID]*Node),
	}
	w.ResetMetrics()
	return w
}

// SetCodec installs (or clears, with nil) the byte-accounting codec.
// Useful when the registry is only fully populated after the world is
// built — e.g. core.NewWorld registers its message types post-construction.
func (w *World) SetCodec(c wire.Codec) { w.codec = normalizeCodec(c) }

// normalizeCodec maps typed-nil codec values (a nil *wire.Registry stored
// in the interface) to plain nil so the hot path needs one comparison.
func normalizeCodec(c wire.Codec) wire.Codec {
	switch v := c.(type) {
	case nil:
		return nil
	case *wire.Registry:
		if v == nil {
			return nil
		}
	case *wire.BinaryCodec:
		if v == nil {
			return nil
		}
	}
	return c
}

// Now returns current virtual time.
func (w *World) Now() time.Duration { return w.sched.Now() }

// RunUntil advances virtual time to t, executing all due events. What
// nodes sent to themselves since the last step runs first, at the
// current instant.
func (w *World) RunUntil(t time.Duration) {
	w.drain()
	w.sched.RunUntil(t)
}

// drain runs the local run queue of every woken node that is alive.
// Every task that runs a node's callback calls it after the callback.
func (w *World) drain() {
	for i := 0; i < len(w.ready); i++ {
		if n := w.ready[i]; n.alive {
			n.loop.Drain()
		}
		w.ready[i] = nil
	}
	w.ready = w.ready[:0]
}

// RunFor advances virtual time by d.
func (w *World) RunFor(d time.Duration) { w.RunUntil(w.Now() + d) }

// Metrics returns a snapshot of traffic counters.
//
//vetactive:ignore atomicstats the world runs on its caller's goroutine, which reads it between runs
func (w *World) Metrics() Metrics {
	m := w.metrics
	m.ByKind, m.BytesByKind = maps.Clone(m.ByKind), maps.Clone(m.BytesByKind)
	return m
}

// ResetMetrics zeroes all counters (between benchmark phases).
func (w *World) ResetMetrics() {
	w.metrics = Metrics{ByKind: make(map[string]uint64), BytesByKind: make(map[string]uint64)}
}

// SetLinkFilter installs f as the connectivity predicate (nil allows all).
func (w *World) SetLinkFilter(f LinkFilter) { w.filter = f }

// Partition splits the world into groups; messages may only flow within a
// group. Nodes not mentioned in any group are isolated. Call
// SetLinkFilter(nil) to heal.
func (w *World) Partition(groups ...[]ids.ID) {
	member := make(map[ids.ID]int)
	for gi, g := range groups {
		for _, id := range g {
			member[id] = gi
		}
	}
	w.SetLinkFilter(func(from, to ids.ID) bool {
		gf, okf := member[from]
		gt, okt := member[to]
		return okf && okt && gf == gt
	})
}

// Node is a simulated host. It implements netapi.Endpoint.
type Node struct {
	world *World
	info  netapi.NodeInfo
	rng   *rand.Rand
	alive bool
	loop  netapi.Loop
	// Outbox-budget mirror state (Config.OutboxHighWater): bytes in
	// flight per destination, the saturation latch, and the registered
	// drain callbacks — the simulation counterpart of the transport's
	// per-peer outbox.
	outBytes map[ids.ID]int
	outOver  map[ids.ID]bool
	drainFns []func(ids.ID)
	// landsAt is, per destination, the instant the last message sent
	// toward it lands: a later one never lands before it.
	landsAt map[ids.ID]time.Duration
	// batches coalesces the in-flight messages landing here at one
	// instant into one scheduler event (the simulation mirror of the TCP
	// transport's frame batching). An entry goes when its batch fires.
	batches map[time.Duration]*delivBatch
}

var _ netapi.Endpoint = (*Node)(nil)

// seam is the netapi.Substrate a node's loop sends and times out through.
type seam Node

func (s *seam) Transmit(env *wire.Envelope, shared *wire.SharedBody) {
	s.world.transmit((*Node)(s), env, shared)
}

// Wake queues the node for the world's next drain.
func (s *seam) Wake() { s.world.ready = append(s.world.ready, (*Node)(s)) }

// Arm schedules the request's timeout as one task with its handle.
func (s *seam) Arm(d time.Duration, p netapi.Pending) vclock.Timer {
	r := &pendingReq{node: (*Node)(s), p: p}
	s.world.sched.Schedule(d, r, &r.Handle)
	return &r.Handle
}

// pendingReq is the task that times an outstanding Request out.
type pendingReq struct {
	vclock.Handle
	node *Node
	p    netapi.Pending
}

// Run times the request out, unless the node is dead, like a node timer.
func (r *pendingReq) Run() {
	if r.node.alive {
		r.node.loop.Expire(r.p)
		r.node.world.drain()
	}
}

// NewNode creates a live node at coord in region. The id must be unique.
func (w *World) NewNode(id ids.ID, region string, coord netapi.Coord) *Node {
	if _, exists := w.nodes[id]; exists {
		panic(fmt.Sprintf("simnet: duplicate node id %s", id))
	}
	seed := int64(binary.BigEndian.Uint64(id[:8])) ^ w.cfg.Seed
	n := &Node{
		world:    w,
		info:     netapi.NodeInfo{ID: id, Region: region, Coord: coord},
		rng:      rand.New(rand.NewSource(seed)),
		alive:    true,
		outBytes: make(map[ids.ID]int),
		outOver:  make(map[ids.ID]bool),
		landsAt:  make(map[ids.ID]time.Duration),
		batches:  make(map[time.Duration]*delivBatch),
	}
	n.loop.Init(id, (*seam)(n))
	w.nodes[id] = n
	w.order = append(w.order, n)
	return n
}

// Nodes returns all nodes in creation order (including dead ones).
func (w *World) Nodes() []*Node {
	out := make([]*Node, len(w.order))
	copy(out, w.order)
	return out
}

// Node returns the node with the given id, or nil.
func (w *World) Node(id ids.ID) *Node { return w.nodes[id] }

// ID implements netapi.Endpoint.
func (n *Node) ID() ids.ID { return n.info.ID }

// Info implements netapi.Endpoint.
func (n *Node) Info() netapi.NodeInfo { return n.info }

// Clock implements netapi.Endpoint. Callbacks scheduled through this clock
// are suppressed if the node is dead when they fire.
func (n *Node) Clock() vclock.Clock { return (*nodeClock)(n) }

// Rand implements netapi.Endpoint.
func (n *Node) Rand() *rand.Rand { return n.rng }

// Alive reports whether the node is up.
func (n *Node) Alive() bool { return n.alive }

// Kill crashes the node: all queued and future messages and timers for it
// are dropped until Revive.
func (n *Node) Kill() { n.alive = false }

// Revive brings a killed node back with its handlers intact. Protocol
// state is whatever it was at kill time; protocols are responsible for
// re-joining overlays. Nothing the node sent itself before it came back
// runs.
func (n *Node) Revive() {
	n.loop.Discard()
	n.alive = true
}

// Handle implements netapi.Endpoint.
func (n *Node) Handle(kind string, h netapi.Handler) { n.loop.Handle(kind, h) }

// QueuedBytes implements netapi.Backpressured: bytes this node has in
// flight toward to (messages per Config's sizing rules when no codec is
// installed). Always zero with budgeting disabled.
func (n *Node) QueuedBytes(to ids.ID) int { return n.outBytes[to] }

// Saturated implements netapi.Backpressured: the in-flight queue toward
// to crossed Config.OutboxHighWater and has not yet drained back to
// OutboxLowWater.
func (n *Node) Saturated(to ids.ID) bool { return n.outOver[to] }

// OnDrain implements netapi.Backpressured; fn runs on the world loop.
func (n *Node) OnDrain(fn func(to ids.ID)) { n.drainFns = append(n.drainFns, fn) }

// Send implements netapi.Endpoint.
func (n *Node) Send(to ids.ID, msg wire.Message) { n.loop.Send(to, msg) }

// SendMany implements netapi.Multicaster: one message value is shared
// across every destination, a world that sizes messages counts its body
// once, as the transport encodes it once, and same-deadline deliveries
// coalesce in the world's delivery batcher.
//
// Like Send, SendMany is world-loop-only: the simulator's determinism
// rests on the world loop being the only scheduler mutator.
func (n *Node) SendMany(tos []ids.ID, msg wire.Message) {
	var shared *wire.SharedBody
	if len(tos) > 1 && n.world.codec != nil { // one destination has nothing to share
		shared = &n.world.fanout
		*shared = wire.SharedBody{} // it is valid for one message
	}
	n.loop.SendMany(tos, msg, shared)
}

// Request implements netapi.Endpoint.
func (n *Node) Request(to ids.ID, msg wire.Message, timeout time.Duration, cb netapi.ReplyFunc) {
	n.loop.Request(to, msg, timeout, cb)
}

// transmit queues env for delivery after the modelled latency. The
// envelopes of one SendMany share shared, which sizes their body once.
func (w *World) transmit(from *Node, env *wire.Envelope, shared *wire.SharedBody) {
	// One Size pass serves both byte metrics and the outbox budget.
	budget := w.cfg.OutboxHighWater > 0
	size, sized := 0, false
	if w.codec != nil && (budget || env.Msg != nil) {
		if sz, err := w.codec.Size(env, shared); err == nil {
			// Codec.Size is a single pass over the message (the binary
			// codec counts through a pooled scratch buffer — no throwaway
			// XML document).
			size, sized = sz, true
		}
	}
	if budget && !sized {
		// No codec (or unsizable): one byte per message, so the budget
		// degrades to a message count.
		size = 1
	}
	w.metrics.Sent++
	if env.Msg != nil {
		w.metrics.ByKind[env.Msg.Kind()]++
		// Byte accounting is skipped entirely without a codec.
		if sized {
			w.metrics.Bytes += uint64(size)
			// Envelope messages (overlay routing) attribute their bytes
			// to the kind they carry; frame counts stay on the envelope.
			kind := env.Msg.Kind()
			if pk, ok := env.Msg.(PayloadKinder); ok {
				if inner := pk.PayloadKind(); inner != "" {
					kind = inner
				}
			}
			w.metrics.BytesByKind[kind] += uint64(size)
		}
	}
	if !from.alive {
		w.metrics.Dropped++
		return
	}
	// Outbox-budget mirror: the sender-side gate sits before the wire
	// effects (loss, partition), exactly where the transport's outbox
	// drops. Control messages are exempt, as on the transport.
	if budget && !wire.Control(env.Msg) && from.outBytes[env.To] >= w.cfg.OutboxHighWater {
		from.outOver[env.To] = true
		w.metrics.Dropped++
		w.metrics.DroppedOverflow++
		return
	}
	if w.filter != nil && !w.filter(env.From, env.To) {
		w.metrics.Dropped++
		return
	}
	if w.cfg.LossRate > 0 && w.rng.Float64() < w.cfg.LossRate {
		w.metrics.Dropped++
		return
	}
	dest, ok := w.nodes[env.To]
	if !ok {
		w.metrics.Dropped++
		return
	}
	if budget {
		from.outBytes[env.To] += size
		if from.outBytes[env.To] >= w.cfg.OutboxHighWater {
			from.outOver[env.To] = true
		}
	}
	// Jitter may draw an instant ahead of the previous message's on this
	// link; it then lands with that message, after it.
	at := max(w.sched.Now()+w.latency(from.info.Coord, dest.info.Coord), from.landsAt[env.To])
	from.landsAt[env.To] = at
	w.enqueue(dest, env, size, at)
}

// releaseOut retires a landed message from its sender's in-flight
// budget and fires the drain callbacks when the queue falls back to the
// low watermark after saturation — the mirror of the transport outbox's
// release.
func (w *World) releaseOut(env *wire.Envelope, size int) {
	sender, ok := w.nodes[env.From]
	if !ok {
		return
	}
	left := sender.outBytes[env.To] - size
	if left > 0 {
		sender.outBytes[env.To] = left
	} else {
		delete(sender.outBytes, env.To)
		left = 0
	}
	if sender.outOver[env.To] && left <= w.cfg.OutboxLowWater {
		delete(sender.outOver, env.To)
		for _, fn := range sender.drainFns {
			fn(env.To)
		}
	}
}

// enqueue schedules env for delivery at the absolute instant at.
// Messages landing at the same destination at the same instant share one
// scheduler event, found in the destination's batches by that instant —
// with DisableJitter and a fixed-latency link, a whole publish fan-out to
// a node becomes a single batch. Send order within a batch is preserved,
// matching the scheduler's FIFO tiebreak for equal times.
//
// Known (deterministic) deviation from the unbatched scheduler: when
// sends to two destinations interleave at one instant (m1→A, m2→B,
// m3→A), A's batch runs to completion before B's, so the global order
// becomes m1,m3,m2 rather than strict send order. This needs a triple
// same-instant collision with interleaved destinations — impossible
// under default jitter in practice, and an accepted trade under
// DisableJitter where batching is the point.
func (w *World) enqueue(dest *Node, env *wire.Envelope, size int, at time.Duration) {
	budget := w.cfg.OutboxHighWater > 0
	if b, ok := dest.batches[at]; ok {
		b.envs = append(b.envs, *env)
		if budget {
			b.sizes = append(b.sizes, size)
		}
		w.metrics.BatchedMsgs++
		return
	}
	var b *delivBatch
	if n := len(w.spare); n > 0 {
		b, w.spare = w.spare[n-1], w.spare[:n-1]
	} else {
		b = &delivBatch{}
	}
	b.dest, b.at = dest, at
	b.envs = append(b.envs, *env)
	if budget {
		b.sizes = append(b.sizes, size)
	}
	dest.batches[at] = b
	w.sched.Schedule(at-w.sched.Now(), b, nil)
}

// Run delivers the batch and returns it to the world's spares.
func (b *delivBatch) Run() {
	w := b.dest.world
	budget := w.cfg.OutboxHighWater > 0
	delete(b.dest.batches, b.at)
	w.metrics.FlushEvents++
	// b.envs never grows while it runs, so &b.envs[i] stays put: the
	// batch has left dest.batches, and whatever its handlers send lands
	// at least baseLatency after b.at, in another batch.
	for i := range b.envs {
		e := &b.envs[i]
		// The budget releases on landing whether or not the destination
		// is still alive — the sender-side queue emptied either way.
		if budget {
			w.releaseOut(e, b.sizes[i])
		}
		w.deliver(b.dest, e)
		w.drain()
	}
	clear(b.envs)
	b.envs, b.sizes, b.dest = b.envs[:0], b.sizes[:0], nil
	w.spare = append(w.spare, b)
}

// latency computes the delay between two coordinates, drawing jitter
// from the world's RNG.
func (w *World) latency(a, b netapi.Coord) time.Duration {
	d := baseLatency + time.Duration(a.DistanceKm(b)*float64(latencyPerKm))
	if !w.cfg.DisableJitter && w.cfg.Jitter > 0 {
		d += time.Duration(w.rng.Int63n(int64(w.cfg.Jitter)))
	}
	return d
}

// Latency exposes the deterministic (jitter-free) latency estimate between
// two nodes, for placement policies that reason about proximity.
func (w *World) Latency(a, b ids.ID) time.Duration {
	na, nb := w.nodes[a], w.nodes[b]
	if na == nil || nb == nil {
		return 0
	}
	return baseLatency + time.Duration(na.info.Coord.DistanceKm(nb.info.Coord)*float64(latencyPerKm))
}

// deliver hands env to its live destination's loop.
func (w *World) deliver(dest *Node, env *wire.Envelope) {
	if !dest.alive {
		w.metrics.Dropped++
		return
	}
	w.metrics.Delivered++
	if !dest.loop.Deliver(env) {
		w.metrics.Unhandled++
	}
}

// nodeClock is a node's view of the world's scheduler, suppressing
// callbacks that fire after the node has been killed.
type nodeClock Node

var _ vclock.Clock = (*nodeClock)(nil)

func (c *nodeClock) Now() time.Duration { return c.world.sched.Now() }

func (c *nodeClock) After(d time.Duration, fn func()) vclock.Timer {
	t := &nodeTimer{node: (*Node)(c), fn: fn}
	t.node.world.sched.Schedule(d, t, &t.Handle)
	return &t.Handle
}

// nodeTimer is one node timer: its callback, and its handle.
type nodeTimer struct {
	vclock.Handle
	node *Node
	fn   func()
}

func (t *nodeTimer) Run() {
	if t.node.alive {
		t.fn()
		t.node.world.drain()
	}
}
