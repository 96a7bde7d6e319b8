// Package simnet is a deterministic discrete-event simulation of a
// wide-area network. It is the default substrate on which the active
// architecture runs in tests, examples and benchmarks.
//
// The model: nodes live at planar coordinates (km); message latency is
// base + distance·perKm + jitter; messages may be lost with a configured
// probability; links can be severed (partitions) and nodes killed
// (churn). By default the entire world executes on a single goroutine
// driven by a vclock.Scheduler, so every run with the same seed is
// bit-identical. With Config.Shards > 1 the world is split into that
// many execution partitions (nodes round-robined over per-partition
// schedulers) and runs conservatively in BaseLatency-sized epochs across
// cores — still deterministic for a fixed seed and partition count.
package simnet

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/vclock"
	"github.com/gloss/active/internal/wire"
)

// Config parameterises a World.
type Config struct {
	// Seed drives all randomness (jitter, loss, node RNGs).
	Seed int64
	// Shards is the number of execution partitions the world runs on
	// (see the package comment). Below 1 means 1: one goroutine.
	Shards int
	// BaseLatency is the fixed per-message cost. Default 1ms.
	BaseLatency time.Duration
	// LatencyPerKm adds distance-proportional delay. Default 10µs/km
	// (roughly twice the speed of light in fibre, standing in for
	// routing overhead).
	LatencyPerKm time.Duration
	// Jitter adds a uniform random delay in [0, Jitter). Default 200µs.
	Jitter time.Duration
	// DisableJitter removes the random per-message delay entirely (an
	// explicit flag, since a zero Jitter selects the default). Message
	// deadlines then collapse onto shared instants, which lets the
	// delivery batcher and the scheduler's timer wheel coalesce fan-out
	// hot paths — the configuration for million-message benchmark runs.
	DisableJitter bool
	// LossRate is the probability a message is silently dropped.
	LossRate float64
	// Codec, when non-nil, is used to account encoded message bytes in
	// Metrics (enable only when bandwidth matters). Any wire.Codec works:
	// *wire.Registry accounts the open XML format, *wire.BinaryCodec the
	// compact fast path. Registries must be fully populated before the
	// first message is sent.
	Codec wire.Codec
	// DisableMetrics turns off all traffic accounting — counters, per-kind
	// tallies and byte sizing — for hot benchmark runs where even map
	// increments per message matter. Metrics then stays zero.
	DisableMetrics bool
	// OutboxHighWater mirrors transport.Options.OutboxHighWater: a
	// per-sender, per-destination byte budget on in-flight messages.
	// Non-control sends toward a destination already holding that many
	// in-flight bytes are dropped (Metrics.DroppedOverflow); control
	// messages (wire.ControlMessage) are exempt. 0 disables budgeting
	// (the default). Sizing uses Config.Codec when installed; without
	// one every message counts one byte, making the budget a message
	// count. Budgeting is semantics, not accounting — it stays active
	// under DisableMetrics.
	OutboxHighWater int
	// OutboxLowWater is the relief threshold mirroring the transport:
	// when a saturated in-flight queue drains back to it, the
	// netapi.Backpressured drain callbacks fire. Default
	// OutboxHighWater/2.
	OutboxLowWater int
}

func (c *Config) applyDefaults() {
	if c.BaseLatency == 0 {
		c.BaseLatency = time.Millisecond
	}
	if c.LatencyPerKm == 0 {
		c.LatencyPerKm = 10 * time.Microsecond
	}
	if c.Jitter == 0 {
		c.Jitter = 200 * time.Microsecond
	}
	if c.OutboxHighWater > 0 && c.OutboxLowWater == 0 {
		c.OutboxLowWater = c.OutboxHighWater / 2
	}
	if c.Shards < 1 {
		c.Shards = 1
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

// World is the simulated network.
//
// With one execution partition (the default) everything runs on the
// caller's goroutine, exactly as before. With Config.Shards > 1 each
// partition owns a scheduler, an RNG, a metrics block and a delivery
// batcher, and RunUntil drives them concurrently in conservative epochs
// of BaseLatency (the network's minimum delay, hence a safe lookahead):
// within an epoch a partition only executes its own nodes, every
// cross-partition message is parked in the sending partition's mailbox,
// and the epoch barrier migrates mailboxes into the destination wheels
// — in partition order, so the merge is deterministic. Topology
// mutation (NewNode, Kill, SetLinkFilter, ...) is only legal while the
// world is quiescent, i.e. outside RunUntil.
type World struct {
	cfg    Config
	codec  wire.Codec // nil-normalised view of cfg.Codec
	parts  []*worldPart
	runner *vclock.Partitioned // non-nil iff len(parts) > 1
	nodes  map[ids.ID]*Node
	order  []*Node // creation order, for deterministic iteration
	filter LinkFilter

	// injectMu guards staged: messages handed in by goroutines outside
	// the world loop (Inject/InjectMany), awaiting the next injection
	// point. Everything else in the World remains world-loop-confined.
	injectMu sync.Mutex
	staged   []stagedMsg
}

// stagedMsg is one concurrently injected message waiting to enter the
// simulation at the next injection point.
type stagedMsg struct {
	from *Node
	env  *wire.Envelope
}

// worldPart is one execution partition: the complete per-core slice of
// world state, so an epoch touches nothing shared.
type worldPart struct {
	sched *vclock.Scheduler
	rng   *rand.Rand
	// metrics counts what this partition observed (sends by resident
	// senders, deliveries to resident destinations); World.Metrics sums.
	metrics Metrics
	// batches coalesces in-flight messages bound for the same destination
	// at the same instant into one scheduler event (the simulation mirror
	// of the TCP transport's frame batching). Entries are removed when
	// the batch fires; spare holds delivered batches for reuse.
	batches map[batchKey]*delivBatch
	spare   []*delivBatch
	// mail holds messages sent from this partition to nodes of another,
	// in send order, awaiting the epoch barrier.
	mail []mailMsg
}

// mailMsg is one cross-partition message in flight to the epoch barrier.
// Its sender-side budget release is already scheduled on the sender's
// own wheel, so delivery owes none.
type mailMsg struct {
	dest *Node
	env  *wire.Envelope
	at   time.Duration // absolute delivery deadline; >= next epoch barrier
}

// batchKey identifies one coalesced delivery: a destination and the
// virtual instant its messages land.
type batchKey struct {
	to ids.ID
	at time.Duration
}

// delivBatch accumulates the envelopes of one coalesced delivery, in
// send order, and is the scheduler task that delivers them. sizes
// carries each envelope's accounted bytes, populated only when the
// outbox budget is enabled (release needs them back).
type delivBatch struct {
	dest  *Node
	at    time.Duration
	envs  []*wire.Envelope
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
		nodes: make(map[ids.ID]*Node),
		parts: make([]*worldPart, cfg.Shards),
	}
	for i := range w.parts {
		seed := cfg.Seed
		if i > 0 {
			// Partition 0 keeps the plain world seed so a one-partition
			// world is bit-identical to the historical single-scheduler
			// one; the rest get decorrelated streams.
			seed ^= int64(uint64(i) * 0x9E3779B97F4A7C15)
		}
		w.parts[i] = &worldPart{
			sched:   vclock.NewScheduler(),
			rng:     rand.New(rand.NewSource(seed)),
			metrics: Metrics{ByKind: make(map[string]uint64), BytesByKind: make(map[string]uint64)},
			batches: make(map[batchKey]*delivBatch),
		}
	}
	if len(w.parts) > 1 {
		scheds := make([]*vclock.Scheduler, len(w.parts))
		for i, p := range w.parts {
			scheds[i] = p.sched
		}
		w.runner = &vclock.Partitioned{
			Scheds:    scheds,
			Lookahead: cfg.BaseLatency,
			Exchange:  w.exchange,
		}
	}
	return w
}

// exchange is the epoch-barrier callback: it migrates every partition's
// outbound mail into the destination partitions' wheels. Iteration is
// partition order then send order — deterministic given deterministic
// epochs. It runs with all partition goroutines quiescent.
func (w *World) exchange(time.Duration) {
	// Epoch barriers are also injection points: concurrently staged
	// messages enter here, while every partition goroutine is quiescent,
	// so a load generator can keep feeding a long partitioned run.
	w.drainInjected()
	for _, src := range w.parts {
		for _, m := range src.mail {
			w.enqueueAt(w.parts[m.dest.part], m.dest, m.env, -1, m.at)
		}
		src.mail = src.mail[:0]
	}
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

// Sched exposes the underlying scheduler — partition 0's when the world
// is partitioned, so callers that drive time directly should use the
// World's own Run methods instead in that mode.
func (w *World) Sched() *vclock.Scheduler { return w.parts[0].sched }

// ExecPartitions returns the number of execution partitions (1 = the
// serial world).
func (w *World) ExecPartitions() int { return len(w.parts) }

// Now returns current virtual time. All partitions agree whenever the
// world is quiescent.
func (w *World) Now() time.Duration { return w.parts[0].sched.Now() }

// RunUntil advances virtual time to t, executing all due events.
// Messages staged by Inject/InjectMany enter at the start of the run
// (and, in a partitioned world, at every epoch barrier).
func (w *World) RunUntil(t time.Duration) {
	w.drainInjected()
	if w.runner != nil {
		w.runner.RunUntil(t)
		return
	}
	w.parts[0].sched.RunUntil(t)
}

// RunFor advances virtual time by d.
func (w *World) RunFor(d time.Duration) { w.RunUntil(w.Now() + d) }

// Metrics returns a snapshot of traffic counters, summed over execution
// partitions.
func (w *World) Metrics() Metrics {
	var m Metrics
	m.ByKind = make(map[string]uint64)
	m.BytesByKind = make(map[string]uint64)
	for _, p := range w.parts {
		m.Sent += p.metrics.Sent
		m.Delivered += p.metrics.Delivered
		m.Dropped += p.metrics.Dropped
		m.DroppedOverflow += p.metrics.DroppedOverflow
		m.Bytes += p.metrics.Bytes
		m.Unhandled += p.metrics.Unhandled
		m.FlushEvents += p.metrics.FlushEvents
		m.BatchedMsgs += p.metrics.BatchedMsgs
		for k, v := range p.metrics.ByKind {
			m.ByKind[k] += v
		}
		for k, v := range p.metrics.BytesByKind {
			m.BytesByKind[k] += v
		}
	}
	return m
}

// ResetMetrics zeroes all counters (between benchmark phases).
func (w *World) ResetMetrics() {
	for _, p := range w.parts {
		p.metrics = Metrics{ByKind: make(map[string]uint64), BytesByKind: make(map[string]uint64)}
	}
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
	world    *World
	part     int // execution partition (creation index mod partitions)
	info     netapi.NodeInfo
	rng      *rand.Rand
	alive    bool
	handlers map[string]netapi.Handler
	pending  map[uint64]*pendingReq
	nextCorr uint64
	// Outbox-budget mirror state (Config.OutboxHighWater): bytes in
	// flight per destination, the saturation latch, and the registered
	// drain callbacks — the simulation counterpart of the transport's
	// per-peer outbox.
	outBytes map[ids.ID]int
	outOver  map[ids.ID]bool
	drainFns []func(ids.ID)
}

var (
	_ netapi.Endpoint      = (*Node)(nil)
	_ netapi.Backpressured = (*Node)(nil)
)

// pendingReq is an outstanding Request and the timer that times it out.
type pendingReq struct {
	vclock.Handle
	node *Node
	corr uint64
	cb   netapi.ReplyFunc
}

// Run times the request out, unless the node is dead, like a node timer.
// A reply stops the handle as it takes the request out of pending.
func (r *pendingReq) Run() {
	if r.node.alive {
		delete(r.node.pending, r.corr)
		r.cb(nil, netapi.ErrTimeout)
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
		part:     len(w.order) % len(w.parts),
		info:     netapi.NodeInfo{ID: id, Region: region, Coord: coord},
		rng:      rand.New(rand.NewSource(seed)),
		alive:    true,
		handlers: make(map[string]netapi.Handler),
		pending:  make(map[uint64]*pendingReq),
		outBytes: make(map[ids.ID]int),
		outOver:  make(map[ids.ID]bool),
	}
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
// re-joining overlays.
func (n *Node) Revive() { n.alive = true }

// Handle implements netapi.Endpoint.
func (n *Node) Handle(kind string, h netapi.Handler) { n.handlers[kind] = h }

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
func (n *Node) Send(to ids.ID, msg wire.Message) {
	env := &wire.Envelope{From: n.info.ID, To: to, Msg: msg}
	n.world.transmit(n, env)
}

// SendMany implements netapi.Multicaster: one message value is shared
// across every destination (the simulator never serialises, so sharing
// is free), and same-deadline deliveries coalesce in the world's
// delivery batcher.
//
// Like Send, SendMany is world-loop-only: the simulator deliberately
// does not implement netapi.ConcurrentSender, because its determinism
// rests on the world loop being the only scheduler mutator. (The
// broker's fan-out pool therefore stays off over simnet and the serial
// reference path runs — which is exactly what the differential tests
// compare against.) Goroutines outside the loop feed load through
// Inject/InjectMany instead.
func (n *Node) SendMany(tos []ids.ID, msg wire.Message) {
	for _, to := range tos {
		n.Send(to, msg)
	}
}

var _ netapi.Multicaster = (*Node)(nil)

// Inject stages one message from this node for transmission at the next
// injection point — the start of the next RunUntil, or in a partitioned
// world the next epoch barrier too. Unlike Send it is safe to call from
// any goroutine, including while the world is running: this is how
// concurrent load generators drive partitioned worlds. Messages from
// one goroutine enter in call order (the staging buffer is
// append-ordered); interleaving between goroutines follows their mutex
// acquisition order, so a run is deterministic given the staged
// sequence, not across racing producers.
func (n *Node) Inject(to ids.ID, msg wire.Message) {
	n.world.inject(n, []ids.ID{to}, msg)
}

// InjectMany stages msg toward every destination, preserving argument
// order, under one staging-lock acquisition — the thread-safe analogue
// of SendMany. Safe from any goroutine.
func (n *Node) InjectMany(tos []ids.ID, msg wire.Message) {
	n.world.inject(n, tos, msg)
}

func (w *World) inject(from *Node, tos []ids.ID, msg wire.Message) {
	w.injectMu.Lock()
	defer w.injectMu.Unlock()
	for _, to := range tos {
		w.staged = append(w.staged, stagedMsg{
			from: from,
			env:  &wire.Envelope{From: from.info.ID, To: to, Msg: msg},
		})
	}
}

// drainInjected moves staged messages into the simulation. Called only
// at injection points, where every partition goroutine is quiescent, so
// the plain transmit path (sender-partition state) is safe.
func (w *World) drainInjected() {
	w.injectMu.Lock()
	staged := w.staged
	w.staged = nil
	w.injectMu.Unlock()
	for _, s := range staged {
		w.transmit(s.from, s.env)
	}
}

// Request implements netapi.Endpoint.
func (n *Node) Request(to ids.ID, msg wire.Message, timeout time.Duration, cb netapi.ReplyFunc) {
	n.nextCorr++
	corr := n.nextCorr
	env := &wire.Envelope{From: n.info.ID, To: to, CorrID: corr, Msg: msg}
	p := &pendingReq{node: n, corr: corr, cb: cb}
	n.sched().Schedule(timeout, p, &p.Handle)
	n.pending[corr] = p
	n.world.transmit(n, env)
}

// transmit queues env for delivery after the modelled latency. It runs
// on the sending node's partition: everything it touches is either that
// partition's slice of the world, the sender's own state, or the
// read-only topology.
func (w *World) transmit(from *Node, env *wire.Envelope) {
	p := w.parts[from.part]
	// One Size pass serves both byte metrics and the outbox budget.
	budget := w.cfg.OutboxHighWater > 0
	size, sized := 0, false
	if w.codec != nil && (budget || (!w.cfg.DisableMetrics && env.Msg != nil)) {
		if sz, err := w.codec.Size(env); err == nil {
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
	if !w.cfg.DisableMetrics {
		p.metrics.Sent++
		if env.Msg != nil {
			p.metrics.ByKind[env.Msg.Kind()]++
			// Byte accounting is skipped entirely without a codec.
			if sized {
				p.metrics.Bytes += uint64(size)
				// Envelope messages (overlay routing) attribute their bytes
				// to the kind they carry; frame counts stay on the envelope.
				kind := env.Msg.Kind()
				if pk, ok := env.Msg.(PayloadKinder); ok {
					if inner := pk.PayloadKind(); inner != "" {
						kind = inner
					}
				}
				p.metrics.BytesByKind[kind] += uint64(size)
			}
		}
	}
	if !from.alive {
		w.drop(p)
		return
	}
	// Outbox-budget mirror: the sender-side gate sits before the wire
	// effects (loss, partition), exactly where the transport's outbox
	// drops. Control messages are exempt, as on the transport.
	if budget && !wire.Control(env.Msg) && from.outBytes[env.To] >= w.cfg.OutboxHighWater {
		from.outOver[env.To] = true
		if !w.cfg.DisableMetrics {
			p.metrics.Dropped++
			p.metrics.DroppedOverflow++
		}
		return
	}
	if w.filter != nil && !w.filter(env.From, env.To) {
		w.drop(p)
		return
	}
	if w.cfg.LossRate > 0 && p.rng.Float64() < w.cfg.LossRate {
		w.drop(p)
		return
	}
	dest, ok := w.nodes[env.To]
	if !ok {
		w.drop(p)
		return
	}
	if budget {
		from.outBytes[env.To] += size
		if from.outBytes[env.To] >= w.cfg.OutboxHighWater {
			from.outOver[env.To] = true
		}
	}
	lat := w.latency(p, from.info.Coord, dest.info.Coord)
	at := p.sched.Now() + lat
	if dest.part == from.part {
		w.enqueueAt(p, dest, env, size, at)
		return
	}
	// Cross-partition: the message waits in this partition's mailbox
	// until the epoch barrier. Latency is at least the lookahead
	// (BaseLatency), so the deadline is at or past the barrier and the
	// destination cannot have run beyond it. The budget release mutates
	// sender state, so it is scheduled here on the sender's own wheel at
	// the delivery instant rather than ridden on the remote delivery.
	if budget {
		sz := size // a copy, so that size itself stays off the heap
		p.sched.Schedule(lat, vclock.Func(func() { w.releaseOut(env, sz) }), nil)
	}
	p.mail = append(p.mail, mailMsg{dest: dest, env: env, at: at})
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

// enqueueAt schedules env for delivery at the absolute instant at, on
// the destination's partition p. Messages landing at the same
// destination at the same instant share one scheduler event — with
// DisableJitter and a fixed-latency link, a whole publish fan-out to a
// node becomes a single batch, and a cross-partition message merged at
// the epoch barrier coalesces into the same batch a local send opened.
// Send order within a batch is preserved, matching the scheduler's FIFO
// tiebreak for equal times. size < 0 marks a message whose budget
// release is owed elsewhere (cross-partition mail).
//
// Known (deterministic) deviation from the unbatched scheduler: when
// sends to two destinations interleave at one instant (m1→A, m2→B,
// m3→A), A's batch runs to completion before B's, so the global order
// becomes m1,m3,m2 rather than strict send order. This needs a triple
// same-instant collision with interleaved destinations — impossible
// under default jitter in practice, and an accepted trade under
// DisableJitter where batching is the point.
func (w *World) enqueueAt(p *worldPart, dest *Node, env *wire.Envelope, size int, at time.Duration) {
	budget := w.cfg.OutboxHighWater > 0
	key := batchKey{to: env.To, at: at}
	if b, ok := p.batches[key]; ok {
		b.envs = append(b.envs, env)
		if budget {
			b.sizes = append(b.sizes, size)
		}
		if !w.cfg.DisableMetrics {
			p.metrics.BatchedMsgs++
		}
		return
	}
	var b *delivBatch
	if n := len(p.spare); n > 0 {
		b, p.spare = p.spare[n-1], p.spare[:n-1]
	} else {
		b = &delivBatch{}
	}
	b.dest, b.at = dest, at
	b.envs = append(b.envs, env)
	if budget {
		b.sizes = append(b.sizes, size)
	}
	p.batches[key] = b
	p.sched.Schedule(at-p.sched.Now(), b, nil)
}

// Run delivers the batch and returns it to its partition's spares.
func (b *delivBatch) Run() {
	w := b.dest.world
	p := w.parts[b.dest.part]
	budget := w.cfg.OutboxHighWater > 0
	delete(p.batches, batchKey{to: b.dest.info.ID, at: b.at})
	if !w.cfg.DisableMetrics {
		p.metrics.FlushEvents++
	}
	for i, e := range b.envs {
		// The budget releases on landing whether or not the destination
		// is still alive — the sender-side queue emptied either way.
		// Cross-partition messages (size < 0) released on their sender's
		// wheel instead.
		if budget && b.sizes[i] >= 0 {
			w.releaseOut(e, b.sizes[i])
		}
		w.deliver(p, b.dest, e)
	}
	clear(b.envs)
	b.envs, b.sizes, b.dest = b.envs[:0], b.sizes[:0], nil
	p.spare = append(p.spare, b)
}

// latency computes the delay between two coordinates, drawing jitter
// from the sending partition's RNG.
func (w *World) latency(p *worldPart, a, b netapi.Coord) time.Duration {
	d := w.cfg.BaseLatency + time.Duration(a.DistanceKm(b)*float64(w.cfg.LatencyPerKm))
	if !w.cfg.DisableJitter && w.cfg.Jitter > 0 {
		d += time.Duration(p.rng.Int63n(int64(w.cfg.Jitter)))
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
	return w.cfg.BaseLatency + time.Duration(na.info.Coord.DistanceKm(nb.info.Coord)*float64(w.cfg.LatencyPerKm))
}

// drop counts a dropped message unless metrics are disabled.
func (w *World) drop(p *worldPart) {
	if !w.cfg.DisableMetrics {
		p.metrics.Dropped++
	}
}

// deliver runs on the destination's partition p.
func (w *World) deliver(p *worldPart, dest *Node, env *wire.Envelope) {
	if !dest.alive {
		w.drop(p)
		return
	}
	if !w.cfg.DisableMetrics {
		p.metrics.Delivered++
	}
	if env.IsReply {
		p, ok := dest.pending[env.CorrID]
		if !ok {
			return // late reply after timeout: drop
		}
		delete(dest.pending, env.CorrID)
		p.Stop()
		if env.Err != "" {
			p.cb(env.Msg, remoteError(env.Err))
			return
		}
		p.cb(env.Msg, nil)
		return
	}
	if env.Msg == nil {
		return
	}
	h, ok := dest.handlers[env.Msg.Kind()]
	if !ok {
		if !w.cfg.DisableMetrics {
			p.metrics.Unhandled++
		}
		return
	}
	ctx := oneWay
	if env.CorrID != 0 {
		// A request's ctx is its own: a handler may reply after it returns.
		ctx = &msgCtx{node: dest, env: env}
	}
	h(ctx, env.From, env.Msg)
}

// oneWay is the ctx every one-way message shares: with CorrID 0 its
// replies send nothing. Nothing writes it.
var oneWay = &msgCtx{env: &wire.Envelope{}}

type remoteError string

func (e remoteError) Error() string { return string(e) }

// msgCtx implements netapi.Ctx for a delivered message.
type msgCtx struct {
	node    *Node
	env     *wire.Envelope
	replied bool
}

func (c *msgCtx) Reply(msg wire.Message) {
	if c.env.CorrID == 0 || c.replied {
		return
	}
	c.replied = true
	reply := &wire.Envelope{
		From:    c.node.info.ID,
		To:      c.env.From,
		CorrID:  c.env.CorrID,
		IsReply: true,
		Msg:     msg,
	}
	c.node.world.transmit(c.node, reply)
}

func (c *msgCtx) ReplyErr(err error) {
	if c.env.CorrID == 0 || c.replied {
		return
	}
	c.replied = true
	reply := &wire.Envelope{
		From:    c.node.info.ID,
		To:      c.env.From,
		CorrID:  c.env.CorrID,
		IsReply: true,
		Err:     err.Error(),
	}
	c.node.world.transmit(c.node, reply)
}

// nodeClock is a node's view of its partition's scheduler, suppressing
// callbacks that fire after the node has been killed. Timers stay
// partition-local: a node's own future work always runs on its own
// partition.
type nodeClock Node

var _ vclock.Clock = (*nodeClock)(nil)

func (c *nodeClock) Now() time.Duration { return (*Node)(c).sched().Now() }

func (c *nodeClock) After(d time.Duration, fn func()) vclock.Timer {
	t := &nodeTimer{node: (*Node)(c), fn: fn}
	t.node.sched().Schedule(d, t, &t.Handle)
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
	}
}

// sched is the scheduler of the node's partition.
func (n *Node) sched() *vclock.Scheduler { return n.world.parts[n.part].sched }
