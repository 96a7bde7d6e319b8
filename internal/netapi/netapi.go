// Package netapi defines the endpoint abstraction through which every
// protocol in this repository (overlay routing, pub/sub, storage, bundle
// deployment, pipelines) talks to the network. Two implementations exist:
// the deterministic simulator (internal/simnet) and the real TCP transport
// (internal/transport). Both run the same endpoint core, Loop: the
// handler table, pending requests, reply dispatch, the ctx a handler
// replies through and the local run queue are written once, here, and a
// substrate only moves envelopes and arms timeouts for it.
//
// Callback discipline: an endpoint delivers messages and timer callbacks
// serially — protocol code never runs concurrently with itself on the same
// node and therefore needs no locks. Under simnet the whole world shares
// one event loop; under TCP each node has an actor loop.
//
// Send discipline: by default Send/SendMany may only be called from the
// endpoint's callback goroutine (the same discipline as everything else).
// Endpoints that can accept sends from arbitrary goroutines advertise it
// via ConcurrentSender/Caps.ConcurrentSend; only then may protocol code
// move send work onto worker goroutines (the broker's fan-out pool does
// exactly this). Incoming delivery remains serial either way.
//
//vetactive:deterministic
package netapi

import (
	"errors"
	"math"
	"math/rand"
	"time"

	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/vclock"
	"github.com/gloss/active/internal/wire"
)

// ErrTimeout is delivered to request callbacks when no reply arrives in time.
var ErrTimeout = errors.New("netapi: request timed out")

// ErrUnreachable is delivered when the destination is known to be dead or
// the message could not be sent.
var ErrUnreachable = errors.New("netapi: destination unreachable")

// Coord is a planar position in kilometres, used by the latency model and
// by geographic placement policies.
type Coord struct {
	X, Y float64
}

// DistanceKm returns the Euclidean distance between two coordinates.
func (c Coord) DistanceKm(o Coord) float64 {
	dx, dy := c.X-o.X, c.Y-o.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// NodeInfo describes a node's static attributes, advertised to other nodes
// and used by deployment policies.
type NodeInfo struct {
	ID     ids.ID
	Region string
	Coord  Coord
}

// Ctx accompanies an incoming message.
type Ctx interface {
	// Reply answers a request. For one-way messages Reply is a no-op.
	Reply(msg wire.Message)
	// ReplyErr answers a request with an error.
	ReplyErr(err error)
}

// Handler processes one incoming message of a registered kind.
type Handler func(ctx Ctx, from ids.ID, msg wire.Message)

// ReplyFunc receives the outcome of a Request.
type ReplyFunc func(reply wire.Message, err error)

// Endpoint is a node's interface to the network.
type Endpoint interface {
	// ID returns this node's identifier.
	ID() ids.ID
	// Info returns this node's static attributes.
	Info() NodeInfo
	// Clock returns the node's scheduling clock.
	Clock() vclock.Clock
	// Rand returns the node's deterministic random source. Protocol code
	// must use this rather than global rand.
	Rand() *rand.Rand
	// Send transmits a one-way message.
	Send(to ids.ID, msg wire.Message)
	// Request transmits msg and invokes cb exactly once with the reply
	// or an error (ErrTimeout after the deadline).
	Request(to ids.ID, msg wire.Message, timeout time.Duration, cb ReplyFunc)
	// Handle registers the handler for a message kind. A second
	// registration for the same kind replaces the first.
	Handle(kind string, h Handler)
}

// Multicaster is optionally implemented by endpoints with a fan-out fast
// path: one message value (and, where the endpoint serialises, one
// encoded body) is shared across every destination instead of being
// re-built per Send. The TCP transport encodes the payload once per
// negotiated codec; the simulator coalesces same-deadline deliveries
// into one scheduler event.
type Multicaster interface {
	// SendMany transmits msg once to each destination, in order.
	// Semantically identical to calling Send per destination.
	//
	// Ordering under concurrency: when the endpoint advertises
	// ConcurrentSends, calls from different goroutines may interleave
	// arbitrarily with each other, but each call still emits toward its
	// destinations in argument order, and two calls toward the same
	// destination from the SAME goroutine are emitted in program order.
	// Callers that need per-destination FIFO across goroutines must keep
	// each destination on one goroutine (destination-sticky workers).
	//
	// tos is borrowed for the call only: an implementation must not keep
	// it, or any subslice of it, after SendMany returns, and the caller
	// may reuse it at once.
	SendMany(tos []ids.ID, msg wire.Message)
}

// SendMany delivers msg to every destination, using the endpoint's
// multicast fast path when it has one and per-destination Sends
// otherwise. Callers must treat msg as shared and immutable afterwards
// (events should be frozen before fanning out). tos is borrowed for the
// call only, as Multicaster.SendMany says: the caller may reuse it once
// SendMany returns.
func SendMany(ep Endpoint, tos []ids.ID, msg wire.Message) {
	if m := Capabilities(ep).Multicast; m != nil {
		m.SendMany(tos, msg)
		return
	}
	for _, to := range tos {
		ep.Send(to, msg)
	}
}

// Caps collects an endpoint's optional interfaces in one typed struct.
// A field is nil when the endpoint does not provide that capability.
type Caps struct {
	// Multicast is the fan-out fast path, or nil.
	Multicast Multicaster
	// Backpressure is the send-queue saturation signal, or nil.
	Backpressure Backpressured
	// ConcurrentSend reports that Send/SendMany (and the read-only
	// Backpressured gauges, if present) are safe to call from any
	// goroutine, not just the callback goroutine.
	ConcurrentSend bool
	// Local is the callback-goroutine hand-off to this node's own
	// handlers, or nil.
	Local LocalDeliverer
}

// Capabilities discovers ep's optional interfaces. It formalises what
// callers used to do with scattered ad-hoc type assertions: probe once,
// keep the typed result. Protocol constructors call it at wiring time
// (the broker records Caps.Backpressure for shedding, SendMany uses
// Caps.Multicast); the capability set of an endpoint never changes over
// its lifetime, so the snapshot stays valid.
func Capabilities(ep Endpoint) Caps {
	var c Caps
	if m, ok := ep.(Multicaster); ok {
		c.Multicast = m
	}
	if b, ok := ep.(Backpressured); ok {
		c.Backpressure = b
	}
	if s, ok := ep.(ConcurrentSender); ok && s.ConcurrentSends() {
		c.ConcurrentSend = true
	}
	if l, ok := ep.(LocalDeliverer); ok {
		c.Local = l
	}
	return c
}

// LocalDeliverer is optionally implemented by endpoints on which a
// send-to-self costs a trip through a bounded receive queue (the TCP
// transport's inbox). Protocol code on the callback goroutine queues a
// message for this node's own handler instead; the endpoint drains the
// queue, in order, after the current callback returns and before it
// takes the next message or timer. Run-to-completion holds, nothing is
// encoded, and queueing never blocks — a node whose client is attached
// to its own broker cannot wait on its own full inbox. The simulator
// does not implement it: a self-send there is a scheduled event.
type LocalDeliverer interface {
	// DeliverLocal queues msg for this node's handler of msg.Kind(), as
	// if it had arrived from the node itself. Callback goroutine only.
	DeliverLocal(msg wire.Message)
}

// ConcurrentSender is optionally implemented by endpoints whose send path
// tolerates concurrent producers. The default Endpoint contract confines
// Send/SendMany to the callback goroutine; an endpoint that returns true
// here widens that to any goroutine: sends may race with each other and
// with the callback goroutine without corrupting state or losing frames,
// and queue accounting (outbox budgets, stats) stays exact. The TCP
// transport implements it (encode runs on the caller, the per-peer outbox
// is mutex-protected); the simulator deliberately does not — its
// determinism depends on the world loop being the only scheduler.
type ConcurrentSender interface {
	// ConcurrentSends reports whether Send/SendMany may be called from
	// any goroutine. The answer must not change over the endpoint's
	// lifetime (Capabilities snapshots it at wiring time).
	ConcurrentSends() bool
}

// Backpressured is optionally implemented by endpoints whose send path
// can saturate: the TCP transport's byte-budgeted per-peer outboxes and
// the simulator's in-flight budget mirror. It surfaces overload to
// protocol code so it can shed its lowest-value work (the pub/sub
// broker drops per-subscriber deliveries toward saturated destinations)
// instead of letting the transport drop blindly.
//
// Callback discipline applies: these methods may only be called from
// protocol code running on the endpoint's callback goroutine (the
// actor loop under TCP, the world loop under simnet), and OnDrain
// callbacks are invoked there too. Exception: an endpoint that reports
// Caps.ConcurrentSend must also make QueuedBytes and Saturated safe to
// call from any goroutine (they become advisory snapshots under
// concurrent sends); OnDrain registration and callback delivery stay on
// the callback goroutine regardless, which is what lets the broker keep
// its shed-episode bookkeeping lock-free on the actor loop.
type Backpressured interface {
	// QueuedBytes is the backpressure gauge: payload bytes currently
	// queued (including frames mid-write) toward to. Zero for unknown
	// or idle destinations. Without a sizing codec the simulator counts
	// one byte per message, making the gauge a message count.
	QueuedBytes(to ids.ID) int
	// Saturated reports whether the send queue toward to has crossed
	// its high watermark and not yet drained back to its low one — the
	// hysteresis window in which new non-control sends are dropped.
	Saturated(to ids.ID) bool
	// OnDrain registers fn, invoked each time a destination's queue
	// falls back to its low watermark after having been saturated
	// ("below the low watermark again" — safe to resume fan-out).
	OnDrain(fn func(to ids.ID))
}
