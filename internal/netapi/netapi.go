// Package netapi defines the endpoint abstraction through which every
// protocol in this repository (overlay routing, pub/sub, storage, bundle
// deployment, pipelines) talks to the network. Two implementations exist:
// the deterministic simulator (internal/simnet) and the real TCP transport
// (internal/transport). Both run the same endpoint core, Loop: the
// handler table, pending requests, reply dispatch, the ctx a handler
// replies through and the local run queue are written once, here, and a
// substrate only moves envelopes and arms timeouts for it.
//
// Envelope ownership: a Loop builds every envelope it sends to another
// node in one envelope of its own, passes it to Substrate.Transmit, and
// zeroes it after the call. The substrate borrows it for that call only:
// one that keeps it past Transmit (simnet's delivery batches) keeps a
// copy of the value, and one that encodes it (transport) keeps nothing.
// A received envelope is Deliver's for that call, too: handlers see
// (ctx, from, msg), never the envelope.
//
// Callback discipline: an endpoint delivers messages and timer callbacks
// serially — protocol code never runs concurrently with itself on the same
// node and therefore needs no locks. Under simnet the whole world shares
// one event loop; under TCP each node has an actor loop.
//
// Loop-only traffic: Send, SendMany, Request, QueuedBytes and Saturated
// run on the endpoint's callback goroutine — in a handler, a timer, a
// reply or drain callback — and nowhere else. Code off the loop (a main
// goroutine, a test) reaches the node through the substrate's one door,
// transport.Node.Do; under simnet whoever drives the world is on its
// loop. A send is queued toward its destination before it returns, so
// what one node sends toward one destination leaves in the order its
// callbacks issued it, and no send waits for the loop to run something
// else first. Handle and OnDrain are setup calls: the TCP transport hops
// them onto its loop, so a node's owner may register them before the
// node serves traffic.
//
// A send addressed to the node itself — a Send, a SendMany destination,
// a Request or its reply — never leaves the node: Loop queues it on its
// local run queue, which the substrate drains after the current callback
// and before the next message or timer, so it runs with from == ID(),
// allocates no envelope, counts as no network send and never waits on a
// bounded queue.
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
	// Send transmits a one-way message; see the package doc for a send
	// to the node itself.
	Send(to ids.ID, msg wire.Message)
	// Request transmits msg and invokes cb exactly once with the reply
	// or an error (ErrTimeout after the deadline).
	Request(to ids.ID, msg wire.Message, timeout time.Duration, cb ReplyFunc)
	// Handle registers the handler for a message kind. A second
	// registration for the same kind replaces the first.
	Handle(kind string, h Handler)
	// Both substrates offer the fan-out path and the saturation signal.
	Multicaster
	Backpressured
}

// Multicaster is the fan-out path every endpoint offers: one message
// value (and, where the endpoint serialises, one encoded body) is shared
// across every destination instead of being re-built per Send. The TCP
// transport encodes the payload once per negotiated codec; the simulator
// coalesces same-deadline deliveries into one scheduler event.
type Multicaster interface {
	// SendMany transmits msg once to each destination, in order.
	// Semantically identical to calling Send per destination, the node
	// itself included. Callers must treat msg as shared and immutable
	// afterwards (events should be frozen before fanning out).
	//
	// tos is borrowed for the call only: an implementation must not keep
	// it, or any subslice of it, after SendMany returns, and the caller
	// may reuse it at once.
	SendMany(tos []ids.ID, msg wire.Message)
}

// Backpressured is the saturation signal every endpoint offers: the TCP
// transport's byte-budgeted per-peer outboxes and the simulator's
// in-flight budget mirror. It surfaces overload to
// protocol code so it can shed its lowest-value work (the pub/sub
// broker drops per-subscriber deliveries toward saturated destinations)
// instead of letting the transport drop blindly.
//
// Callback discipline applies: QueuedBytes and Saturated may only be
// called from protocol code running on the endpoint's callback goroutine
// (the actor loop under TCP, the world loop under simnet), and OnDrain
// callbacks are invoked there too, which is what lets the broker keep its
// shed-episode bookkeeping lock-free on the actor loop.
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
