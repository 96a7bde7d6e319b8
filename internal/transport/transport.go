// Package transport is the real-network counterpart of internal/simnet:
// a TCP implementation of netapi.Endpoint carrying length-prefixed XML
// envelopes (§4.7: open data formats and interfaces on the wire). The
// same protocol stacks — overlay, storage, pub/sub, bundle deployment,
// pipelines — run unchanged over it; cmd/activenode and cmd/glossctl use
// it for multi-process deployments.
//
// Concurrency model: all protocol callbacks (message handlers, timers,
// request completions) execute on a single actor goroutine per node,
// preserving the lock-free discipline protocol code is written against.
// Blocking I/O lives in per-connection reader/writer goroutines.
// Connections are unidirectional: a node dials a connection to each peer
// it sends to and reads the connections it accepts, which removes all
// simultaneous-connect conflicts. Only the acceptor's hello travels back.
//
// The actor loop owns the peer table: Send, SendMany and Request encode
// and queue a frame on the loop, and QueuedBytes and Saturated read the
// queue there, as netapi requires. Code off the loop reaches the node
// through Do. Only a peer's outbox is shared, with the writer goroutine
// that drains it, and the Stats counters are atomics, because the reader
// and writer goroutines count too.
//
// Endpoint semantics — handlers, pending requests, reply dispatch, the
// request ctxs and the local run queue — live in netapi.Loop, which the
// actor loop runs. A Node adds only what a TCP link does: sockets,
// codecs, outboxes, the hello merge, and the hop (Do) that brings
// off-loop callers onto the actor loop.
package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/vclock"
	"github.com/gloss/active/internal/wire"
)

// maxFrame bounds a single message frame (16 MiB).
const maxFrame = 16 << 20

// flushWatermark bounds the payload bytes coalesced into one flush, so a
// queue of large frames cannot grow an unbounded writev batch.
const flushWatermark = 256 << 10

// readBufSize is the receive buffer (frameReader) every accepted
// connection holds for its lifetime: 64 KiB per inbound connection.
// Chosen by measurement — EXPERIMENTS.md, E-T15, has the 16 KiB row.
const readBufSize = 64 << 10

// HelloMsg identifies the dialing node and gossips its address book.
// Codecs lists the wire codecs the sender is willing to speak beyond the
// default XML, and KindsHash fingerprints its registry: a receiver sends
// binary frames back only when the sender advertised "binary" with a
// matching hash, since the binary codec interns kind strings as indexes
// into the sorted registry table. The hello itself always travels as XML
// so negotiation needs no prior agreement. A dialer sends its hello first
// on its connection; the acceptor answers with its own on the same one.
type HelloMsg struct {
	ID        string      `xml:"id,attr"`
	Addr      string      `xml:"addr,attr"`
	Region    string      `xml:"region,attr"`
	X         float64     `xml:"x,attr"`
	Y         float64     `xml:"y,attr"`
	Codecs    []string    `xml:"codec,omitempty"`
	KindsHash string      `xml:"kinds,attr,omitempty"`
	Known     []HelloPeer `xml:"peer"`
}

// HelloPeer is one address-book entry.
type HelloPeer struct {
	ID   string `xml:"id,attr"`
	Addr string `xml:"addr,attr"`
}

// Kind implements wire.Message.
func (HelloMsg) Kind() string { return "transport.hello" }

// Control marks hellos as control-plane traffic (wire.ControlMessage):
// capability knowledge is updated only by hellos, so a budget-dropped
// one would strand a peer on a stale kinds hash until reconnect. The
// outbox therefore never drops hellos for watermark overflow.
func (HelloMsg) Control() bool { return true }

// AppendXML implements wire.XMLMessage: the bytes encoding/xml writes for
// the struct tags. Every connection carries two hellos, so they stay off
// the reflection path.
func (h *HelloMsg) AppendXML(b []byte) []byte {
	b = append(b, "<HelloMsg"...)
	b = wire.AppendXMLAttr(b, "id", h.ID)
	b = wire.AppendXMLAttr(b, "addr", h.Addr)
	b = wire.AppendXMLAttr(b, "region", h.Region)
	b = wire.AppendXMLAttr(b, "x", strconv.FormatFloat(h.X, 'g', -1, 64))
	b = wire.AppendXMLAttr(b, "y", strconv.FormatFloat(h.Y, 'g', -1, 64))
	if h.KindsHash != "" {
		b = wire.AppendXMLAttr(b, "kinds", h.KindsHash)
	}
	b = append(b, '>')
	for _, c := range h.Codecs {
		if c != "" { // omitempty drops an empty element of a list
			b = append(wire.AppendXMLText(append(b, "<codec>"...), c), "</codec>"...)
		}
	}
	for _, p := range h.Known {
		b = wire.AppendXMLAttr(append(b, "<peer"...), "id", p.ID)
		b = append(wire.AppendXMLAttr(b, "addr", p.Addr), "></peer>"...)
	}
	return append(b, "</HelloMsg>"...)
}

// ParseXML implements wire.XMLMessage: it reads the form AppendXML writes.
func (h *HelloMsg) ParseXML(s *wire.XMLScanner) error {
	s.Expect("<HelloMsg")
	h.ID, h.Addr, h.Region = string(s.Attr("id")), string(s.Attr("addr")), string(s.Attr("region"))
	x, errX := strconv.ParseFloat(string(s.Attr("x")), 64) // as encoding/xml reads it
	y, errY := strconv.ParseFloat(string(s.Attr("y")), 64)
	if h.X, h.Y = x, y; errX != nil || errY != nil {
		s.Decline()
	}
	if v, ok := s.OptAttr("kinds"); ok {
		h.KindsHash = string(v)
	}
	s.Expect(">")
	for s.Match("<codec>") {
		h.Codecs = append(h.Codecs, string(s.Text()))
		s.Expect("</codec>")
	}
	for s.Match("<peer") {
		h.Known = append(h.Known, HelloPeer{ID: string(s.Attr("id")), Addr: string(s.Attr("addr"))})
		s.Expect("></peer>")
	}
	s.Expect("</HelloMsg>")
	return s.Err()
}

// RegisterMessages records transport message types in a wire registry.
// The hello handshake happens once per connection and must stay
// decodable by the oldest peer in a mixed fleet, so it is XML-only by
// design.
//
//vetactive:xmlfallback handshake is once-per-connection and version-bridging
func RegisterMessages(r *wire.Registry) { r.Register(&HelloMsg{}) }

// Options configure a TCP node.
type Options struct {
	// Listen is the TCP listen address (e.g. "127.0.0.1:0").
	Listen string
	// Region and Coord describe the node for placement policies.
	Region string
	Coord  netapi.Coord
	// Seed drives the node's RNG.
	Seed int64
	// Codec is the preferred wire codec: wire.CodecXML (default) or
	// wire.CodecBinary. A node preferring binary advertises it in its
	// hello and uses it toward every peer that advertised it back with a
	// matching registry hash; all other traffic stays XML, so mixed
	// deployments interoperate frame by frame.
	Codec string
	// OutboxHighWater is the per-peer send-queue byte budget: sends are
	// accepted while queued bytes are below it and dropped above it
	// (Stats.DroppedOverflow). Default 1 MiB. Control frames (hellos,
	// subscription state) are exempt up to a 2x hard cap.
	OutboxHighWater int
	// OutboxLowWater is the relief threshold: once a saturated peer
	// queue drains back to it, the netapi.Backpressured drain callbacks
	// fire and Saturated flips false. Default OutboxHighWater/2; must
	// not exceed OutboxHighWater.
	OutboxLowWater int
	// Logger receives diagnostics; nil discards.
	Logger *slog.Logger

	// The fields below are not options: only this package's tests move
	// them off their defaults.
	//
	// redialBackoff is the initial delay before redialing a peer whose
	// connection failed while frames are still queued; it doubles per
	// consecutive failure, capped at 32x. Default 100ms.
	redialBackoff time.Duration
	// redialAttempts bounds consecutive connection failures before a
	// peer's queued frames are drained and counted as
	// Stats.DroppedDialFail, so a dead address cannot park memory
	// forever. Default 6.
	redialAttempts int
}

// dialTimeout bounds connection attempts.
const dialTimeout = 3 * time.Second

func (o *Options) applyDefaults() {
	if o.Listen == "" {
		o.Listen = "127.0.0.1:0"
	}
	if o.OutboxHighWater == 0 {
		o.OutboxHighWater = 1 << 20
	}
	if o.OutboxLowWater == 0 {
		o.OutboxLowWater = o.OutboxHighWater / 2
	}
	if o.redialBackoff == 0 {
		o.redialBackoff = 100 * time.Millisecond
	}
	if o.redialAttempts == 0 {
		o.redialAttempts = 6
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
}

// Stats counts transport activity.
type Stats struct {
	Sent       uint64
	SentBinary uint64 // subset of Sent framed with the binary codec
	Received   uint64
	// Dropped is the total of the per-reason counters below, so overload
	// behaviour is attributable, not a blur.
	Dropped uint64
	// DroppedOverflow counts sends refused by a peer outbox at/above its
	// byte budget.
	DroppedOverflow uint64
	// DroppedNoAddr counts sends to destinations with no known address —
	// checked before the encode is paid.
	DroppedNoAddr uint64
	// DroppedEncode counts codec failures.
	DroppedEncode uint64
	// DroppedDialFail counts queued frames drained after redialAttempts
	// consecutive connection failures to an unreachable peer.
	DroppedDialFail uint64
	Dials           uint64
	DialFails       uint64
	// FlushWrites counts connection flushes: each is one vectored write
	// (writev) covering every frame drained from the peer's queue at that
	// moment, however many coalesced, so Sent/FlushWrites is the frames
	// per flush.
	FlushWrites uint64
	// BatchedFrames counts frames that rode in a flush after the first —
	// each one saved a write of its own.
	BatchedFrames uint64
}

const (
	peerIdle = iota
	peerDialing
	peerConnected
)

// peer is one entry of the peer table. Everything but ox is the actor
// loop's.
type peer struct {
	id ids.ID
	ox *outbox
	// state is the connection lifecycle (peerIdle/peerDialing/
	// peerConnected); redialPending guards against stacking redial timers.
	state         int
	redialPending bool
	// addr is where to dial. binary records the peer's most recent hello:
	// binary frames flow toward it only while it advertised the binary
	// codec AND its registry fingerprint matches ours.
	addr   string
	binary bool
	// conn is the established write connection; connFails counts
	// consecutive dial/connection failures while frames were still
	// queued, reset on a successful connection.
	conn      net.Conn
	connFails int
}

// Node is a TCP-backed netapi.Endpoint.
type Node struct {
	info      netapi.NodeInfo
	reg       *wire.Registry
	bin       *wire.BinaryCodec // the fast-path codec, built from reg at Listen
	preferBin bool
	opts      Options
	log       *slog.Logger
	ln        net.Listener
	start     time.Time
	rng       *rand.Rand

	inbox    chan func()
	closed   chan struct{}
	closeOne sync.Once
	wg       sync.WaitGroup

	// Stats counters, all atomics: writer goroutines count flushes and
	// the read loops count receives without detouring through the inbox,
	// and Stats reads them off the loop.
	c counters

	// Actor-confined state.
	peers    map[ids.ID]*peer
	loop     netapi.Loop
	drainFns []func(ids.ID)
}

// counters is Stats in atomic form; Stats() materialises a snapshot.
type counters struct {
	sent, sentBinary, received                                              atomic.Uint64
	dropped, droppedOverflow, droppedNoAddr, droppedEncode, droppedDialFail atomic.Uint64
	dials, dialFails                                                        atomic.Uint64
	flushWrites, batchedFrames                                              atomic.Uint64
}

var _ netapi.Endpoint = (*Node)(nil)

// Listen starts a TCP node. Register every message type with reg before
// calling — the binary fast-path codec interns the registry's kind table
// at this point. Call Close to release the node's goroutines.
func Listen(id ids.ID, reg *wire.Registry, opts Options) (*Node, error) {
	// The checks judge the values the node will run with, so they come
	// after the defaults: a low watermark alone is measured against the
	// default high one, not against zero.
	opts.applyDefaults()
	switch {
	case opts.Codec != "" && opts.Codec != wire.CodecXML && opts.Codec != wire.CodecBinary:
		return nil, fmt.Errorf("transport: unknown codec %q (want %q or %q)", opts.Codec, wire.CodecXML, wire.CodecBinary)
	case opts.OutboxHighWater < 0:
		return nil, fmt.Errorf("transport: negative OutboxHighWater %d", opts.OutboxHighWater)
	case opts.OutboxLowWater < 0:
		return nil, fmt.Errorf("transport: negative OutboxLowWater %d", opts.OutboxLowWater)
	case opts.OutboxLowWater > opts.OutboxHighWater:
		return nil, fmt.Errorf("transport: OutboxLowWater %d exceeds OutboxHighWater %d", opts.OutboxLowWater, opts.OutboxHighWater)
	}
	ln, err := net.Listen("tcp", opts.Listen)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", opts.Listen, err)
	}
	n := &Node{
		info:      netapi.NodeInfo{ID: id, Region: opts.Region, Coord: opts.Coord},
		reg:       reg,
		bin:       wire.NewBinaryCodec(reg),
		preferBin: opts.Codec == wire.CodecBinary,
		opts:      opts,
		log:       opts.Logger.With("node", id.Short()),
		ln:        ln,
		start:     time.Now(),
		rng:       rand.New(rand.NewSource(opts.Seed)),
		inbox:     make(chan func(), 1024),
		closed:    make(chan struct{}),
		peers:     make(map[ids.ID]*peer),
	}
	n.loop.Init(id, (*seam)(n))
	n.wg.Add(2)
	go n.actorLoop()
	go n.acceptLoop()
	return n, nil
}

// Addr returns the bound listen address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// ID implements netapi.Endpoint.
func (n *Node) ID() ids.ID { return n.info.ID }

// Info implements netapi.Endpoint.
func (n *Node) Info() netapi.NodeInfo { return n.info }

// Rand implements netapi.Endpoint. Only protocol code on the actor loop
// may use it.
func (n *Node) Rand() *rand.Rand { return n.rng }

// Clock implements netapi.Endpoint with wall-clock time; callbacks are
// posted to the actor loop.
func (n *Node) Clock() vclock.Clock { return (*realClock)(n) }

type realClock Node

func (c *realClock) Now() time.Duration { return time.Since(c.start) }

func (c *realClock) After(d time.Duration, fn func()) vclock.Timer {
	n := (*Node)(c)
	t := time.AfterFunc(d, func() { n.do(fn) })
	return realTimer{t}
}

type realTimer struct{ t *time.Timer }

func (t realTimer) Stop() bool { return t.t.Stop() }

// do posts fn to the actor loop (no-op after Close).
func (n *Node) do(fn func()) {
	select {
	case <-n.closed:
	case n.inbox <- fn:
	}
}

// Do schedules fn on the node's actor loop, where all protocol state may
// be touched safely. It is the one door in: code outside the loop (main
// goroutines, tests) must use Do to send, to read the backpressure gauge
// or to invoke protocol APIs such as Store.Get or Overlay.Join — the loop
// owns their state. No-op after Close.
func (n *Node) Do(fn func()) { n.do(fn) }

//vetactive:actorloop
func (n *Node) actorLoop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.closed:
			return
		case fn := <-n.inbox:
			fn()
			n.loop.Drain()
		}
	}
}

// Close shuts the node down and waits for its goroutines.
func (n *Node) Close() error {
	n.closeOne.Do(func() {
		close(n.closed)
		_ = n.ln.Close()
	})
	n.wg.Wait()
	return nil
}

// Stats returns a snapshot of the atomic counters. It first rides one
// no-op through the actor loop so pending actor work (receives, hello
// merges) is reflected — callers historically used Stats as that
// barrier — then loads; counter pairs are exact at quiescence.
func (n *Node) Stats() Stats {
	done := make(chan struct{})
	n.do(func() { close(done) })
	select {
	case <-done:
	case <-n.closed:
	}
	return Stats{
		Sent:            n.c.sent.Load(),
		SentBinary:      n.c.sentBinary.Load(),
		Received:        n.c.received.Load(),
		Dropped:         n.c.dropped.Load(),
		DroppedOverflow: n.c.droppedOverflow.Load(),
		DroppedNoAddr:   n.c.droppedNoAddr.Load(),
		DroppedEncode:   n.c.droppedEncode.Load(),
		DroppedDialFail: n.c.droppedDialFail.Load(),
		Dials:           n.c.dials.Load(),
		DialFails:       n.c.dialFails.Load(),
		FlushWrites:     n.c.flushWrites.Load(),
		BatchedFrames:   n.c.batchedFrames.Load(),
	}
}

// Handle implements netapi.Endpoint. It is a setup call: it hops onto the
// actor loop, so it may be called before the node serves traffic.
func (n *Node) Handle(kind string, h netapi.Handler) {
	n.do(func() { n.loop.Handle(kind, h) })
}

// AddPeer seeds the address book. It is a setup call, like Handle: it
// hops onto the actor loop, so work posted with Do after it returns sees
// the address.
func (n *Node) AddPeer(id ids.ID, addr string) {
	n.do(func() { n.ensurePeer(id).addr = addr })
}

// Send implements netapi.Endpoint. Toward another node the frame is
// encoded and queued before Send returns.
func (n *Node) Send(to ids.ID, msg wire.Message) { n.loop.Send(to, msg) }

// SendMany implements netapi.Multicaster: the message body is encoded
// once per negotiated codec and shared across every destination frame
// (encode once, send many); only the per-peer envelope header differs.
// Destinations are queued in argument order.
func (n *Node) SendMany(tos []ids.ID, msg wire.Message) {
	var shared *wire.SharedBody
	if len(tos) > 1 {
		// With one destination there is nothing to share: a shared body
		// would cost its own allocation and a split encode for the same
		// bytes.
		shared = &wire.SharedBody{}
	}
	n.loop.SendMany(tos, msg, shared)
}

// Request implements netapi.Endpoint. Like a Send, it queues its frame
// before it returns, and never posts to the inbox the loop empties.
func (n *Node) Request(to ids.ID, msg wire.Message, timeout time.Duration, cb netapi.ReplyFunc) {
	n.loop.Request(to, msg, timeout, cb)
}

// seam is the netapi.Substrate the actor loop sends and times out through.
type seam Node

func (s *seam) Transmit(env *wire.Envelope, shared *wire.SharedBody) {
	(*Node)(s).transmit(env, shared)
}

// Wake does nothing: the actor loop drains after every callback, and a
// send to self comes from one.
func (s *seam) Wake() {}

// Arm times a request out on the wall clock, through the actor loop.
func (s *seam) Arm(d time.Duration, p netapi.Pending) vclock.Timer {
	return (*Node)(s).Clock().After(d, func() { s.loop.Expire(p) })
}

// --- sending (actor loop) -------------------------------------------------------

// ensurePeer inserts or returns the peer entry for id.
func (n *Node) ensurePeer(id ids.ID) *peer {
	p, ok := n.peers[id]
	if !ok {
		p = &peer{id: id, ox: newOutbox(n.opts.OutboxHighWater, n.opts.OutboxLowWater)}
		n.peers[id] = p
	}
	return p
}

// transmit encodes env and queues it toward another node, and starts a
// dial if the peer has no connection.
func (n *Node) transmit(env *wire.Envelope, shared *wire.SharedBody) {
	// Route check first: no peer entry or no address means the frame
	// could never leave this node — drop before paying the encode, and
	// never grow the peer map for unroutable destinations.
	p := n.peers[env.To]
	if p == nil || p.addr == "" {
		n.c.dropped.Add(1)
		n.c.droppedNoAddr.Add(1)
		n.log.Debug("no address for peer", "peer", env.To.Short())
		return
	}
	// Negotiated per peer: binary frames only toward peers whose hello
	// advertised the binary codec with a matching kind table.
	codec := splitEncoder(n.reg)
	if n.preferBin && p.binary {
		codec = n.bin
	}
	head, body, err := codec.EncodeSplit(env, shared, lenPrefix)
	if err != nil {
		n.c.dropped.Add(1)
		n.c.droppedEncode.Add(1)
		n.log.Warn("encode failed", "err", err)
		return
	}
	if p.ox.push(newFrame(head, body), wire.Control(env.Msg)) {
		n.c.sent.Add(1)
		if codec == n.bin {
			n.c.sentBinary.Add(1)
		}
	} else {
		n.c.dropped.Add(1)
		n.c.droppedOverflow.Add(1)
	}
	n.maybeDial(p)
}

// splitEncoder is what the send path asks of both codecs: a frame as a
// head, with room for the length prefix, and a body it may borrow.
type splitEncoder interface {
	EncodeSplit(env *wire.Envelope, s *wire.SharedBody, reserve int) (head, body []byte, err error)
}

// newFrame fills in the length prefix EncodeSplit reserved in head.
func newFrame(head, body []byte) frame {
	binary.BigEndian.PutUint32(head, uint32(len(head)-lenPrefix+len(body)))
	return frame{head, body}
}

// maybeDial starts a connection attempt toward p unless one is already
// in flight or a redial backoff owns the next attempt. The dialer's
// hello is built here, on the loop that owns the address book it carries.
func (n *Node) maybeDial(p *peer) {
	if p.redialPending || p.addr == "" || p.state != peerIdle {
		return
	}
	select {
	case <-n.closed:
		// A callback running after Close: spawn no goroutine Close will
		// not wait for.
		return
	default:
	}
	p.state = peerDialing
	n.c.dials.Add(1)
	n.wg.Add(1)
	go n.dialPeer(p, p.addr, n.helloFrame())
}

// scheduleRedial arranges another dial after a connection failure while
// frames are still queued — without it a transient dial failure would
// strand those frames until an unrelated later transmit. Backoff doubles
// per consecutive failure; after redialAttempts failures the
// stranded frames are drained and counted (DroppedDialFail) so a dead
// address cannot park memory forever. Actor loop only.
func (n *Node) scheduleRedial(p *peer) {
	if p.ox.pendingFrames() == 0 {
		p.connFails = 0
		return
	}
	p.connFails++
	if p.connFails >= n.opts.redialAttempts {
		dropped, drained := p.ox.dropAll()
		n.c.dropped.Add(uint64(dropped))
		n.c.droppedDialFail.Add(uint64(dropped))
		p.connFails = 0
		n.log.Warn("peer unreachable, dropping queued frames",
			"peer", p.id.Short(), "frames", dropped)
		if drained {
			n.fireDrain(p.id)
		}
		return
	}
	if p.redialPending {
		return
	}
	p.redialPending = true
	// Cap the exponent, not the product: a large redialAttempts must not
	// shift the backoff into overflow.
	shift := p.connFails - 1
	if shift > 5 {
		shift = 5
	}
	n.Clock().After(n.opts.redialBackoff<<shift, func() {
		p.redialPending = false
		if p.ox.pendingFrames() > 0 {
			n.maybeDial(p)
		}
	})
}

// --- backpressure (netapi.Backpressured) -----------------------------------------

// QueuedBytes implements netapi.Backpressured.
func (n *Node) QueuedBytes(to ids.ID) int {
	if p, ok := n.peers[to]; ok {
		return p.ox.queuedBytes()
	}
	return 0
}

// Saturated implements netapi.Backpressured.
func (n *Node) Saturated(to ids.ID) bool {
	if p, ok := n.peers[to]; ok {
		return p.ox.saturated()
	}
	return false
}

// OnDrain implements netapi.Backpressured. It is a setup call, like
// Handle: it hops onto the actor loop, where fn runs too.
func (n *Node) OnDrain(fn func(to ids.ID)) {
	n.do(func() { n.drainFns = append(n.drainFns, fn) })
}

// fireDrain runs the registered drain callbacks. Actor loop only.
func (n *Node) fireDrain(id ids.ID) {
	for _, fn := range n.drainFns {
		fn(id)
	}
}

// notifyDrain posts a drain event from a writer goroutine.
func (n *Node) notifyDrain(id ids.ID) {
	n.do(func() { n.fireDrain(id) })
}

// dialPeer establishes the connection to p, opens it with hello and
// reads the hello the peer answers on it, until the connection ends. It
// touches p only through the actor loop. Failures hand the peer to
// scheduleRedial so frames queued during the attempt are not stranded
// until an unrelated later transmit.
func (n *Node) dialPeer(p *peer, addr string, hello frame) {
	defer n.wg.Done()
	fail := func() {
		n.do(func() {
			p.state = peerIdle
			n.scheduleRedial(p)
		})
	}
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		n.c.dialFails.Add(1)
		fail()
		return
	}
	if _, err := conn.Write(hello.head); err != nil { // XML: all head
		_ = conn.Close()
		fail()
		return
	}
	n.wg.Add(1)
	go n.readLoop(conn, 1<<10) // it carries only the peer's hello
	n.do(func() {
		p.conn = conn
		p.connFails = 0
		p.state = peerConnected
	})
	// The writer starts here, not in the callback above: a callback
	// still running on the loop may be queueing a burst toward p, and
	// the writer drains it meanwhile. The connect is queued on the inbox
	// ahead of any failure the writer posts, and this goroutine's own wg
	// count keeps Close waiting.
	n.wg.Add(1)
	go n.writeLoop(p, conn)
}

// helloFrame builds this node's hello frame around its address book.
// Actor loop only. Hellos always travel as XML so negotiation needs no
// prior agreement.
func (n *Node) helloFrame() frame {
	hello := &HelloMsg{
		ID:     n.info.ID.String(),
		Addr:   n.Addr(),
		Region: n.info.Region,
		X:      n.info.Coord.X,
		Y:      n.info.Coord.Y,
	}
	if n.preferBin {
		hello.Codecs = []string{wire.CodecXML, wire.CodecBinary}
		hello.KindsHash = n.bin.KindsHash()
	}
	for id, p := range n.peers {
		if p.addr != "" {
			hello.Known = append(hello.Known, HelloPeer{ID: id.String(), Addr: p.addr})
		}
	}
	env := &wire.Envelope{From: n.info.ID, To: n.info.ID, Msg: hello}
	head, body, _ := n.reg.EncodeSplit(env, nil, lenPrefix) // AppendXML cannot fail
	return newFrame(head, body)
}

// helloBack answers an accepted connection with this node's hello, so a
// dialer this node never dials back still learns its codecs. A dialer
// that does not read its connection leaves the hello in its socket
// buffer; readLoop closing the connection ends a write that blocks.
func (n *Node) helloBack(conn net.Conn, hello frame) {
	defer n.wg.Done()
	_, _ = conn.Write(hello.head) // a failed write is readLoop's to see
}

// rehello queues a fresh hello on every peer link that is up or being
// dialled, so an address the node just learned reaches them: a dial's
// own hello was built when the dial started, and what is queued is
// written after it. Actor loop only. A
// saturated outbox must not lose it: addresses travel only in hellos.
// Hellos are control frames, exempt from the byte budget, so only a
// queue at its hard cap can refuse one — those peers are tracked
// individually and only they are retried; peers that already got the
// hello are not re-broadcast to.
func (n *Node) rehello() { n.rehelloTo(nil) }

// rehelloTo sends the hello to every peer link rehello reaches, or with
// a non-nil only set just to those peers. Actor loop only.
func (n *Node) rehelloTo(only map[ids.ID]bool) {
	hello := n.helloFrame()
	var missed map[ids.ID]bool
	for _, p := range n.peers {
		if p.state == peerIdle || only != nil && !only[p.id] {
			continue
		}
		if !p.ox.push(hello, true) {
			if missed == nil {
				missed = make(map[ids.ID]bool)
			}
			missed[p.id] = true
		}
	}
	if len(missed) > 0 {
		n.Clock().After(100*time.Millisecond, func() { n.rehelloTo(missed) })
	}
}

func (n *Node) writeLoop(p *peer, conn net.Conn) {
	defer n.wg.Done()
	defer conn.Close()
	fail := func() {
		n.do(func() {
			p.conn = nil
			p.state = peerIdle
			// Frames queued after this batch was taken would otherwise be
			// stranded until an unrelated later transmit.
			n.scheduleRedial(p)
		})
	}
	var (
		frames []frame
		iovecs net.Buffers
	)
	for {
		// Drain before waiting: a fresh writeLoop may start with frames
		// already queued (and the notify token consumed by a previous
		// writer that died mid-flush).
		for {
			// Re-check shutdown between batches: a deep byte-budgeted
			// queue toward a slow receiver must not pin Close() until it
			// fully drains.
			select {
			case <-n.closed:
				return
			default:
			}
			var total int
			frames, total = p.ox.take(frames[:0], flushWatermark)
			if len(frames) == 0 {
				break
			}
			// Write the whole batch with one writev: each frame is its head,
			// length prefix included, then the body it borrows, if any.
			iovecs = iovecs[:0]
			for _, f := range frames {
				iovecs = append(iovecs, f.head)
				if len(f.body) > 0 {
					iovecs = append(iovecs, f.body)
				}
			}
			bufs := iovecs
			_, err := bufs.WriteTo(conn)
			clear(frames) // written bodies are not the writer's to pin
			// Release the batch's bytes even on error: the frames left the
			// queue either way, and the gauge must not wedge saturated.
			if p.ox.release(total) {
				n.notifyDrain(p.id)
			}
			if err != nil {
				fail()
				return
			}
			n.c.flushWrites.Add(1)
			if len(frames) > 1 {
				n.c.batchedFrames.Add(uint64(len(frames) - 1))
			}
		}
		select {
		case <-n.closed:
			return
		case <-p.ox.notify:
		}
	}
}

// --- receiving -------------------------------------------------------------------

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			select {
			case <-n.closed:
				return
			default:
				n.log.Debug("accept error", "err", err)
				continue
			}
		}
		n.wg.Add(1)
		go n.readLoop(conn, readBufSize)
		// The hello carries the address book, which is the loop's.
		n.do(func() {
			n.wg.Add(1)
			go n.helloBack(conn, n.helloFrame())
		})
	}
}

// readLoop delivers what conn carries, read through a bufSize buffer.
func (n *Node) readLoop(conn net.Conn, bufSize int) {
	defer n.wg.Done()
	defer conn.Close()
	// Close the connection promptly on shutdown.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-n.closed:
			_ = conn.Close()
		case <-stop:
		}
	}()
	fr := frameReader{r: conn, buf: make([]byte, bufSize)}
	// burst collects the envelopes of every frame already whole in the
	// buffer; the actor loop gets them in one inbox post, in order — on
	// the way out too, when a bad frame follows good ones.
	var burst []*wire.Envelope
	post := func() {
		if envs := burst; len(envs) > 0 {
			burst = nil
			n.Do(func() {
				for _, env := range envs {
					n.accept(env)
					n.loop.Drain()
				}
			})
		}
	}
	defer post()
	for {
		frame, err := fr.next()
		if err != nil {
			return
		}
		env, err := n.decodeFrame(frame)
		if err != nil {
			n.log.Warn("bad frame", "err", err)
			return
		}
		n.c.received.Add(1)
		burst = append(burst, env)
		if !fr.buffered() {
			post()
		}
	}
}

// accept runs one received envelope on the actor loop.
func (n *Node) accept(env *wire.Envelope) {
	if hello, ok := env.Msg.(*HelloMsg); ok {
		// An address this node has just learned goes on to its connected
		// peers ahead of anything it sends them next, so a join forwarded
		// along the overlay reaches nodes that can answer the joiner.
		if n.mergeHello(hello) {
			n.rehello()
		}
		return
	}
	n.dispatch(env)
}

// decodeFrame parses one frame, sniffing the codec from the leading
// byte: binary frames start with wire.BinaryMagic, XML frames with '<'.
// Both are accepted on every connection regardless of preference, so a
// codec mismatch can never wedge a link mid-negotiation.
//
// Binary frames decode in borrow mode: each frame is a fresh buffer
// (frameReader.next) handed off wholesale to the decoded envelope, so strings
// can alias it instead of copying — the PubMsg/DeliverMsg hot path
// decodes an event without one allocation per attribute.
func (n *Node) decodeFrame(frame []byte) (*wire.Envelope, error) {
	if wire.IsBinaryFrame(frame) {
		return n.bin.DecodeBorrow(frame)
	}
	return n.reg.Decode(frame)
}

// mergeHello learns addresses and codec capabilities from a peer's hello,
// and reports whether it learned the address of a node it had none for.
func (n *Node) mergeHello(h *HelloMsg) (learned bool) {
	if id, err := ids.Parse(h.ID); err == nil && h.Addr != "" {
		p := n.ensurePeer(id)
		learned = p.addr == ""
		p.addr = h.Addr
		p.binary = h.KindsHash == n.bin.KindsHash() && slices.Contains(h.Codecs, wire.CodecBinary)
	}
	for _, k := range h.Known {
		id, err := ids.Parse(k.ID)
		if err != nil || k.Addr == "" || id == n.info.ID {
			continue
		}
		p := n.ensurePeer(id)
		if p.addr == "" {
			p.addr = k.Addr
			learned = true
		}
	}
	return learned
}

// dispatch runs one envelope on the actor loop.
func (n *Node) dispatch(env *wire.Envelope) {
	if !n.loop.Deliver(env) {
		n.log.Debug("unhandled message", "kind", env.Msg.Kind())
	}
}

// --- framing -------------------------------------------------------------------

// frameReader cuts length-prefixed frames out of a connection through
// one fixed buffer: a burst of small frames costs one read, not two per
// frame. Every frame is returned in a fresh buffer of exactly its size —
// a decoded envelope aliases it (DecodeBorrow), a stored body keeps it —
// so nothing handed out points into buf. A frame that is not whole in
// buf takes what is there and reads its remainder straight into its own
// buffer: bulk frames bypass buf, and only a split header moves in it.
type frameReader struct {
	r          io.Reader
	buf        []byte
	head, tail int // the unread bytes are buf[head:tail]
}

// next returns the next frame, blocking only when it is not whole in the
// buffer. The size is checked before anything is allocated.
func (fr *frameReader) next() ([]byte, error) {
	if have := fr.tail - fr.head; have < 4 {
		copy(fr.buf, fr.buf[fr.head:fr.tail])
		n, err := io.ReadAtLeast(fr.r, fr.buf[have:], 4-have)
		fr.head, fr.tail = 0, have+n
		if err != nil {
			return nil, err
		}
	}
	size := binary.BigEndian.Uint32(fr.buf[fr.head:])
	if size > maxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", size)
	}
	frame := make([]byte, size)
	n := copy(frame, fr.buf[fr.head+4:fr.tail])
	fr.head += 4 + n
	if _, err := io.ReadFull(fr.r, frame[n:]); err != nil {
		return nil, err
	}
	return frame, nil
}

// buffered reports whether next would return a frame without reading.
func (fr *frameReader) buffered() bool {
	have := fr.tail - fr.head
	return have >= 4 && uint64(binary.BigEndian.Uint32(fr.buf[fr.head:]))+4 <= uint64(have)
}
