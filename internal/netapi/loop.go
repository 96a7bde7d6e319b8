package netapi

import (
	"time"

	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/vclock"
	"github.com/gloss/active/internal/wire"
)

// Loop is the endpoint core both substrates run: the handler table,
// pending requests and their timeouts, dispatch of a received envelope,
// the ctx a handler replies through, and the local run queue. A node
// keeps one by value, calls Init once, hands every received envelope to
// Deliver, and moves frames and timers for it through a Substrate. Every
// method runs on the callback goroutine.
type Loop struct {
	id       ids.ID
	sub      Substrate
	handlers map[string]Handler
	pending  map[Pending]pendingReply
	nextCorr uint64
	local    []wire.Message
}

// Substrate is what a Loop needs from the network under it.
type Substrate interface {
	// Transmit sends one envelope the loop built: a request or a reply.
	Transmit(env *wire.Envelope)
	// Arm arranges for Loop.Expire(p) to run on the callback goroutine d
	// from now, and returns the timer a reply to p stops.
	Arm(d time.Duration, p Pending) vclock.Timer
}

// Pending names an outstanding request: the peer asked, which alone may
// answer it, and its correlation ID.
type Pending struct {
	peer ids.ID
	corr uint64
}

// pendingReply is what a reply or the timeout completes.
type pendingReply struct {
	cb    ReplyFunc
	timer vclock.Timer
}

// remoteError is the error a peer's handler answered a request with.
type remoteError string

func (e remoteError) Error() string { return string(e) }

// Init readies l for node id, served by sub.
func (l *Loop) Init(id ids.ID, sub Substrate) {
	l.id, l.sub = id, sub
	l.handlers = make(map[string]Handler)
	l.pending = make(map[Pending]pendingReply)
}

// Handle registers h for kind, replacing an earlier handler.
func (l *Loop) Handle(kind string, h Handler) { l.handlers[kind] = h }

// Request sends msg to to and runs cb once: with to's reply, or with
// ErrTimeout after timeout.
func (l *Loop) Request(to ids.ID, msg wire.Message, timeout time.Duration, cb ReplyFunc) {
	l.nextCorr++
	p := Pending{to, l.nextCorr}
	env := &wire.Envelope{From: l.id, To: to, CorrID: p.corr, Msg: msg}
	l.pending[p] = pendingReply{cb, l.sub.Arm(timeout, p)}
	l.sub.Transmit(env)
}

// Expire times request p out, unless its reply came first.
func (l *Loop) Expire(p Pending) {
	if r, ok := l.pending[p]; ok {
		delete(l.pending, p)
		r.cb(nil, ErrTimeout)
	}
}

// Deliver runs one received envelope: a reply completes the request it
// answers, if its sender is the peer asked and it is still pending;
// anything else goes to the handler of its kind. Deliver reports false
// when no handler is registered for that kind.
func (l *Loop) Deliver(env *wire.Envelope) bool {
	if env.IsReply {
		p := Pending{env.From, env.CorrID}
		if r, ok := l.pending[p]; ok {
			delete(l.pending, p)
			r.timer.Stop()
			if env.Err != "" {
				r.cb(env.Msg, remoteError(env.Err))
			} else {
				r.cb(env.Msg, nil)
			}
		}
		return true
	}
	if env.Msg == nil {
		return true
	}
	h, ok := l.handlers[env.Msg.Kind()]
	if !ok {
		return false
	}
	var ctx Ctx = noReply{}
	if env.CorrID != 0 {
		// A request's ctx is its own: a handler may reply after it returns.
		ctx = &reqCtx{loop: l, env: env}
	}
	h(ctx, env.From, env.Msg)
	return true
}

// DeliverLocal queues msg for this node's handler of msg.Kind(), as if it
// had come from the node itself; DrainLocal runs it.
func (l *Loop) DeliverLocal(msg wire.Message) { l.local = append(l.local, msg) }

// DrainLocal runs the local run queue in order, including what the
// handlers it runs queue in turn. A substrate that offers DeliverLocal
// calls it after every callback.
func (l *Loop) DrainLocal() {
	for i := 0; i < len(l.local); i++ {
		msg := l.local[i]
		l.local[i] = nil
		if h, ok := l.handlers[msg.Kind()]; ok {
			h(noReply{}, l.id, msg)
		}
	}
	l.local = l.local[:0]
}

// noReply is the ctx of every one-way and local message: it answers
// nothing.
type noReply struct{}

func (noReply) Reply(wire.Message) {}
func (noReply) ReplyErr(error)     {}

// reqCtx answers one request, once.
type reqCtx struct {
	loop    *Loop
	env     *wire.Envelope
	replied bool
}

func (c *reqCtx) Reply(msg wire.Message) { c.answer(msg, "") }

func (c *reqCtx) ReplyErr(err error) {
	if !c.replied {
		c.answer(nil, err.Error())
	}
}

func (c *reqCtx) answer(msg wire.Message, errText string) {
	if c.replied {
		return
	}
	c.replied = true
	c.loop.sub.Transmit(&wire.Envelope{
		From: c.loop.id, To: c.env.From,
		CorrID: c.env.CorrID, IsReply: true, Msg: msg, Err: errText,
	})
}
