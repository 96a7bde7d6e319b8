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
// keeps one by value, calls Init once, sends through it, hands every
// received envelope to Deliver, runs Drain after every callback, and
// moves frames and timers for it through a Substrate. Every method runs
// on the callback goroutine.
type Loop struct {
	id       ids.ID
	sub      Substrate
	handlers map[string]Handler
	pending  map[Pending]pendingReply
	nextCorr uint64
	local    []entry
	// out is the envelope every send toward another node is built in:
	// Transmit borrows it for the call, and send zeroes it after.
	out wire.Envelope
}

// Substrate is what a Loop needs from the network under it.
type Substrate interface {
	// Transmit sends one envelope the loop built to another node. The
	// envelopes of one SendMany carry the same message and share
	// shared, which is nil for every other send. env is borrowed for the
	// call: the loop builds the next send in it, so a substrate that
	// keeps the envelope past Transmit keeps a copy of the value.
	Transmit(env *wire.Envelope, shared *wire.SharedBody)
	// Arm arranges for Loop.Expire(p) to run on the callback goroutine d
	// from now, and returns the timer a reply to p stops.
	Arm(d time.Duration, p Pending) vclock.Timer
	// Wake reports that the empty local run queue took an entry: Drain
	// must run before the node's next message or timer.
	Wake()
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

// entry is what dispatch reads of a message: an envelope bar its
// addresses. The local run queue holds entries by value.
type entry struct {
	msg   wire.Message
	corr  uint64
	reply bool
	err   string
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

// Send sends a one-way msg to to.
func (l *Loop) Send(to ids.ID, msg wire.Message) { l.send(to, entry{msg: msg}, nil) }

// SendMany sends msg to each of tos in order, as Send does; the
// envelopes toward other nodes share shared.
func (l *Loop) SendMany(tos []ids.ID, msg wire.Message, shared *wire.SharedBody) {
	for _, to := range tos {
		l.send(to, entry{msg: msg}, shared)
	}
}

// Request sends msg to to and runs cb once: with to's reply, or with
// ErrTimeout after timeout.
func (l *Loop) Request(to ids.ID, msg wire.Message, timeout time.Duration, cb ReplyFunc) {
	l.nextCorr++
	p := Pending{to, l.nextCorr}
	l.pending[p] = pendingReply{cb, l.sub.Arm(timeout, p)}
	l.send(to, entry{msg: msg, corr: p.corr}, nil)
}

// send is the one rule for where a message goes: one addressed to this
// node joins the local run queue, anything else leaves as an envelope.
func (l *Loop) send(to ids.ID, e entry, shared *wire.SharedBody) {
	if to == l.id {
		if len(l.local) == 0 {
			l.sub.Wake()
		}
		l.local = append(l.local, e)
		return
	}
	l.out = wire.Envelope{From: l.id, To: to, CorrID: e.corr, IsReply: e.reply, Msg: e.msg, Err: e.err}
	l.sub.Transmit(&l.out, shared)
	l.out = wire.Envelope{}
}

// Expire times request p out, unless its reply came first.
func (l *Loop) Expire(p Pending) {
	if r, ok := l.pending[p]; ok {
		delete(l.pending, p)
		r.cb(nil, ErrTimeout)
	}
}

// Deliver runs one received envelope. It reports false when no handler
// is registered for its kind.
func (l *Loop) Deliver(env *wire.Envelope) bool {
	return l.dispatch(env.From, entry{env.Msg, env.CorrID, env.IsReply, env.Err})
}

// Drain runs the local run queue in order, including what the entries it
// runs queue in turn.
func (l *Loop) Drain() {
	for i := 0; i < len(l.local); i++ {
		e := l.local[i]
		l.local[i] = entry{}
		l.dispatch(l.id, e)
	}
	l.local = l.local[:0]
}

// Discard empties the local run queue without running it.
func (l *Loop) Discard() {
	clear(l.local)
	l.local = l.local[:0]
}

// dispatch runs one message from from: a reply completes the request it
// answers, if from is the peer asked and it is still pending; anything
// else goes to the handler of its kind.
func (l *Loop) dispatch(from ids.ID, e entry) bool {
	if e.reply {
		p := Pending{from, e.corr}
		if r, ok := l.pending[p]; ok {
			delete(l.pending, p)
			r.timer.Stop()
			if e.err != "" {
				r.cb(e.msg, remoteError(e.err))
			} else {
				r.cb(e.msg, nil)
			}
		}
		return true
	}
	if e.msg == nil {
		return true
	}
	h, ok := l.handlers[e.msg.Kind()]
	if !ok {
		return false
	}
	var ctx Ctx = noReply{}
	if e.corr != 0 {
		// A request's ctx is its own: a handler may reply after it returns.
		ctx = &reqCtx{loop: l, to: from, corr: e.corr}
	}
	h(ctx, from, e.msg)
	return true
}

// noReply is the ctx of every one-way message: it answers nothing.
type noReply struct{}

func (noReply) Reply(wire.Message) {}
func (noReply) ReplyErr(error)     {}

// reqCtx answers one request, once.
type reqCtx struct {
	loop    *Loop
	to      ids.ID
	corr    uint64
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
	c.loop.send(c.to, entry{msg: msg, corr: c.corr, reply: true, err: errText}, nil)
}
