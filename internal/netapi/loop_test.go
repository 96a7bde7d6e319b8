package netapi

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/vclock"
	"github.com/gloss/active/internal/wire"
)

// The oracles below are the two dispatch paths the substrates ran before
// they shared Loop: transport.Node's (a wall-clock timer per request that
// checks it is still pending, errors.New for a remote error, the local
// run queue) and simnet.Node's (the pending request is its own timeout
// task, a string type for a remote error). Both key pending requests by
// correlation ID alone, so the programs only ever answer a request from
// the peer asked.

// tcpOracle is transport.Node's endpoint semantics.
type tcpOracle struct {
	id       ids.ID
	clock    vclock.Clock
	transmit func(*wire.Envelope)
	handlers map[string]Handler
	pending  map[uint64]*tcpPending
	nextCorr uint64
	local    []wire.Message
	localCtx tcpCtx
}

type tcpPending struct {
	cb    ReplyFunc
	timer vclock.Timer
}

func newTCPOracle(id ids.ID, clock vclock.Clock, transmit func(*wire.Envelope)) *tcpOracle {
	n := &tcpOracle{id: id, clock: clock, transmit: transmit,
		handlers: make(map[string]Handler), pending: make(map[uint64]*tcpPending)}
	n.localCtx = tcpCtx{node: n, env: &wire.Envelope{From: id, To: id}}
	return n
}

func (n *tcpOracle) handle(kind string, h Handler) { n.handlers[kind] = h }

func (n *tcpOracle) request(to ids.ID, msg wire.Message, timeout time.Duration, cb ReplyFunc) {
	n.nextCorr++
	corr := n.nextCorr
	env := &wire.Envelope{From: n.id, To: to, CorrID: corr, Msg: msg}
	p := &tcpPending{cb: cb}
	p.timer = n.clock.After(timeout, func() {
		if _, ok := n.pending[corr]; ok {
			delete(n.pending, corr)
			cb(nil, ErrTimeout)
		}
	})
	n.pending[corr] = p
	n.transmit(env)
}

func (n *tcpOracle) deliver(env *wire.Envelope) bool {
	if env.IsReply {
		p, ok := n.pending[env.CorrID]
		if !ok {
			return true
		}
		delete(n.pending, env.CorrID)
		p.timer.Stop()
		if env.Err != "" {
			p.cb(env.Msg, errors.New(env.Err))
			return true
		}
		p.cb(env.Msg, nil)
		return true
	}
	if env.Msg == nil {
		return true
	}
	h, ok := n.handlers[env.Msg.Kind()]
	if !ok {
		return false // logged as unhandled
	}
	if env.CorrID == 0 {
		h(&n.localCtx, env.From, env.Msg)
		return true
	}
	h(&tcpCtx{node: n, env: env}, env.From, env.Msg)
	return true
}

func (n *tcpOracle) deliverLocal(msg wire.Message) { n.local = append(n.local, msg) }

func (n *tcpOracle) drainLocal() {
	for i := 0; i < len(n.local); i++ {
		msg := n.local[i]
		n.local[i] = nil
		if h, ok := n.handlers[msg.Kind()]; ok {
			h(&n.localCtx, n.id, msg)
		}
	}
	n.local = n.local[:0]
}

type tcpCtx struct {
	node    *tcpOracle
	env     *wire.Envelope
	replied bool
}

func (c *tcpCtx) Reply(msg wire.Message) {
	if c.env.CorrID == 0 || c.replied {
		return
	}
	c.replied = true
	c.node.transmit(&wire.Envelope{
		From: c.node.id, To: c.env.From,
		CorrID: c.env.CorrID, IsReply: true, Msg: msg,
	})
}

func (c *tcpCtx) ReplyErr(err error) {
	if c.env.CorrID == 0 || c.replied {
		return
	}
	c.replied = true
	c.node.transmit(&wire.Envelope{
		From: c.node.id, To: c.env.From,
		CorrID: c.env.CorrID, IsReply: true, Err: err.Error(),
	})
}

// simOracle is simnet.Node's endpoint semantics, for a node that stays
// alive.
type simOracle struct {
	id       ids.ID
	sched    *vclock.Scheduler
	transmit func(*wire.Envelope)
	handlers map[string]Handler
	pending  map[uint64]*simPendingReq
	nextCorr uint64
}

type simPendingReq struct {
	vclock.Handle
	node *simOracle
	corr uint64
	cb   ReplyFunc
}

func (r *simPendingReq) Run() {
	delete(r.node.pending, r.corr)
	r.cb(nil, ErrTimeout)
}

func newSimOracle(id ids.ID, sched *vclock.Scheduler, transmit func(*wire.Envelope)) *simOracle {
	return &simOracle{id: id, sched: sched, transmit: transmit,
		handlers: make(map[string]Handler), pending: make(map[uint64]*simPendingReq)}
}

func (n *simOracle) handle(kind string, h Handler) { n.handlers[kind] = h }

func (n *simOracle) request(to ids.ID, msg wire.Message, timeout time.Duration, cb ReplyFunc) {
	n.nextCorr++
	corr := n.nextCorr
	env := &wire.Envelope{From: n.id, To: to, CorrID: corr, Msg: msg}
	p := &simPendingReq{node: n, corr: corr, cb: cb}
	n.sched.Schedule(timeout, p, &p.Handle)
	n.pending[corr] = p
	n.transmit(env)
}

func (n *simOracle) deliver(env *wire.Envelope) bool {
	if env.IsReply {
		p, ok := n.pending[env.CorrID]
		if !ok {
			return true
		}
		delete(n.pending, env.CorrID)
		p.Stop()
		if env.Err != "" {
			p.cb(env.Msg, simRemoteError(env.Err))
			return true
		}
		p.cb(env.Msg, nil)
		return true
	}
	if env.Msg == nil {
		return true
	}
	h, ok := n.handlers[env.Msg.Kind()]
	if !ok {
		return false // counted as Unhandled
	}
	ctx := oneWay
	if env.CorrID != 0 {
		ctx = &msgCtx{node: n, env: env}
	}
	h(ctx, env.From, env.Msg)
	return true
}

func (n *simOracle) deliverLocal(wire.Message) { panic("simnet has no local run queue") }
func (n *simOracle) drainLocal()               {}

var oneWay = &msgCtx{env: &wire.Envelope{}}

type simRemoteError string

func (e simRemoteError) Error() string { return string(e) }

type msgCtx struct {
	node    *simOracle
	env     *wire.Envelope
	replied bool
}

func (c *msgCtx) Reply(msg wire.Message) {
	if c.env.CorrID == 0 || c.replied {
		return
	}
	c.replied = true
	c.node.transmit(&wire.Envelope{From: c.node.id, To: c.env.From, CorrID: c.env.CorrID, IsReply: true, Msg: msg})
}

func (c *msgCtx) ReplyErr(err error) {
	if c.env.CorrID == 0 || c.replied {
		return
	}
	c.replied = true
	c.node.transmit(&wire.Envelope{From: c.node.id, To: c.env.From, CorrID: c.env.CorrID, IsReply: true, Err: err.Error()})
}

// coreEP is a Loop on a test substrate: timeouts the way transport arms
// them (a clock timer that calls Expire) or the way simnet does (the
// pending entry embedded in its own scheduler task).
type coreEP struct {
	Loop
	sched    *vclock.Scheduler
	transmit func(*wire.Envelope)
	simArm   bool
}

type simPending struct {
	vclock.Handle
	loop *Loop
	p    Pending
}

func (r *simPending) Run() { r.loop.Expire(r.p) }

// Transmit records a copy: the loop lends env for the call only.
func (c *coreEP) Transmit(env *wire.Envelope, _ *wire.SharedBody) {
	cp := *env
	c.transmit(&cp)
}

func (c *coreEP) Wake() {}

func (c *coreEP) Arm(d time.Duration, p Pending) vclock.Timer {
	if c.simArm {
		r := &simPending{loop: &c.Loop, p: p}
		c.sched.Schedule(d, r, &r.Handle)
		return &r.Handle
	}
	return c.sched.After(d, func() { c.Expire(p) })
}

func (c *coreEP) handle(kind string, h Handler) { c.Handle(kind, h) }
func (c *coreEP) request(to ids.ID, msg wire.Message, timeout time.Duration, cb ReplyFunc) {
	c.Request(to, msg, timeout, cb)
}
func (c *coreEP) deliver(env *wire.Envelope) bool { return c.Deliver(env) }
func (c *coreEP) deliverLocal(msg wire.Message)   { c.Send(loopSelf, msg) }
func (c *coreEP) drainLocal()                     { c.Drain() }

// endpoint is what a program drives: the core or an oracle.
type endpoint interface {
	handle(kind string, h Handler)
	request(to ids.ID, msg wire.Message, timeout time.Duration, cb ReplyFunc)
	deliver(env *wire.Envelope) bool
	deliverLocal(msg wire.Message)
	drainLocal()
}

// Handler actions, carried by the message a handler receives.
const (
	actNone = iota
	actReply
	actReplyErr
	actReplyTwice  // Reply, then a second Reply that must send nothing
	actReplyBoth   // Reply, then ReplyErr
	actDeferred    // Reply from a timer after the handler returned
	actLocal       // send the message's next to self, then Reply
	actReplyErrAll // ReplyErr, then Reply
	numActs
)

// tmsg is a program's message; its kind is a field so the programs can
// send kinds nothing handles.
type tmsg struct {
	kind  string
	text  string
	act   int
	delay time.Duration // actDeferred
	next  *tmsg         // actLocal
}

func (m *tmsg) Kind() string { return m.kind }

// op is one step of a program.
type op struct {
	code    int // opHandle ... opLocal
	kind    string
	peer    ids.ID
	msg     *tmsg
	corr    uint64        // opRequestIn
	timeout time.Duration // opRequestOut
	advance time.Duration // opAdvance
	pick    int           // opReplyIn: which of our requests is answered
	errText string        // opReplyIn
}

const (
	opHandle = iota
	opOneWay
	opRequestIn
	opRequestOut
	opReplyIn
	opAdvance
	opLocal
	opNilMsg
	numOps
)

var (
	loopSelf  = ids.FromString("loop-self")
	loopPeers = []ids.ID{ids.FromString("loop-p0"), ids.FromString("loop-p1"), ids.FromString("loop-p2")}
	loopKinds = []string{"k0", "k1", "k2", "k3"} // k3 is never handled
)

// genMsg draws a message, with a local chain of depth at most depth when
// the local run queue is in play.
func genMsg(r *rand.Rand, text string, local bool, depth int) *tmsg {
	m := &tmsg{kind: loopKinds[r.Intn(len(loopKinds))], text: text, act: r.Intn(numActs)}
	if m.act == actLocal && (!local || depth == 0) {
		m.act = actReply
	}
	switch m.act {
	case actDeferred:
		m.delay = time.Duration(r.Intn(30)) * time.Millisecond
	case actLocal:
		m.next = genMsg(r, text+"/l", local, depth-1)
	}
	return m
}

// genProgram draws a program of n steps; local adds the local run queue.
func genProgram(seed int64, n int, local bool) []op {
	r := rand.New(rand.NewSource(seed))
	prog := []op{{code: opHandle, kind: "k0"}, {code: opHandle, kind: "k1"}}
	for i := 0; i < n; i++ {
		o := op{code: r.Intn(numOps), kind: loopKinds[r.Intn(3)], peer: loopPeers[r.Intn(len(loopPeers))]}
		text := fmt.Sprintf("m%d", i)
		switch o.code {
		case opOneWay, opRequestIn:
			o.msg = genMsg(r, text, local, 3)
			o.corr = uint64(1000 + i)
		case opRequestOut:
			o.msg = &tmsg{kind: "ask", text: text}
			o.timeout = time.Duration(1+r.Intn(40)) * time.Millisecond
		case opReplyIn:
			o.pick = r.Intn(1 << 20)
			o.msg = &tmsg{kind: "answer", text: text}
			if r.Intn(3) == 0 {
				o.msg, o.errText = nil, "remote says no to "+text
			}
		case opAdvance:
			o.advance = time.Duration(r.Intn(25)) * time.Millisecond
		case opLocal:
			if !local {
				o.code = opAdvance
			}
			o.msg = genMsg(r, text, local, 3)
		}
		prog = append(prog, o)
	}
	return append(prog, op{code: opAdvance, advance: time.Second})
}

// runProgram plays prog on the endpoint build returns and traces every
// handler call, reply callback, envelope sent and unhandled delivery.
func runProgram(prog []op, build func(*vclock.Scheduler, func(*wire.Envelope)) endpoint) []string {
	sched := vclock.NewScheduler()
	var trace []string
	var asked []*wire.Envelope // our requests, in send order
	var ep endpoint
	ep = build(sched, func(env *wire.Envelope) {
		text, errText := "", env.Err
		if m, ok := env.Msg.(*tmsg); ok {
			text = m.text
		}
		trace = append(trace, fmt.Sprintf("%v send to %s corr %d reply %v msg %q err %q",
			sched.Now(), env.To.Short(), env.CorrID, env.IsReply, text, errText))
		if !env.IsReply {
			asked = append(asked, env)
		}
	})
	handler := func(version int) Handler {
		return func(ctx Ctx, from ids.ID, msg wire.Message) {
			m := msg.(*tmsg)
			trace = append(trace, fmt.Sprintf("%v h%d %s from %s: %s", sched.Now(), version, m.kind, from.Short(), m.text))
			answer := &tmsg{kind: "answer", text: fmt.Sprintf("re %s by h%d", m.text, version)}
			switch m.act {
			case actReply:
				ctx.Reply(answer)
			case actReplyErr:
				ctx.ReplyErr(errors.New("h failed " + m.text))
			case actReplyTwice:
				ctx.Reply(answer)
				ctx.Reply(&tmsg{kind: "answer", text: "second"})
			case actReplyBoth:
				ctx.Reply(answer)
				ctx.ReplyErr(errors.New("too late"))
			case actReplyErrAll:
				ctx.ReplyErr(errors.New("first " + m.text))
				ctx.Reply(answer)
			case actDeferred:
				sched.After(m.delay, func() { ctx.Reply(answer) })
			case actLocal:
				ep.deliverLocal(m.next)
				ctx.Reply(answer)
			}
		}
	}
	deliver := func(env *wire.Envelope) {
		if !ep.deliver(env) {
			trace = append(trace, fmt.Sprintf("%v unhandled from %s", sched.Now(), env.From.Short()))
		}
	}
	for i, o := range prog {
		switch o.code {
		case opHandle:
			ep.handle(o.kind, handler(i))
		case opOneWay:
			deliver(&wire.Envelope{From: o.peer, To: loopSelf, Msg: o.msg})
		case opRequestIn:
			deliver(&wire.Envelope{From: o.peer, To: loopSelf, CorrID: o.corr, Msg: o.msg})
		case opRequestOut:
			text := o.msg.text
			ep.request(o.peer, o.msg, o.timeout, func(reply wire.Message, err error) {
				got := ""
				if m, ok := reply.(*tmsg); ok {
					got = m.text
				}
				trace = append(trace, fmt.Sprintf("%v cb %s: reply %q err %v", sched.Now(), text, got, err))
			})
		case opReplyIn:
			if len(asked) == 0 {
				continue
			}
			req := asked[o.pick%len(asked)]
			env := &wire.Envelope{From: req.To, To: loopSelf, CorrID: req.CorrID, IsReply: true, Err: o.errText}
			if o.msg != nil {
				env.Msg = o.msg
			}
			deliver(env)
		case opAdvance:
			sched.RunFor(o.advance)
		case opLocal:
			ep.deliverLocal(o.msg)
		case opNilMsg:
			deliver(&wire.Envelope{From: o.peer, To: loopSelf})
		}
		ep.drainLocal() // the actor loop drains after every callback
	}
	return trace
}

// TestLoopMatchesOracles runs the core and each substrate's old dispatch
// path through the same random programs — requests in both directions,
// replies and error replies, deferred, repeated and late replies,
// unhandled kinds, handlers replaced mid-run and, against the transport
// oracle, local run-queue chains — and demands identical traces: every
// handler call, reply callback and envelope sent, in order.
func TestLoopMatchesOracles(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		for _, sub := range []string{"transport", "simnet"} {
			local := sub == "transport"
			prog := genProgram(seed, 150, local)
			want := runProgram(prog, func(s *vclock.Scheduler, tx func(*wire.Envelope)) endpoint {
				if local {
					return newTCPOracle(loopSelf, s, tx)
				}
				return newSimOracle(loopSelf, s, tx)
			})
			got := runProgram(prog, func(s *vclock.Scheduler, tx func(*wire.Envelope)) endpoint {
				c := &coreEP{sched: s, transmit: tx, simArm: !local}
				c.Init(loopSelf, c)
				return c
			})
			if !reflect.DeepEqual(got, want) {
				for i := range min(len(got), len(want)) {
					if got[i] != want[i] {
						t.Fatalf("%s oracle, seed %d, step %d:\n core   %s\n oracle %s", sub, seed, i, got[i], want[i])
					}
				}
				t.Fatalf("%s oracle, seed %d: %d trace lines, oracle %d", sub, seed, len(got), len(want))
			}
			if seed == 1 && !strings.Contains(strings.Join(want, "\n"), "timed out") {
				t.Fatalf("%s programs never time a request out", sub)
			}
		}
	}
}

// nopSubstrate sends nothing and never expires.
type nopSubstrate struct{}

func (nopSubstrate) Transmit(*wire.Envelope, *wire.SharedBody) {}
func (nopSubstrate) Arm(time.Duration, Pending) vclock.Timer   { return new(vclock.Handle) }
func (nopSubstrate) Wake()                                     {}

// TestLoopDispatchAllocs: dispatch allocates nothing of its own for a
// one-way envelope and one ctx for a request, which may outlive its
// handler.
func TestLoopDispatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds do not hold under -race")
	}
	var l Loop
	l.Init(loopSelf, nopSubstrate{})
	calls := 0
	l.Handle("k0", func(Ctx, ids.ID, wire.Message) { calls++ })
	oneWay := &wire.Envelope{From: loopPeers[0], To: loopSelf, Msg: &tmsg{kind: "k0"}}
	if n := testing.AllocsPerRun(200, func() { l.Deliver(oneWay) }); n != 0 {
		t.Errorf("one-way delivery: %.1f allocs, want 0", n)
	}
	request := &wire.Envelope{From: loopPeers[0], To: loopSelf, CorrID: 7, Msg: &tmsg{kind: "k0"}}
	if n := testing.AllocsPerRun(200, func() { l.Deliver(request) }); n > 1 {
		t.Errorf("request delivery: %.1f allocs, want ≤ 1 (its ctx)", n)
	}
	if calls != 402 {
		t.Fatalf("handler ran %d times, want 402", calls)
	}
}

// TestSelfSendAllocs: a one-way send to self allocates nothing beyond its
// message (no envelope; the run queue keeps its array), and a request to
// self with its reply allocates what a request round trip does: the
// request's ctx and the reply callback's timer, which nopSubstrate
// makes.
func TestSelfSendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds do not hold under -race")
	}
	var l Loop
	l.Init(loopSelf, nopSubstrate{})
	calls := 0
	l.Handle("k0", func(ctx Ctx, _ ids.ID, msg wire.Message) {
		calls++
		ctx.Reply(msg)
	})
	msg := &tmsg{kind: "k0"}
	if n := testing.AllocsPerRun(200, func() {
		l.Send(loopSelf, msg)
		l.Drain()
	}); n != 0 {
		t.Errorf("one-way self-send: %.1f allocs, want 0", n)
	}
	answered := 0
	cb := func(wire.Message, error) { answered++ }
	if n := testing.AllocsPerRun(200, func() {
		l.Request(loopSelf, msg, time.Second, cb)
		l.Drain()
	}); n > 2 {
		t.Errorf("request to self: %.1f allocs, want ≤ 2 (its ctx, its timer)", n)
	}
	if calls != 402 || answered != 201 {
		t.Fatalf("handler ran %d times, %d requests answered; want 402 and 201", calls, answered)
	}
}
