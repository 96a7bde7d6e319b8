// Package spy decorates a node's netapi.Endpoint so the benchmark can
// time the program's layer boundaries from outside: every handler the
// program registers and every Send/SendMany it issues is timestamped
// into a trace.Recorder. The decorator embeds the real endpoint, so the
// optional capabilities (Multicaster, Backpressured, ConcurrentSender)
// still resolve and the program takes the same code paths as without it.
package spy

import (
	"github.com/gloss/active/bench/internal/trace"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/wire"
)

// Real is what both substrates' nodes provide and the decorator forwards.
type Real interface {
	netapi.Endpoint
	netapi.Multicaster
	netapi.Backpressured
}

// Sampler decides, per message, whether its spans are kept and which
// journey they belong to (trace.NoJourney for traffic outside any journey).
type Sampler func(msg wire.Message) (journey int64, keep bool)

// Tap is the decorated endpoint of one node.
type Tap struct {
	Real
	rec    *trace.Recorder
	node   int16
	index  map[ids.ID]int // node index by ID; read-only once the run starts
	sample Sampler
}

// TCPTap is a Tap over the TCP transport, which additionally accepts
// sends from any goroutine; advertising that keeps the broker's fan-out
// pool engaged exactly as on the bare endpoint.
type TCPTap struct{ *Tap }

// ConcurrentSends implements netapi.ConcurrentSender.
func (TCPTap) ConcurrentSends() bool { return true }

// New wraps ep as node number node. index maps every node's ID to its
// number so send spans can name their destinations.
func New(ep Real, rec *trace.Recorder, node int, index map[ids.ID]int, sample Sampler) *Tap {
	return &Tap{Real: ep, rec: rec, node: int16(node), index: index, sample: sample}
}

// payloadKinder is implemented by the overlay's route envelope: the
// handler span is named after the message it carries, so a routed put
// and a routed get are told apart.
type payloadKinder interface{ PayloadKind() string }

// Handle registers h behind a wrapper that records one span per kept
// invocation, named "h:<kind>" (or "h:<kind>/<payload kind>").
func (t *Tap) Handle(kind string, h netapi.Handler) {
	plain := t.rec.Name("h:" + kind)
	t.Real.Handle(kind, func(ctx netapi.Ctx, from ids.ID, msg wire.Message) {
		j, keep := t.sample(msg)
		if !keep {
			h(ctx, from, msg)
			return
		}
		name := plain
		if pk, ok := msg.(payloadKinder); ok {
			name = t.rec.Name("h:" + kind + "/" + pk.PayloadKind())
		}
		idx := t.rec.Begin(trace.Span{Name: name, Node: t.node, Journey: j, Start: t.rec.Now(), To: t.mask(from)})
		h(ctx, from, msg)
		t.rec.End(idx, t.rec.Now())
	})
}

// Send records one "s:<kind>" span around the real Send.
func (t *Tap) Send(to ids.ID, msg wire.Message) {
	j, keep := t.sample(msg)
	if !keep {
		t.Real.Send(to, msg)
		return
	}
	idx := t.rec.Begin(trace.Span{Name: t.sendName(msg), Node: t.node, Journey: j, Start: t.rec.Now(), To: t.mask(to)})
	t.Real.Send(to, msg)
	t.rec.End(idx, t.rec.Now())
}

// SendMany records one span covering the whole multicast; To carries
// every destination.
func (t *Tap) SendMany(tos []ids.ID, msg wire.Message) {
	j, keep := t.sample(msg)
	if !keep {
		t.Real.SendMany(tos, msg)
		return
	}
	var mask uint64
	for _, to := range tos {
		mask |= t.mask(to)
	}
	idx := t.rec.Begin(trace.Span{Name: t.sendName(msg), Node: t.node, Journey: j, Start: t.rec.Now(), To: mask})
	t.Real.SendMany(tos, msg)
	t.rec.End(idx, t.rec.Now())
}

func (t *Tap) sendName(msg wire.Message) uint16 {
	if pk, ok := msg.(payloadKinder); ok {
		return t.rec.Name("s:" + msg.Kind() + "/" + pk.PayloadKind())
	}
	return t.rec.Name("s:" + msg.Kind())
}

func (t *Tap) mask(id ids.ID) uint64 {
	if i, ok := t.index[id]; ok && i < 64 {
		return 1 << uint(i)
	}
	return 0
}
