package pubsub

import (
	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/wire"
)

// SubMsg subscribes the sending direction to a filter.
type SubMsg struct {
	Filter Filter `xml:"filter"`
}

// Kind implements wire.Message.
func (SubMsg) Kind() string { return "pubsub.sub" }

// UnsubMsg removes the sending direction's subscription to a filter.
type UnsubMsg struct {
	Filter Filter `xml:"filter"`
}

// Kind implements wire.Message.
func (UnsubMsg) Kind() string { return "pubsub.unsub" }

// PubMsg carries a published event between brokers and from publishers.
type PubMsg struct {
	Event *event.Event `xml:"event"`
}

// Kind implements wire.Message.
func (PubMsg) Kind() string { return "pubsub.pub" }

// DeliverMsg carries a matched event from a broker to a client node.
type DeliverMsg struct {
	Event *event.Event `xml:"event"`
}

// Kind implements wire.Message.
func (DeliverMsg) Kind() string { return "pubsub.deliver" }

// PeerMsg asks a broker to register the sender as a peer broker (used by
// topology self-healing when an orphaned subtree reattaches upstream).
// The receiver resynchronises its subscription state over the new link.
type PeerMsg struct{}

// Kind implements wire.Message.
func (PeerMsg) Kind() string { return "pubsub.peer" }

// DetachMsg tells the broker a mobile client is disconnecting; the broker
// keeps its subscriptions alive via a buffering proxy (Mobikit-style).
type DetachMsg struct{}

// Kind implements wire.Message.
func (DetachMsg) Kind() string { return "pubsub.detach" }

// ReclaimMsg asks the client's previous broker for buffered events and
// tears the proxy down. Sent as a request; answered with ReclaimReply.
type ReclaimMsg struct{}

// Kind implements wire.Message.
func (ReclaimMsg) Kind() string { return "pubsub.reclaim" }

// ReclaimReply returns the events buffered while the client was detached.
type ReclaimReply struct {
	Events  []*event.Event `xml:"event"`
	Dropped int            `xml:"dropped,attr"` // buffer overflow count
}

// Kind implements wire.Message.
func (ReclaimReply) Kind() string { return "pubsub.reclaimReply" }

// The subscription-state and topology messages are control-plane
// traffic (wire.ControlMessage): budgeted send queues shed event
// fan-out (PubMsg/DeliverMsg) before the routing state that steers it,
// since a lost sub/unsub silently mis-routes every later event
// while a lost event loses only itself. ReclaimReply is excluded — it
// carries the buffered events themselves.

// Control implements wire.ControlMessage.
func (SubMsg) Control() bool { return true }

// Control implements wire.ControlMessage.
func (UnsubMsg) Control() bool { return true }

// Control implements wire.ControlMessage.
func (PeerMsg) Control() bool { return true }

// Control implements wire.ControlMessage.
func (DetachMsg) Control() bool { return true }

// Control implements wire.ControlMessage.
func (ReclaimMsg) Control() bool { return true }

// RegisterMessages records all pub/sub message types in a wire registry.
func RegisterMessages(r *wire.Registry) {
	r.Register(&SubMsg{})
	r.Register(&UnsubMsg{})
	r.Register(&PubMsg{})
	r.Register(&DeliverMsg{})
	r.Register(&PeerMsg{})
	r.Register(&DetachMsg{})
	r.Register(&ReclaimMsg{})
	r.Register(&ReclaimReply{})
}
