package plaxton

import (
	"fmt"

	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/wire"
)

// RouteMsg wraps an application message being routed toward a key. The
// payload travels encoded, in the origin's codec (Overlay.encodeInner), so
// intermediate hops need not understand — or even parse — it. Inner is
// never modified once built: it is the message's wire.TailMessage tail,
// which every hop's frame borrows under that interface's contract.
type RouteMsg struct {
	Key       string     `xml:"key,attr"`
	Origin    string     `xml:"origin,attr"`
	Hops      int        `xml:"hops,attr"`
	Trace     bool       `xml:"trace,attr,omitempty"`
	Path      []string   `xml:"path>node,omitempty"`
	InnerKind string     `xml:"ik,attr"`
	Inner     wire.Bytes `xml:"inner"`
}

// Kind implements wire.Message.
func (RouteMsg) Kind() string { return "plaxton.route" }

// PayloadKind attributes a routed frame's wire bytes to the message kind
// it carries, so per-kind byte metrics charge routed traffic to the
// subsystem that sent it rather than to the overlay envelope.
func (m RouteMsg) PayloadKind() string { return m.InnerKind }

// JoinMsg is routed toward the joining node's own ID; every hop pushes its
// state to the newcomer, and the root completes the join. Hop counts the
// nodes the message has passed: 0 at the bootstrap.
type JoinMsg struct {
	Joiner ids.ID `xml:"joiner,attr"`
	Hop    int    `xml:"hop,attr"`
}

// Kind implements wire.Message.
func (JoinMsg) Kind() string { return "plaxton.join" }

// StateMsg transfers a node's routing state to a joining node. Hop is the
// sender's place on the join route; the root's (Done) is the last, so the
// joiner knows how many states to wait for whatever order they land in.
type StateMsg struct {
	From   ids.ID   `xml:"from,attr"`
	Hop    int      `xml:"hop,attr"`
	Done   bool     `xml:"done,attr"` // true when sent by the join root
	Leaves []ids.ID `xml:"leaf"`
	Table  []ids.ID `xml:"entry"`
}

// Kind implements wire.Message.
func (StateMsg) Kind() string { return "plaxton.state" }

// AnnounceMsg tells existing nodes about a newly joined node (request,
// answered with PongMsg once the receiver has learned the node).
type AnnounceMsg struct {
	Node ids.ID `xml:"node,attr"`
}

// Kind implements wire.Message.
func (AnnounceMsg) Kind() string { return "plaxton.announce" }

// PingMsg probes liveness (request).
type PingMsg struct{}

// Kind implements wire.Message.
func (PingMsg) Kind() string { return "plaxton.ping" }

// PongMsg answers a ping or an announce.
type PongMsg struct{}

// Kind implements wire.Message.
func (PongMsg) Kind() string { return "plaxton.pong" }

// LeafReqMsg asks a node for its leaf set (request; used for repair).
type LeafReqMsg struct{}

// Kind implements wire.Message.
func (LeafReqMsg) Kind() string { return "plaxton.leafreq" }

// LeafReplyMsg returns a node's leaf set members.
type LeafReplyMsg struct {
	Leaves []ids.ID `xml:"leaf"`
}

// Kind implements wire.Message.
func (LeafReplyMsg) Kind() string { return "plaxton.leafreply" }

// RegisterMessages records all overlay message types in a wire registry.
func RegisterMessages(r *wire.Registry) {
	r.Register(&RouteMsg{})
	r.Register(&JoinMsg{})
	r.Register(&StateMsg{})
	r.Register(&AnnounceMsg{})
	r.Register(&PingMsg{})
	r.Register(&PongMsg{})
	r.Register(&LeafReqMsg{})
	r.Register(&LeafReplyMsg{})
}

// stringsToIDs parses identifiers, failing on the first malformed entry.
func stringsToIDs(in []string) ([]ids.ID, error) {
	out := make([]ids.ID, len(in))
	for i, s := range in {
		id, err := ids.Parse(s)
		if err != nil {
			return nil, fmt.Errorf("plaxton: bad id list entry %d: %w", i, err)
		}
		out[i] = id
	}
	return out, nil
}
