package knowledge

import (
	"github.com/gloss/active/internal/wire"
)

// Gossip anti-entropy messages. Brokers periodically exchange per-subject
// digests (subject + version vector); a receiver pushes back only fact
// sets whose local version is causally newer than — or concurrent with —
// the digest entry, so settled subjects cost one small digest line per
// round and never move their bodies. Only fact sets replicate: each
// node's GIS layer is installed where the node is built.

// DigestEntry summarises one subject's fact set: the subject and the
// serialised summary vector of the local sibling set
// (causal.Vec.AppendWire form).
type DigestEntry struct {
	Name string     `xml:"name,attr"`
	Vec  wire.Bytes `xml:"vec"`
}

// GossipMsg carries a node's full knowledge digest. Reply marks the
// second leg of a round (the partner's answering digest) so exchanges
// terminate after one round trip.
type GossipMsg struct {
	Reply   bool          `xml:"reply,attr,omitempty"`
	Entries []DigestEntry `xml:"entry"`
}

// Kind implements wire.Message.
func (GossipMsg) Kind() string { return "kb.digest" }

// GossipPushMsg pushes one subject's versioned fact set (the full binary
// envelope, siblings and all) to a gossip partner whose digest showed it
// stale or concurrent.
type GossipPushMsg struct {
	Name string     `xml:"name,attr"`
	Data wire.Bytes `xml:"data"`
}

// Kind implements wire.Message.
func (GossipPushMsg) Kind() string { return "kb.push" }

// RegisterMessages registers the knowledge gossip kinds.
func RegisterMessages(r *wire.Registry) {
	r.Register(&GossipMsg{})
	r.Register(&GossipPushMsg{})
}

var (
	_ wire.BinaryMessage = (*GossipMsg)(nil)
	_ wire.TailMessage   = (*GossipPushMsg)(nil)
)

// AppendWire implements wire.BinaryMessage.
func (m *GossipMsg) AppendWire(b []byte) []byte {
	b = wire.AppendBool(b, m.Reply)
	b = wire.AppendUvarint(b, uint64(len(m.Entries)))
	for _, e := range m.Entries {
		b = wire.AppendString(b, e.Name)
		b = wire.AppendBytes(b, e.Vec)
	}
	return b
}

// ParseWire implements wire.BinaryMessage.
func (m *GossipMsg) ParseWire(r *wire.BinReader) error {
	m.Reply = r.Bool()
	n := r.Count()
	m.Entries = nil
	for i := 0; i < n && r.Err() == nil; i++ {
		var e DigestEntry
		e.Name = r.String()
		e.Vec = r.OwnedBytes() // kept past the handler callback
		if r.Err() == nil {
			m.Entries = append(m.Entries, e)
		}
	}
	return r.Err()
}

// AppendWire implements wire.BinaryMessage.
func (m *GossipPushMsg) AppendWire(b []byte) []byte { return wire.AppendTailed(b, m) }

// AppendWireHead implements wire.TailMessage.
func (m *GossipPushMsg) AppendWireHead(b []byte) []byte { return wire.AppendString(b, m.Name) }

// WireTail implements wire.TailMessage.
func (m *GossipPushMsg) WireTail() []byte { return m.Data }

// ParseWire implements wire.BinaryMessage.
func (m *GossipPushMsg) ParseWire(r *wire.BinReader) error {
	m.Name = r.String()
	m.Data = r.OwnedBytes()
	return r.Err()
}
