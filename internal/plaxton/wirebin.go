package plaxton

import (
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/wire"
)

// Compact binary wire forms for the overlay protocol. RouteMsg is the
// hot one — every routed application message (store puts/gets, pushed
// replicas) rides inside it — so its already-encoded Inner payload is
// carried as raw length-prefixed bytes instead of base64 text. Node IDs
// travel as their 16 raw bytes.

var (
	_ wire.TailMessage   = (*RouteMsg)(nil)
	_ wire.BinaryMessage = (*JoinMsg)(nil)
	_ wire.BinaryMessage = (*StateMsg)(nil)
	_ wire.BinaryMessage = (*AnnounceMsg)(nil)
	_ wire.SizedMessage  = (*PingMsg)(nil)
	_ wire.SizedMessage  = (*PongMsg)(nil)
	_ wire.BinaryMessage = (*LeafReqMsg)(nil)
	_ wire.BinaryMessage = (*LeafReplyMsg)(nil)
)

func appendStrings(b []byte, ss []string) []byte {
	b = wire.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = wire.AppendString(b, s)
	}
	return b
}

func readStrings(r *wire.BinReader) []string {
	n := r.Count()
	var out []string
	for i := 0; i < n && r.Err() == nil; i++ {
		out = append(out, r.String())
	}
	return out
}

func appendIDs(b []byte, list []ids.ID) []byte {
	b = wire.AppendUvarint(b, uint64(len(list)))
	for _, id := range list {
		b = wire.AppendID(b, id)
	}
	return b
}

// readIDs reads what appendIDs wrote, allocating no more than the rest
// of the frame can hold whatever count it claims.
func readIDs(r *wire.BinReader) []ids.ID {
	n := r.Count()
	if n == 0 {
		return nil // as encoding/xml leaves an empty list
	}
	out := make([]ids.ID, 0, min(n, r.Remaining()/ids.Size))
	for i := 0; i < n && r.Err() == nil; i++ {
		out = append(out, r.ID())
	}
	return out
}

// AppendWire implements wire.BinaryMessage.
func (m *RouteMsg) AppendWire(b []byte) []byte { return wire.AppendTailed(b, m) }

// AppendWireHead implements wire.TailMessage.
func (m *RouteMsg) AppendWireHead(b []byte) []byte {
	b = wire.AppendString(b, m.Key)
	b = wire.AppendString(b, m.Origin)
	b = wire.AppendVarint(b, int64(m.Hops))
	b = wire.AppendBool(b, m.Trace)
	b = appendStrings(b, m.Path)
	return wire.AppendString(b, m.InnerKind)
}

// WireTail implements wire.TailMessage: a hop's frame borrows Inner.
func (m *RouteMsg) WireTail() []byte { return m.Inner }

// ParseWire implements wire.BinaryMessage.
func (m *RouteMsg) ParseWire(r *wire.BinReader) error {
	m.Key = r.String()
	m.Origin = r.String()
	m.Hops = int(r.Varint())
	m.Trace = r.Bool()
	m.Path = readStrings(r)
	m.InnerKind = r.String()
	m.Inner = r.OwnedBytes() // outlives the frame: forwarded hop by hop
	return r.Err()
}

// AppendWire implements wire.BinaryMessage.
func (m *JoinMsg) AppendWire(b []byte) []byte {
	b = wire.AppendID(b, m.Joiner)
	return wire.AppendVarint(b, int64(m.Hop))
}

// ParseWire implements wire.BinaryMessage.
func (m *JoinMsg) ParseWire(r *wire.BinReader) error {
	m.Joiner = r.ID()
	m.Hop = int(r.Varint())
	return r.Err()
}

// AppendWire implements wire.BinaryMessage.
func (m *StateMsg) AppendWire(b []byte) []byte {
	b = wire.AppendID(b, m.From)
	b = wire.AppendVarint(b, int64(m.Hop))
	b = wire.AppendBool(b, m.Done)
	b = appendIDs(b, m.Leaves)
	return appendIDs(b, m.Table)
}

// ParseWire implements wire.BinaryMessage.
func (m *StateMsg) ParseWire(r *wire.BinReader) error {
	m.From = r.ID()
	m.Hop = int(r.Varint())
	m.Done = r.Bool()
	m.Leaves = readIDs(r)
	m.Table = readIDs(r)
	return r.Err()
}

// AppendWire implements wire.BinaryMessage.
func (m *AnnounceMsg) AppendWire(b []byte) []byte { return wire.AppendID(b, m.Node) }

// ParseWire implements wire.BinaryMessage.
func (m *AnnounceMsg) ParseWire(r *wire.BinReader) error {
	m.Node = r.ID()
	return r.Err()
}

// AppendWire implements wire.BinaryMessage.
func (m *PingMsg) AppendWire(b []byte) []byte { return b }

// WireSize implements wire.SizedMessage: the body is empty.
func (m *PingMsg) WireSize() int { return 0 }

// ParseWire implements wire.BinaryMessage.
func (m *PingMsg) ParseWire(r *wire.BinReader) error { return r.Err() }

// AppendWire implements wire.BinaryMessage.
func (m *PongMsg) AppendWire(b []byte) []byte { return b }

// WireSize implements wire.SizedMessage: the body is empty.
func (m *PongMsg) WireSize() int { return 0 }

// ParseWire implements wire.BinaryMessage.
func (m *PongMsg) ParseWire(r *wire.BinReader) error { return r.Err() }

// AppendWire implements wire.BinaryMessage.
func (m *LeafReqMsg) AppendWire(b []byte) []byte { return b }

// ParseWire implements wire.BinaryMessage.
func (m *LeafReqMsg) ParseWire(r *wire.BinReader) error { return r.Err() }

// AppendWire implements wire.BinaryMessage.
func (m *LeafReplyMsg) AppendWire(b []byte) []byte { return appendIDs(b, m.Leaves) }

// ParseWire implements wire.BinaryMessage.
func (m *LeafReplyMsg) ParseWire(r *wire.BinReader) error {
	m.Leaves = readIDs(r)
	return r.Err()
}
