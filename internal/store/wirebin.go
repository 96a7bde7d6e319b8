package store

import (
	"github.com/gloss/active/internal/wire"
)

// Compact binary wire forms for the storage plane. These are the hottest
// body-carrying messages in the system — puts, replicas, cache fills and
// chunk frames all move whole object payloads — so escaping the XML
// fallback's base64 inflation matters more here than anywhere else.
// Bodies are read with OwnedBytes: they outlive the decode call (stored,
// cached, or held until their manifest arrives). They are written as
// wire.TailMessage tails, so a frame borrows a stored blob rather than
// copying it — which is safe because a stored blob is replaced, never
// modified.

var (
	_ wire.TailMessage   = (*PutMsg)(nil)
	_ wire.BinaryMessage = (*AckMsg)(nil)
	_ wire.BinaryMessage = (*GetMsg)(nil)
	_ wire.TailMessage   = (*GetReplyMsg)(nil)
	_ wire.TailMessage   = (*ReplicateMsg)(nil)
	_ wire.TailMessage   = (*CacheFillMsg)(nil)
	_ wire.BinaryMessage = (*PushMsg)(nil)
	_ wire.BinaryMessage = (*PullMsg)(nil)
	_ wire.BinaryMessage = (*ManifestMsg)(nil)
	_ wire.TailMessage   = (*ChunkMsg)(nil)
	_ wire.BinaryMessage = (*DigestReqMsg)(nil)
	_ wire.BinaryMessage = (*DigestMsg)(nil)
	_ wire.BinaryMessage = (*StatMsg)(nil)
	_ wire.BinaryMessage = (*StatReplyMsg)(nil)
)

// AppendWire implements wire.BinaryMessage.
func (m *PutMsg) AppendWire(b []byte) []byte { return wire.AppendTailed(b, m) }

// AppendWireHead implements wire.TailMessage.
func (m *PutMsg) AppendWireHead(b []byte) []byte {
	b = wire.AppendString(b, m.GUID)
	b = wire.AppendUvarint(b, m.ReqID)
	b = wire.AppendString(b, m.Origin)
	return wire.AppendVarint(b, int64(m.Size))
}

// WireTail implements wire.TailMessage.
func (m *PutMsg) WireTail() []byte { return m.Data }

// ParseWire implements wire.BinaryMessage.
func (m *PutMsg) ParseWire(r *wire.BinReader) error {
	m.GUID = r.String()
	m.ReqID = r.Uvarint()
	m.Origin = r.String()
	m.Size = int(r.Varint())
	m.Data = r.OwnedBytes()
	return r.Err()
}

// AppendWire implements wire.BinaryMessage.
func (m *AckMsg) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, m.ReqID)
	b = wire.AppendBool(b, m.OK)
	return wire.AppendString(b, m.Err)
}

// ParseWire implements wire.BinaryMessage.
func (m *AckMsg) ParseWire(r *wire.BinReader) error {
	m.ReqID = r.Uvarint()
	m.OK = r.Bool()
	m.Err = r.String()
	return r.Err()
}

// AppendWire implements wire.BinaryMessage.
func (m *GetMsg) AppendWire(b []byte) []byte {
	b = wire.AppendString(b, m.GUID)
	return wire.AppendUvarint(b, m.ReqID)
}

// ParseWire implements wire.BinaryMessage.
func (m *GetMsg) ParseWire(r *wire.BinReader) error {
	m.GUID = r.String()
	m.ReqID = r.Uvarint()
	return r.Err()
}

// AppendWire implements wire.BinaryMessage.
func (m *GetReplyMsg) AppendWire(b []byte) []byte { return wire.AppendTailed(b, m) }

// AppendWireHead implements wire.TailMessage.
func (m *GetReplyMsg) AppendWireHead(b []byte) []byte {
	b = wire.AppendUvarint(b, m.ReqID)
	b = wire.AppendString(b, m.GUID)
	b = wire.AppendBool(b, m.Found)
	b = wire.AppendBool(b, m.FromCache)
	return wire.AppendVarint(b, int64(m.Hops))
}

// WireTail implements wire.TailMessage.
func (m *GetReplyMsg) WireTail() []byte { return m.Data }

// ParseWire implements wire.BinaryMessage.
func (m *GetReplyMsg) ParseWire(r *wire.BinReader) error {
	m.ReqID = r.Uvarint()
	m.GUID = r.String()
	m.Found = r.Bool()
	m.FromCache = r.Bool()
	m.Hops = int(r.Varint())
	m.Data = r.OwnedBytes()
	return r.Err()
}

// AppendWire implements wire.BinaryMessage.
func (m *ReplicateMsg) AppendWire(b []byte) []byte { return wire.AppendTailed(b, m) }

// AppendWireHead implements wire.TailMessage.
func (m *ReplicateMsg) AppendWireHead(b []byte) []byte {
	b = wire.AppendString(b, m.GUID)
	return wire.AppendBool(b, m.Pin)
}

// WireTail implements wire.TailMessage.
func (m *ReplicateMsg) WireTail() []byte { return m.Data }

// ParseWire implements wire.BinaryMessage.
func (m *ReplicateMsg) ParseWire(r *wire.BinReader) error {
	m.GUID = r.String()
	m.Pin = r.Bool()
	m.Data = r.OwnedBytes()
	return r.Err()
}

// AppendWire implements wire.BinaryMessage.
func (m *CacheFillMsg) AppendWire(b []byte) []byte { return wire.AppendTailed(b, m) }

// AppendWireHead implements wire.TailMessage.
func (m *CacheFillMsg) AppendWireHead(b []byte) []byte { return wire.AppendString(b, m.GUID) }

// WireTail implements wire.TailMessage.
func (m *CacheFillMsg) WireTail() []byte { return m.Data }

// ParseWire implements wire.BinaryMessage.
func (m *CacheFillMsg) ParseWire(r *wire.BinReader) error {
	m.GUID = r.String()
	m.Data = r.OwnedBytes()
	return r.Err()
}

// AppendWire implements wire.BinaryMessage.
func (m *PushMsg) AppendWire(b []byte) []byte {
	b = wire.AppendString(b, m.GUID)
	return wire.AppendString(b, m.Target)
}

// ParseWire implements wire.BinaryMessage.
func (m *PushMsg) ParseWire(r *wire.BinReader) error {
	m.GUID = r.String()
	m.Target = r.String()
	return r.Err()
}

// AppendWire implements wire.BinaryMessage.
func (m *PullMsg) AppendWire(b []byte) []byte {
	b = wire.AppendString(b, m.GUID)
	return wire.AppendUvarint(b, m.ReqID)
}

// ParseWire implements wire.BinaryMessage.
func (m *PullMsg) ParseWire(r *wire.BinReader) error {
	m.GUID = r.String()
	m.ReqID = r.Uvarint()
	return r.Err()
}

// AppendWire implements wire.BinaryMessage.
func (m *ManifestMsg) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, m.Xfer)
	b = wire.AppendString(b, m.GUID)
	b = wire.AppendVarint(b, int64(m.Purpose))
	b = wire.AppendVarint(b, int64(m.TotalLen))
	b = wire.AppendVarint(b, int64(m.Chunk))
	b = wire.AppendUvarint(b, m.Hash)
	b = wire.AppendUvarint(b, m.ReqID)
	b = wire.AppendVarint(b, int64(m.Hops))
	b = wire.AppendBool(b, m.FromCache)
	return wire.AppendBool(b, m.Pin)
}

// ParseWire implements wire.BinaryMessage.
func (m *ManifestMsg) ParseWire(r *wire.BinReader) error {
	m.Xfer = r.Uvarint()
	m.GUID = r.String()
	m.Purpose = int(r.Varint())
	m.TotalLen = int(r.Varint())
	m.Chunk = int(r.Varint())
	m.Hash = r.Uvarint()
	m.ReqID = r.Uvarint()
	m.Hops = int(r.Varint())
	m.FromCache = r.Bool()
	m.Pin = r.Bool()
	return r.Err()
}

// AppendWire implements wire.BinaryMessage.
func (m *ChunkMsg) AppendWire(b []byte) []byte { return wire.AppendTailed(b, m) }

// AppendWireHead implements wire.TailMessage.
func (m *ChunkMsg) AppendWireHead(b []byte) []byte {
	b = wire.AppendUvarint(b, m.Xfer)
	return wire.AppendVarint(b, int64(m.Off))
}

// WireTail implements wire.TailMessage.
func (m *ChunkMsg) WireTail() []byte { return m.Data }

// ParseWire implements wire.BinaryMessage.
func (m *ChunkMsg) ParseWire(r *wire.BinReader) error {
	m.Xfer = r.Uvarint()
	m.Off = int(r.Varint())
	m.Data = r.OwnedBytes()
	return r.Err()
}

// AppendWire implements wire.BinaryMessage.
func (m *DigestReqMsg) AppendWire(b []byte) []byte { return wire.AppendUvarint(b, m.Round) }

// ParseWire implements wire.BinaryMessage.
func (m *DigestReqMsg) ParseWire(r *wire.BinReader) error {
	m.Round = r.Uvarint()
	return r.Err()
}

// AppendWire implements wire.BinaryMessage.
func (m *DigestMsg) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, m.Round)
	b = wire.AppendUvarint(b, uint64(len(m.Entries)))
	for _, e := range m.Entries {
		b = wire.AppendString(b, e.GUID)
		b = wire.AppendVarint(b, int64(e.Len))
		b = wire.AppendUvarint(b, e.Hash)
	}
	return b
}

// ParseWire implements wire.BinaryMessage.
func (m *DigestMsg) ParseWire(r *wire.BinReader) error {
	m.Round = r.Uvarint()
	n := r.Count()
	var entries []DigestEntry
	for i := 0; i < n && r.Err() == nil; i++ {
		entries = append(entries, DigestEntry{
			GUID: r.String(),
			Len:  int(r.Varint()),
			Hash: r.Uvarint(),
		})
	}
	m.Entries = entries
	return r.Err()
}

// AppendWire implements wire.BinaryMessage.
func (m *StatMsg) AppendWire(b []byte) []byte {
	b = wire.AppendString(b, m.GUID)
	return wire.AppendUvarint(b, m.ReqID)
}

// ParseWire implements wire.BinaryMessage.
func (m *StatMsg) ParseWire(r *wire.BinReader) error {
	m.GUID = r.String()
	m.ReqID = r.Uvarint()
	return r.Err()
}

// AppendWire implements wire.BinaryMessage.
func (m *StatReplyMsg) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, m.ReqID)
	b = wire.AppendBool(b, m.Found)
	return wire.AppendVarint(b, int64(m.Len))
}

// ParseWire implements wire.BinaryMessage.
func (m *StatReplyMsg) ParseWire(r *wire.BinReader) error {
	m.ReqID = r.Uvarint()
	m.Found = r.Bool()
	m.Len = int(r.Varint())
	return r.Err()
}
