package pubsub

import (
	"fmt"

	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/wire"
)

// Compact binary wire forms for the pub/sub protocol — the hottest
// message family in the system (every publish fans out through broker
// chains as PubMsg/DeliverMsg; subscription churn moves filters). The
// XML forms in messages.go remain the interop reference; the
// differential test in internal/wire proves both decode identically.

// AppendWire appends the filter: a constraint count, then per constraint
// the attribute, an operator byte, and (except for exists) the value.
func (f Filter) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(f.Constraints)))
	for _, c := range f.Constraints {
		b = wire.AppendString(b, c.Attr)
		b = wire.AppendUvarint(b, uint64(c.Op))
		if c.Op != OpExists {
			b = c.Val.AppendWire(b)
		}
	}
	return b
}

// ParseWire reads the form produced by AppendWire.
func (f *Filter) ParseWire(r *wire.BinReader) error {
	n := r.Count()
	f.Constraints = nil
	for i := 0; i < n && r.Err() == nil; i++ {
		c := Constraint{Attr: r.String(), Op: Op(r.Uvarint())}
		if c.Op <= OpInvalid || c.Op > OpExists {
			r.Poison(fmt.Errorf("pubsub: unknown wire operator %d", int(c.Op)))
			return r.Err()
		}
		if c.Op != OpExists {
			c.Val = event.ReadValue(r)
		}
		f.Constraints = append(f.Constraints, c)
	}
	return r.Err()
}

// Binary forms for every pub/sub message. Filter-carrying and
// event-carrying messages delegate to the shared encoders above; the
// signalling messages are empty bodies.

var (
	_ wire.BinaryMessage = (*SubMsg)(nil)
	_ wire.BinaryMessage = (*UnsubMsg)(nil)
	_ wire.BinaryMessage = (*PubMsg)(nil)
	_ wire.BinaryMessage = (*DeliverMsg)(nil)
	_ wire.BinaryMessage = (*PeerMsg)(nil)
	_ wire.BinaryMessage = (*DetachMsg)(nil)
	_ wire.BinaryMessage = (*ReclaimMsg)(nil)
	_ wire.BinaryMessage = (*ReclaimReply)(nil)
)

// AppendWire implements wire.BinaryMessage.
func (m *SubMsg) AppendWire(b []byte) []byte { return m.Filter.AppendWire(b) }

// ParseWire implements wire.BinaryMessage.
func (m *SubMsg) ParseWire(r *wire.BinReader) error { return m.Filter.ParseWire(r) }

// AppendWire implements wire.BinaryMessage.
func (m *UnsubMsg) AppendWire(b []byte) []byte { return m.Filter.AppendWire(b) }

// ParseWire implements wire.BinaryMessage.
func (m *UnsubMsg) ParseWire(r *wire.BinReader) error { return m.Filter.ParseWire(r) }

// AppendWire implements wire.BinaryMessage.
func (m *PubMsg) AppendWire(b []byte) []byte { return event.AppendWirePtr(b, m.Event) }

// ParseWire implements wire.BinaryMessage.
func (m *PubMsg) ParseWire(r *wire.BinReader) error {
	m.Event = event.ReadPtr(r)
	return r.Err()
}

// AppendWire implements wire.BinaryMessage.
func (m *DeliverMsg) AppendWire(b []byte) []byte { return event.AppendWirePtr(b, m.Event) }

// ParseWire implements wire.BinaryMessage.
func (m *DeliverMsg) ParseWire(r *wire.BinReader) error {
	m.Event = event.ReadPtr(r)
	return r.Err()
}

// AppendWire implements wire.BinaryMessage.
func (m *PeerMsg) AppendWire(b []byte) []byte { return b }

// ParseWire implements wire.BinaryMessage.
func (m *PeerMsg) ParseWire(r *wire.BinReader) error { return r.Err() }

// AppendWire implements wire.BinaryMessage.
func (m *DetachMsg) AppendWire(b []byte) []byte { return b }

// ParseWire implements wire.BinaryMessage.
func (m *DetachMsg) ParseWire(r *wire.BinReader) error { return r.Err() }

// AppendWire implements wire.BinaryMessage.
func (m *ReclaimMsg) AppendWire(b []byte) []byte { return b }

// ParseWire implements wire.BinaryMessage.
func (m *ReclaimMsg) ParseWire(r *wire.BinReader) error { return r.Err() }

// AppendWire implements wire.BinaryMessage.
func (m *ReclaimReply) AppendWire(b []byte) []byte {
	b = wire.AppendVarint(b, int64(m.Dropped))
	b = wire.AppendUvarint(b, uint64(len(m.Events)))
	for _, ev := range m.Events {
		b = event.AppendWirePtr(b, ev)
	}
	return b
}

// ParseWire implements wire.BinaryMessage.
func (m *ReclaimReply) ParseWire(r *wire.BinReader) error {
	m.Dropped = int(r.Varint())
	n := r.Count()
	m.Events = nil
	for i := 0; i < n && r.Err() == nil; i++ {
		m.Events = append(m.Events, event.ReadPtr(r))
	}
	return r.Err()
}
