package event

import (
	"fmt"
	"time"

	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/wire"
)

// Compact binary wire form of events and values, used by the binary fast
// path codec (wire.BinaryCodec). The XML form in event.go remains the
// open interop format; this one exists so hot interior links do not pay
// reflection and text formatting per message. Both forms must decode to
// identical events — internal/wire's differential test enforces that.

// AppendWire appends the event's binary form: raw ID, type, source,
// varint time, body, then the attributes in sorted name order (the same
// deterministic order the XML marshaller uses).
func (e *Event) AppendWire(b []byte) []byte {
	b = wire.AppendID(b, e.ID)
	b = wire.AppendString(b, e.Type)
	b = wire.AppendString(b, e.Source)
	b = wire.AppendVarint(b, int64(e.Time))
	b = wire.AppendString(b, e.Body)
	var buf [16]string
	names := e.Attrs.AppendNames(buf[:0])
	b = wire.AppendUvarint(b, uint64(len(names)))
	for _, name := range names {
		b = wire.AppendString(b, name)
		b = e.Attrs[name].AppendWire(b)
	}
	return b
}

// WireSize is len(e.AppendWire(nil)), counted without writing the event
// or sorting its attribute names.
func (e *Event) WireSize() int {
	n := ids.Size + wire.StringLen(e.Type) + wire.StringLen(e.Source) +
		wire.VarintLen(int64(e.Time)) + wire.StringLen(e.Body) + wire.UvarintLen(uint64(len(e.Attrs)))
	for name, v := range e.Attrs {
		n += wire.StringLen(name) + v.WireSize()
	}
	return n
}

// ParseWire reads the form produced by AppendWire.
func (e *Event) ParseWire(r *wire.BinReader) error {
	e.ID = r.ID()
	e.Type = r.String()
	e.Source = r.String()
	e.Time = time.Duration(r.Varint())
	e.Body = r.String()
	n := r.Count()
	e.Attrs = make(Attributes, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		name := r.String()
		e.Attrs[name] = ReadValue(r)
	}
	return r.Err()
}

// AppendWirePtr appends an optional event: a presence byte, then the
// event when non-nil. Messages with *Event fields share this so nil
// round-trips as nil (matching the XML form, where the element is
// simply absent).
func AppendWirePtr(b []byte, e *Event) []byte {
	if e == nil {
		return wire.AppendBool(b, false)
	}
	b = wire.AppendBool(b, true)
	return e.AppendWire(b)
}

// WireSizePtr is len(AppendWirePtr(nil, e)).
func WireSizePtr(e *Event) int {
	if e == nil {
		return 1
	}
	return 1 + e.WireSize()
}

// ReadPtr reads an optional event written by AppendWirePtr.
func ReadPtr(r *wire.BinReader) *Event {
	if !r.Bool() || r.Err() != nil {
		return nil
	}
	var e Event
	_ = e.ParseWire(r) // sticky error surfaces via r.Err()
	return &e
}

// AppendWire appends the value as a kind byte plus kind-specific payload
// (string, zig-zag varint, float64 bits, or bool byte).
func (v Value) AppendWire(b []byte) []byte {
	b = append(b, byte(v.K))
	switch v.K {
	case KindString:
		b = wire.AppendString(b, v.S)
	case KindInt:
		b = wire.AppendVarint(b, v.I)
	case KindFloat:
		b = wire.AppendFloat64(b, v.F)
	case KindBool:
		b = wire.AppendBool(b, v.B)
	}
	return b
}

// WireSize is len(v.AppendWire(nil)).
func (v Value) WireSize() int {
	switch v.K {
	case KindString:
		return 1 + wire.StringLen(v.S)
	case KindInt:
		return 1 + wire.VarintLen(v.I)
	case KindFloat:
		return 1 + 8
	case KindBool:
		return 1 + 1
	}
	return 1
}

// ReadValue reads a value written by Value.AppendWire. An out-of-range
// kind byte poisons the reader.
func ReadValue(r *wire.BinReader) Value {
	k := Kind(r.Uvarint())
	switch k {
	case KindString:
		return Value{K: k, S: r.String()}
	case KindInt:
		return Value{K: k, I: r.Varint()}
	case KindFloat:
		return Value{K: k, F: r.Float64()}
	case KindBool:
		return Value{K: k, B: r.Bool()}
	case KindInvalid:
		return Value{}
	default:
		r.Poison(fmt.Errorf("event: unknown wire value kind %d", int(k)))
		return Value{}
	}
}
