// Package event defines the contextual event model used across the whole
// architecture: sensor readings, resource advertisements, synthesised
// high-level events — everything that flows through pipelines and the
// publish/subscribe network.
//
// An event carries a set of typed named attributes (the view pub/sub
// filters and matchlets operate on) plus an optional XML body island that
// carries a structured payload through unchanged.
package event

import (
	"encoding/xml"
	"fmt"
	"slices"
	"strconv"
	"time"

	"github.com/gloss/active/internal/ids"
)

// Kind enumerates attribute value kinds.
type Kind int

// Attribute value kinds. Starting at 1 so the zero Value is invalid and
// detectable.
const (
	KindInvalid Kind = iota
	KindString
	KindInt
	KindFloat
	KindBool
)

// String returns the kind name used in the XML encoding.
func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	default:
		return "invalid"
	}
}

func kindFromString(s string) Kind {
	switch s {
	case "string":
		return KindString
	case "int":
		return KindInt
	case "float":
		return KindFloat
	case "bool":
		return KindBool
	default:
		return KindInvalid
	}
}

// Value is a typed attribute value.
type Value struct {
	K Kind
	S string
	I int64
	F float64
	B bool
}

// S constructs a string value.
func S(s string) Value { return Value{K: KindString, S: s} }

// I constructs an integer value.
func I(i int64) Value { return Value{K: KindInt, I: i} }

// F constructs a float value.
func F(f float64) Value { return Value{K: KindFloat, F: f} }

// B constructs a boolean value.
func B(b bool) Value { return Value{K: KindBool, B: b} }

// String renders the value's payload as text (the XML form).
func (v Value) String() string {
	switch v.K {
	case KindString:
		return v.S
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.B)
	default:
		return ""
	}
}

// Num returns the value as a float64 and whether it is numeric.
func (v Value) Num() (float64, bool) {
	switch v.K {
	case KindInt:
		return float64(v.I), true
	case KindFloat:
		return v.F, true
	default:
		return 0, false
	}
}

// Equal reports deep equality, with int/float cross-kind numeric equality.
func (v Value) Equal(o Value) bool {
	if v.K == o.K {
		return v == o
	}
	a, okA := v.Num()
	b, okB := o.Num()
	return okA && okB && a == b
}

// Compare orders two values: -1, 0, +1. The second result is false when
// the values are incomparable (different non-numeric kinds, or bools).
func (v Value) Compare(o Value) (int, bool) {
	if a, ok := v.Num(); ok {
		if b, ok2 := o.Num(); ok2 {
			switch {
			case a < b:
				return -1, true
			case a > b:
				return 1, true
			default:
				return 0, true
			}
		}
		return 0, false
	}
	if v.K == KindString && o.K == KindString {
		switch {
		case v.S < o.S:
			return -1, true
		case v.S > o.S:
			return 1, true
		default:
			return 0, true
		}
	}
	if v.K == KindBool && o.K == KindBool && v.B == o.B {
		return 0, true
	}
	return 0, false
}

func parseValue(kind, text string) (Value, error) {
	switch kindFromString(kind) {
	case KindString:
		return S(text), nil
	case KindInt:
		i, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("event: bad int attribute %q: %w", text, err)
		}
		return I(i), nil
	case KindFloat:
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return Value{}, fmt.Errorf("event: bad float attribute %q: %w", text, err)
		}
		return F(f), nil
	case KindBool:
		b, err := strconv.ParseBool(text)
		if err != nil {
			return Value{}, fmt.Errorf("event: bad bool attribute %q: %w", text, err)
		}
		return B(b), nil
	default:
		return Value{}, fmt.Errorf("event: unknown attribute kind %q", kind)
	}
}

// Attributes is a named set of typed values.
type Attributes map[string]Value

// Clone returns a copy; mutating the copy does not affect the original.
func (a Attributes) Clone() Attributes {
	out := make(Attributes, len(a))
	for k, v := range a {
		out[k] = v
	}
	return out
}

// Names returns attribute names in sorted order.
func (a Attributes) Names() []string { return a.AppendNames(make([]string, 0, len(a))) }

// AppendNames appends the attribute names to dst in sorted order. The
// encoders pass a stack buffer, so a small event's names cost nothing.
func (a Attributes) AppendNames(dst []string) []string {
	n := len(dst)
	for k := range a {
		dst = append(dst, k)
	}
	slices.Sort(dst[n:])
	return dst
}

// Event is one item of contextual information in flight.
//
// Ownership: an event is mutable while its producer assembles it (New,
// Set, Stamp). The moment it enters fan-out — published into the event
// service or handed to subscription handlers — it is frozen and shared:
// one Event value backs every local delivery and every outgoing wire
// message, which is what makes delivery zero-copy. Pipeline stages that
// rewrite attributes must take Mutable() (copy-on-write) or
// CloneDetached() first; mutator methods on a frozen event panic, so a
// misbehaving subscriber cannot corrupt the copies its neighbours see.
type Event struct {
	// ID uniquely identifies the event (for dedup across paths).
	ID ids.ID
	// Type names the event schema, e.g. "gps.location", "weather.report",
	// or a synthesised type like "suggestion.meet".
	Type string
	// Source identifies the producing component or sensor.
	Source string
	// Time is the production timestamp (virtual time since world epoch).
	Time time.Duration
	// Attrs is the filterable attribute view. Read-only once the event is
	// frozen; use Mutable or CloneDetached to rewrite. The freeze guard
	// lives in the mutator methods (Set, SetBody, Stamp) — Go cannot seal
	// a map, so writing Attrs directly on a frozen event is undetected
	// corruption of every sharer. The clone-vs-borrow differential test
	// keeps in-tree stages honest about this.
	Attrs Attributes
	// Body is an optional XML island with structured payload, carried
	// opaquely.
	Body string

	// frozen marks the event immutable and shareable across deliveries.
	// Only the zero value travels on the wire: both decoders leave it
	// unset so decoded envelopes compare equal to their originals, and
	// the pub/sub layer freezes at the fan-out boundary instead.
	frozen bool
}

// New constructs an event with a fresh attribute map.
func New(typ, source string, at time.Duration) *Event {
	return &Event{
		Type:   typ,
		Source: source,
		Time:   at,
		Attrs:  make(Attributes),
	}
}

// Set assigns an attribute and returns the event for chaining. It panics
// on a frozen event: shared events must not be rewritten in place.
func (e *Event) Set(name string, v Value) *Event {
	e.mustBeMutable("Set")
	e.Attrs[name] = v
	return e
}

// SetBody assigns the XML body island and returns the event for chaining.
// It panics on a frozen event.
func (e *Event) SetBody(xmlIsland string) *Event {
	e.mustBeMutable("SetBody")
	e.Body = xmlIsland
	return e
}

// Get returns an attribute value. Implicit attributes "type", "source"
// and "time" (nanoseconds, int) reflect the envelope fields so filters
// can constrain them uniformly.
func (e *Event) Get(name string) (Value, bool) {
	switch name {
	case "type":
		return S(e.Type), true
	case "source":
		return S(e.Source), true
	case "time":
		return I(int64(e.Time)), true
	}
	v, ok := e.Attrs[name]
	return v, ok
}

// GetString returns a string attribute or "".
func (e *Event) GetString(name string) string {
	if v, ok := e.Get(name); ok && v.K == KindString {
		return v.S
	}
	return ""
}

// GetNum returns a numeric attribute or 0.
func (e *Event) GetNum(name string) float64 {
	if v, ok := e.Get(name); ok {
		if f, isNum := v.Num(); isNum {
			return f
		}
	}
	return 0
}

// Stamp assigns the event's ID deterministically from source and sequence
// number, and returns the event. It panics on a frozen event.
func (e *Event) Stamp(seq uint64) *Event {
	e.mustBeMutable("Stamp")
	e.ID = ids.FromString(fmt.Sprintf("%s/%s/%d", e.Source, e.Type, seq))
	return e
}

func (e *Event) mustBeMutable(op string) {
	if e.frozen {
		panic(fmt.Sprintf("event: %s on frozen event %s (type %s); use Mutable or CloneDetached", op, e.ID.Short(), e.Type))
	}
}

// Freeze marks the event immutable so one value can be shared across
// every delivery of a fan-out (zero-copy). Idempotent; returns e. The
// pub/sub layer calls this at the publish and dispatch boundaries —
// producers rarely need to.
//
// The already-frozen fast path deliberately skips the write: after the
// publisher's initial Freeze (which happens-before every delivery via
// the endpoint's message handoff), re-freezes on other goroutines — the
// TCP loopback dispatching to the local broker, for instance — are pure
// reads, keeping the shared event race-free.
func (e *Event) Freeze() *Event {
	if !e.frozen {
		e.frozen = true
	}
	return e
}

// Frozen reports whether the event is immutable and shared.
func (e *Event) Frozen() bool { return e.frozen }

// Mutable returns an event safe to modify: e itself when it is still
// unfrozen, otherwise a detached deep copy (copy-on-write). Pipeline
// stages that rewrite attributes call this once and work on the result.
func (e *Event) Mutable() *Event {
	if !e.frozen {
		return e
	}
	return e.CloneDetached()
}

// CloneDetached returns a mutable deep copy that shares no state with e:
// a fresh attribute map, and no frozen mark regardless of e's. Use it
// when a copy must be retained and rewritten independently of the
// original (the explicit escape hatch from borrow semantics).
func (e *Event) CloneDetached() *Event {
	out := *e
	out.Attrs = e.Attrs.Clone()
	out.frozen = false
	return &out
}

// Clone returns a mutable deep copy of the event (alias of CloneDetached,
// kept for existing callers).
func (e *Event) Clone() *Event { return e.CloneDetached() }

// xmlEvent is the XML wire form.
type xmlEvent struct {
	XMLName xml.Name  `xml:"event"`
	ID      string    `xml:"id,attr"`
	Type    string    `xml:"type,attr"`
	Source  string    `xml:"source,attr"`
	Time    int64     `xml:"time,attr"`
	Attrs   []xmlAttr `xml:"attr"`
	Body    string    `xml:"body,omitempty"`
}

type xmlAttr struct {
	Name string `xml:"name,attr"`
	Kind string `xml:"kind,attr"`
	Text string `xml:",chardata"`
}

// MarshalXML implements xml.Marshaler with deterministic attribute order.
func (e *Event) MarshalXML(enc *xml.Encoder, start xml.StartElement) error {
	xe := xmlEvent{
		ID:     e.ID.String(),
		Type:   e.Type,
		Source: e.Source,
		Time:   int64(e.Time),
		Body:   e.Body,
	}
	var buf [16]string
	for _, name := range e.Attrs.AppendNames(buf[:0]) {
		v := e.Attrs[name]
		xe.Attrs = append(xe.Attrs, xmlAttr{Name: name, Kind: v.K.String(), Text: v.String()})
	}
	start.Name = xml.Name{Local: "event"}
	return enc.EncodeElement(xe, start)
}

// UnmarshalXML implements xml.Unmarshaler.
func (e *Event) UnmarshalXML(dec *xml.Decoder, start xml.StartElement) error {
	var xe xmlEvent
	if err := dec.DecodeElement(&xe, &start); err != nil {
		return err
	}
	id, err := ids.Parse(xe.ID)
	if err != nil {
		return fmt.Errorf("event: bad id: %w", err)
	}
	e.ID = id
	e.Type = xe.Type
	e.Source = xe.Source
	e.Time = time.Duration(xe.Time)
	e.Body = xe.Body
	e.Attrs = make(Attributes, len(xe.Attrs))
	for _, a := range xe.Attrs {
		v, err := parseValue(a.Kind, a.Text)
		if err != nil {
			return err
		}
		e.Attrs[a.Name] = v
	}
	return nil
}

var (
	_ xml.Marshaler   = (*Event)(nil)
	_ xml.Unmarshaler = (*Event)(nil)
)
