package pubsub

import (
	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/wire"
)

// Hand-written XML forms for the filter- and event-carrying pub/sub
// messages, beside the binary forms in wirebin.go: the bytes are the ones
// encoding/xml writes for messages.go's struct tags and Filter.MarshalXML,
// and the scanners read that form only (see wire.XMLMessage). PeerMsg,
// DetachMsg, ReclaimMsg and ReclaimReply are rare and stay on the
// reflection path.

// AppendXML appends the filter as a <filter> element of <c> constraints:
// attr and op, then kind and the value's text unless the operator is
// exists.
func (f Filter) AppendXML(dst []byte) []byte {
	dst = append(dst, "<filter>"...)
	for i := range f.Constraints {
		c := &f.Constraints[i]
		dst = append(dst, "<c"...)
		dst = wire.AppendXMLAttr(dst, "attr", c.Attr)
		dst = wire.AppendXMLAttr(dst, "op", c.Op.String())
		if c.Op == OpExists {
			dst = append(dst, '>')
		} else {
			dst = wire.AppendXMLAttr(dst, "kind", c.Val.K.String())
			dst = append(dst, '>')
			dst = c.Val.AppendXMLText(dst)
		}
		dst = append(dst, "</c>"...)
	}
	return append(dst, "</filter>"...)
}

// ParseXML reads the form AppendXML writes.
func (f *Filter) ParseXML(s *wire.XMLScanner) error {
	s.Expect("<filter>")
	f.Constraints = nil
	for s.Match("<c") {
		c := Constraint{Attr: string(s.Attr("attr"))}
		c.Op = opFromName[string(s.Attr("op"))]
		switch c.Op {
		case OpInvalid:
			s.Decline()
		case OpExists:
			s.Expect(">")
		default:
			c.Val = event.ParseXMLValue(s)
		}
		s.Expect("</c>")
		f.Constraints = append(f.Constraints, c)
	}
	s.Expect("</filter>")
	return s.Err()
}

var (
	_ wire.XMLMessage = (*SubMsg)(nil)
	_ wire.XMLMessage = (*UnsubMsg)(nil)
	_ wire.XMLMessage = (*PubMsg)(nil)
	_ wire.XMLMessage = (*DeliverMsg)(nil)
)

// appendFilterMsg wraps the filter in the message's element, which
// encoding/xml names after the Go type.
func appendFilterMsg(dst []byte, open, end string, f Filter) []byte {
	dst = append(dst, open...)
	dst = f.AppendXML(dst)
	return append(dst, end...)
}

func parseFilterMsg(s *wire.XMLScanner, open, end string, f *Filter) error {
	s.Expect(open)
	if err := f.ParseXML(s); err != nil {
		return err
	}
	s.Expect(end)
	return s.Err()
}

// appendEventMsg wraps an optional event: a nil event is an empty
// element.
func appendEventMsg(dst []byte, open, end string, ev *event.Event) []byte {
	dst = append(dst, open...)
	if ev != nil {
		dst = ev.AppendXML(dst)
	}
	return append(dst, end...)
}

func parseEventMsg(s *wire.XMLScanner, open, end string, ev **event.Event) error {
	s.Expect(open)
	*ev = nil
	if !s.Match(end) {
		*ev = &event.Event{}
		if err := (*ev).ParseXML(s); err != nil {
			return err
		}
		s.Expect(end)
	}
	return s.Err()
}

// AppendXML implements wire.XMLMessage.
func (m *SubMsg) AppendXML(dst []byte) []byte {
	return appendFilterMsg(dst, "<SubMsg>", "</SubMsg>", m.Filter)
}

// ParseXML implements wire.XMLMessage.
func (m *SubMsg) ParseXML(s *wire.XMLScanner) error {
	return parseFilterMsg(s, "<SubMsg>", "</SubMsg>", &m.Filter)
}

// AppendXML implements wire.XMLMessage.
func (m *UnsubMsg) AppendXML(dst []byte) []byte {
	return appendFilterMsg(dst, "<UnsubMsg>", "</UnsubMsg>", m.Filter)
}

// ParseXML implements wire.XMLMessage.
func (m *UnsubMsg) ParseXML(s *wire.XMLScanner) error {
	return parseFilterMsg(s, "<UnsubMsg>", "</UnsubMsg>", &m.Filter)
}

// AppendXML implements wire.XMLMessage.
func (m *PubMsg) AppendXML(dst []byte) []byte {
	return appendEventMsg(dst, "<PubMsg>", "</PubMsg>", m.Event)
}

// ParseXML implements wire.XMLMessage.
func (m *PubMsg) ParseXML(s *wire.XMLScanner) error {
	return parseEventMsg(s, "<PubMsg>", "</PubMsg>", &m.Event)
}

// AppendXML implements wire.XMLMessage.
func (m *DeliverMsg) AppendXML(dst []byte) []byte {
	return appendEventMsg(dst, "<DeliverMsg>", "</DeliverMsg>", m.Event)
}

// ParseXML implements wire.XMLMessage.
func (m *DeliverMsg) ParseXML(s *wire.XMLScanner) error {
	return parseEventMsg(s, "<DeliverMsg>", "</DeliverMsg>", &m.Event)
}
