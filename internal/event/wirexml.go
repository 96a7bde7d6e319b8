package event

import (
	"strconv"
	"time"

	"github.com/gloss/active/internal/wire"
)

// Hand-written XML form of events, the wire.XMLMessage counterpart of
// wirebin.go: AppendXML writes exactly the bytes MarshalXML produces
// through encoding/xml, and ParseXML reads exactly that form back and
// declines every other, leaving it to UnmarshalXML. internal/wire's
// differential tests hold both to the reflection path.

// AppendXML appends the <event> element: id, type, source and time
// attributes, one <attr> per attribute in sorted name order, then <body>
// when there is one.
func (e *Event) AppendXML(dst []byte) []byte {
	dst = append(dst, "<event"...)
	dst = wire.AppendXMLID(dst, "id", e.ID)
	dst = wire.AppendXMLAttr(dst, "type", e.Type)
	dst = wire.AppendXMLAttr(dst, "source", e.Source)
	dst = append(dst, ` time="`...)
	dst = strconv.AppendInt(dst, int64(e.Time), 10)
	dst = append(dst, `">`...)
	var buf [16]string
	for _, name := range e.Attrs.AppendNames(buf[:0]) {
		v := e.Attrs[name]
		dst = append(dst, "<attr"...)
		dst = wire.AppendXMLAttr(dst, "name", name)
		dst = wire.AppendXMLAttr(dst, "kind", v.K.String())
		dst = append(dst, '>')
		dst = v.AppendXMLText(dst)
		dst = append(dst, "</attr>"...)
	}
	if e.Body != "" {
		dst = append(dst, "<body>"...)
		dst = wire.AppendXMLText(dst, e.Body)
		dst = append(dst, "</body>"...)
	}
	return append(dst, "</event>"...)
}

// ParseXML reads the form AppendXML writes.
func (e *Event) ParseXML(s *wire.XMLScanner) error {
	s.Expect("<event")
	e.ID = s.AttrID("id")
	e.Type = string(s.Attr("type"))
	e.Source = string(s.Attr("source"))
	e.Time = time.Duration(s.Int(s.Attr("time")))
	s.Expect(">")
	e.Attrs = make(Attributes)
	for s.Match("<attr") {
		name := s.Attr("name")
		v := ParseXMLValue(s)
		s.Expect("</attr>")
		e.Attrs[string(name)] = v
	}
	e.Body = ""
	if s.Match("<body>") {
		e.Body = string(s.Text())
		s.Expect("</body>")
	}
	s.Expect("</event>")
	return s.Err()
}

// AppendXMLText appends the value's text form, String's, escaped as
// character data.
func (v Value) AppendXMLText(dst []byte) []byte {
	switch v.K {
	case KindString:
		return wire.AppendXMLText(dst, v.S)
	case KindInt:
		return strconv.AppendInt(dst, v.I, 10)
	case KindFloat:
		return strconv.AppendFloat(dst, v.F, 'g', -1, 64)
	case KindBool:
		return strconv.AppendBool(dst, v.B)
	default:
		return dst
	}
}

// ParseXMLValue reads the rest of a start tag that ends ` kind="K">` and
// the character data after it as a value of kind K — the tail an event's
// <attr> and a filter's <c> share. It takes the text forms AppendXMLText
// writes and declines the others the reflection paths would take (a bool
// spelled "1", an int spelled "+7").
func ParseXMLValue(s *wire.XMLScanner) Value {
	kind := s.Attr("kind")
	s.Expect(">")
	text := s.Text()
	if s.Err() != nil {
		return Value{}
	}
	switch kindFromString(string(kind)) {
	case KindString:
		return S(string(text))
	case KindInt:
		return I(s.Int(text))
	case KindFloat:
		f, err := strconv.ParseFloat(string(text), 64)
		if err != nil {
			s.Decline()
		}
		return F(f)
	case KindBool:
		switch string(text) {
		case "true":
			return B(true)
		case "false":
			return B(false)
		}
	}
	s.Decline()
	return Value{}
}
