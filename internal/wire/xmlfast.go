package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"unicode/utf8"

	"github.com/gloss/active/internal/ids"
)

// Hand-written XML for the hot message kinds. The XML codec's reference
// implementation is encoding/xml — a tokenizer and a reflection walk per
// frame. A message type that implements XMLMessage is instead appended
// and scanned by its own code, the way BinaryMessage types are in the
// binary codec. Two rules keep the open format exactly what it was:
//
//   - AppendXML writes byte for byte what xml.Marshal writes for the
//     same value, so frame bytes and sizes do not depend on the path;
//   - ParseXML never gives a second verdict. It reads only the strict
//     form AppendXML writes and declines anything else — valid XML in
//     another shape as much as garbage — and a declined frame goes to the
//     reflection decoder, which alone decides whether it is accepted,
//     what it decodes to and what the error says.

// XMLMessage is implemented by message types with a hand-written XML
// form. Types without it travel through encoding/xml.
type XMLMessage interface {
	Message
	// AppendXML appends the bytes xml.Marshal produces for the message.
	AppendXML(dst []byte) []byte
	// ParseXML reads the form AppendXML writes into the message. Any
	// error, the scanner's or the type's own, means "declined": the frame
	// is decoded again by the reflection path, so the error is never seen.
	ParseXML(s *XMLScanner) error
}

// xmlEscapes holds encoding/xml's replacement for each ASCII byte it does
// not write as it is; the same table serves attribute values and
// character data. Control bytes XML cannot carry become U+FFFD.
var xmlEscapes = func() (t [utf8.RuneSelf]string) {
	for c := 0; c < 0x20; c++ {
		t[c] = "\uFFFD"
	}
	t['\t'], t['\n'], t['\r'] = "&#x9;", "&#xA;", "&#xD;"
	t['"'], t['\''] = "&#34;", "&#39;"
	t['&'], t['<'], t['>'] = "&amp;", "&lt;", "&gt;"
	return t
}()

// AppendXMLText appends s escaped as encoding/xml escapes attribute
// values and character data: the five markup characters and tab, CR and
// LF as references, other control characters, U+FFFE, U+FFFF and each
// byte of invalid UTF-8 as U+FFFD.
func AppendXMLText(dst []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		esc, width := "", 1
		if c := s[i]; c < utf8.RuneSelf {
			esc = xmlEscapes[c]
		} else {
			var r rune
			r, width = utf8.DecodeRuneInString(s[i:])
			if (r == utf8.RuneError && width == 1) || r == 0xFFFE || r == 0xFFFF {
				esc = "\uFFFD"
			}
		}
		if esc != "" {
			dst = append(dst, s[last:i]...)
			dst = append(dst, esc...)
			last = i + width
		}
		i += width
	}
	return append(dst, s[last:]...)
}

// AppendXMLAttr appends ` name="value"` with the value escaped. name is a
// literal of the caller's and is written as it is.
func AppendXMLAttr(dst []byte, name, value string) []byte {
	dst = appendXMLAttrOpen(dst, name)
	dst = AppendXMLText(dst, value)
	return append(dst, '"')
}

// AppendXMLID appends ` name="…"` holding id's 32 hex digits.
func AppendXMLID(dst []byte, name string, id ids.ID) []byte {
	dst = appendXMLAttrOpen(dst, name)
	dst = hex.AppendEncode(dst, id[:])
	return append(dst, '"')
}

func appendXMLAttrOpen(dst []byte, name string) []byte {
	dst = append(dst, ' ')
	dst = append(dst, name...)
	return append(dst, '=', '"')
}

// errXMLDeclined is the scanner's only error: the input is not in the
// form the hand-written encoders emit.
var errXMLDeclined = errors.New("wire: not the canonical XML form")

// Byte classes for text scanning.
const (
	xmlPlain  = iota // stands for itself
	xmlAmp           // starts a reference
	xmlMarkup        // ends the text, or is never written raw by the encoder
	xmlHigh          // part of a multi-byte UTF-8 sequence
)

var xmlClass = func() (t [256]uint8) {
	for c := 0; c < 0x20; c++ {
		t[c] = xmlMarkup
	}
	for _, c := range `<>"'` {
		t[c] = xmlMarkup
	}
	t['&'] = xmlAmp
	for c := utf8.RuneSelf; c < 256; c++ {
		t[c] = xmlHigh
	}
	return t
}()

// XMLScanner reads the canonical XML the hand-written encoders emit, and
// nothing else: elements and attributes in the encoder's order with its
// exact spacing, double-quoted values, the five named entities and
// numeric character references, valid UTF-8. No namespaces, comments,
// CDATA, processing instructions or raw control characters. Like
// BinReader its failure is sticky: after the first mismatch every read
// returns a zero value and Err reports the decline. Malformed input
// cannot panic.
//
// Attr and Text return views that stay valid for the scanner's life but
// alias the frame: convert what outlives the frame with string(v).
type XMLScanner struct {
	buf      []byte
	pos      int
	scratch  []byte // unescaped copies of values that held references
	declined bool
}

// NewXMLScanner wraps frame for reading.
func NewXMLScanner(frame []byte) *XMLScanner { return &XMLScanner{buf: frame} }

// Err returns nil until something other than the canonical form was met.
func (s *XMLScanner) Err() error {
	if s.declined {
		return errXMLDeclined
	}
	return nil
}

// AtEnd reports whether the whole input has been consumed.
func (s *XMLScanner) AtEnd() bool { return s.pos == len(s.buf) }

// Decline records that the input is not what the encoders write. The
// scanner calls it for syntax; a ParseXML calls it for a value its
// encoder would not have produced.
func (s *XMLScanner) Decline() { s.declined = true }

// Match consumes lit if the input continues with it.
func (s *XMLScanner) Match(lit string) bool {
	if s.declined || len(s.buf)-s.pos < len(lit) || string(s.buf[s.pos:s.pos+len(lit)]) != lit {
		return false
	}
	s.pos += len(lit)
	return true
}

// Expect consumes lit, and declines if the input continues otherwise.
func (s *XMLScanner) Expect(lit string) {
	if !s.Match(lit) {
		s.Decline()
	}
}

// OptAttr consumes ` name="value"` if the input continues with that
// attribute, and returns the unescaped value.
func (s *XMLScanner) OptAttr(name string) ([]byte, bool) {
	rest := s.buf[s.pos:]
	n := len(name)
	if s.declined || len(rest) < n+3 || rest[0] != ' ' || string(rest[1:1+n]) != name || rest[1+n] != '=' || rest[2+n] != '"' {
		return nil, false
	}
	s.pos += n + 3
	v := s.text('"')
	if s.declined {
		return nil, false
	}
	s.pos++ // the closing quote text stopped at
	return v, true
}

// Attr is OptAttr for an attribute the encoder always writes.
func (s *XMLScanner) Attr(name string) []byte {
	v, ok := s.OptAttr(name)
	if !ok {
		s.Decline()
	}
	return v
}

// AttrID reads an attribute holding an identifier's 32 hex digits.
func (s *XMLScanner) AttrID(name string) ids.ID {
	var id ids.ID
	if v := s.Attr(name); len(v) != ids.Digits {
		s.Decline()
	} else if _, err := hex.Decode(id[:], v); err != nil {
		s.Decline()
		id = ids.ID{}
	}
	return id
}

// Int converts an attribute value or character data holding a canonical
// decimal int64: an optional minus sign, no plus sign, no leading zeros,
// no "-0". Anything else declines.
func (s *XMLScanner) Int(v []byte) int64 {
	neg := len(v) > 0 && v[0] == '-'
	if neg {
		v = v[1:]
	}
	u, ok := canonicalUint(v)
	switch {
	case !ok || neg && (u == 0 || u > 1<<63) || !neg && u >= 1<<63:
		s.Decline()
		return 0
	case neg:
		return -int64(u)
	}
	return int64(u)
}

// Uint is Int for a canonical decimal uint64.
func (s *XMLScanner) Uint(v []byte) uint64 {
	u, ok := canonicalUint(v)
	if !ok {
		s.Decline()
	}
	return u
}

// canonicalUint parses decimal digits without sign, leading zeros or
// overflow.
func canonicalUint(v []byte) (uint64, bool) {
	if len(v) == 0 || len(v) > 20 || v[0] == '0' && len(v) > 1 {
		return 0, false
	}
	var u uint64
	for _, c := range v {
		d := uint64(c - '0')
		if d > 9 || u > (1<<64-1-d)/10 {
			return 0, false
		}
		u = u*10 + d
	}
	return u, true
}

// Text consumes character data up to the next tag and returns it
// unescaped. The '<' that ends it is left for the caller to Expect.
func (s *XMLScanner) Text() []byte { return s.text('<') }

// text scans to the first unescaped end byte, which must be there and is
// not consumed. Every other markup or control byte declines: the encoder
// writes those as references in attribute values and character data
// alike, which also keeps CR normalisation and "]]>" out of the way.
func (s *XMLScanner) text(end byte) []byte {
	if s.declined {
		return nil
	}
	start, i := s.pos, s.pos
	var amp, high bool
scan:
	for ; i < len(s.buf); i++ {
		switch xmlClass[s.buf[i]] {
		case xmlAmp:
			amp = true
		case xmlHigh:
			high = true
		case xmlMarkup:
			break scan
		}
	}
	if i == len(s.buf) || s.buf[i] != end {
		s.Decline()
		return nil
	}
	s.pos = i
	raw := s.buf[start:i]
	if high && !validXMLRunes(raw) {
		s.Decline()
		return nil
	}
	if !amp {
		return raw
	}
	return s.unescape(raw)
}

// validXMLRunes reports whether b is valid UTF-8 free of U+FFFE and
// U+FFFF (the two non-characters encoding/xml rejects that UTF-8 can
// spell).
func validXMLRunes(b []byte) bool {
	if !utf8.Valid(b) {
		return false
	}
	for {
		i := bytes.Index(b, []byte("\xEF\xBF"))
		if i < 0 {
			return true
		}
		// Valid UTF-8, so a third byte follows.
		if c := b[i+2]; c == 0xBE || c == 0xBF {
			return false
		}
		b = b[i+3:]
	}
}

// unescape copies raw into the scratch buffer with its references
// resolved. A reference is never shorter than the bytes it stands for,
// so the input not yet unescaped bounds everything the frame can still
// need and the scratch buffer is sized once.
func (s *XMLScanner) unescape(raw []byte) []byte {
	if s.scratch == nil {
		s.scratch = make([]byte, 0, len(s.buf)-s.pos+len(raw))
	}
	mark := len(s.scratch)
	for len(raw) > 0 {
		i := bytes.IndexByte(raw, '&')
		if i < 0 {
			s.scratch = append(s.scratch, raw...)
			break
		}
		s.scratch = append(s.scratch, raw[:i]...)
		raw = raw[i+1:]
		semi := bytes.IndexByte(raw[:min(len(raw), maxXMLRef)], ';')
		if semi < 0 {
			s.Decline()
			return nil
		}
		r, ok := xmlReference(raw[:semi])
		if !ok {
			s.Decline()
			return nil
		}
		s.scratch = utf8.AppendRune(s.scratch, r)
		raw = raw[semi+1:]
	}
	return s.scratch[mark:len(s.scratch):len(s.scratch)]
}

// maxXMLRef bounds a reference's name and its ';': "#x0010FFFF;".
const maxXMLRef = 11

// xmlReference resolves the text between '&' and ';': one of the five
// predefined entities, or a decimal or hexadecimal character reference
// to a character XML allows. Surrogates and anything encoding/xml would
// map to U+FFFD or reject are declined, not interpreted.
func xmlReference(name []byte) (rune, bool) {
	switch string(name) {
	case "lt":
		return '<', true
	case "gt":
		return '>', true
	case "amp":
		return '&', true
	case "apos":
		return '\'', true
	case "quot":
		return '"', true
	}
	if len(name) < 2 || name[0] != '#' {
		return 0, false
	}
	digits, base := name[1:], uint32(10)
	if digits[0] == 'x' {
		digits, base = digits[1:], 16
	}
	if len(digits) == 0 {
		return 0, false
	}
	var r uint32 // maxXMLRef leaves room for eight hex or nine decimal digits: no overflow
	for _, c := range digits {
		var d uint32
		switch {
		case '0' <= c && c <= '9':
			d = uint32(c - '0')
		case base == 16 && 'a' <= c && c <= 'f':
			d = uint32(c-'a') + 10
		case base == 16 && 'A' <= c && c <= 'F':
			d = uint32(c-'A') + 10
		default:
			return 0, false
		}
		r = r*base + d
	}
	ok := r == '\t' || r == '\n' || r == '\r' ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= utf8.MaxRune
	return rune(r), ok
}
