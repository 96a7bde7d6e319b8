// Package wire defines the message envelope and XML codec shared by the
// simulated network (for byte accounting) and the real TCP transport.
//
// Per the paper (§4.7), all inter-node traffic uses "standardised and open
// interfaces and data formats wherever possible — thus XML-encoded events,
// web service interfaces for pushing events and new code bundles". Every
// protocol message in this repository is XML-serialisable and registered
// with a Registry under a unique kind string.
package wire

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/gloss/active/internal/ids"
)

// Message is a protocol message. Kind returns the globally unique message
// type name, e.g. "plaxton.join" or "pipeline.put". The concrete type must
// be XML-marshalable.
type Message interface {
	Kind() string
}

// ControlMessage is optionally implemented by message types whose loss
// would wedge a protocol rather than merely lose data: subscription
// state, hellos, topology repair. Byte-budgeted send queues never drop
// control messages on watermark overflow — only at an absolute hard cap
// — so overload sheds event fan-out before the routing state that
// steers it.
type ControlMessage interface {
	Message
	Control() bool
}

// Control reports whether msg is control-plane traffic exempt from
// send-queue budget drops.
func Control(msg Message) bool {
	c, ok := msg.(ControlMessage)
	return ok && c.Control()
}

// Envelope carries one message between two nodes.
type Envelope struct {
	From    ids.ID
	To      ids.ID
	CorrID  uint64 // request/response correlation; 0 for one-way sends
	IsReply bool
	Err     string // transported error for failed requests ("" = ok)
	Msg     Message
}

// Registry maps message kinds to concrete Go types for decoding.
// The zero value is not usable; construct with NewRegistry. Registration
// is completed at wiring time; the lock keeps a Register call that runs
// concurrently with decoding safe. A binary codec interns the kinds
// registered when it is built.
type Registry struct {
	mu    sync.RWMutex
	types map[string]kindType
}

// kindType is one registered kind: its concrete type, and whether a
// pointer to it implements XMLMessage.
type kindType struct {
	reflect.Type
	xml bool
}

var xmlMessageType = reflect.TypeOf((*XMLMessage)(nil)).Elem()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{types: make(map[string]kindType)}
}

// Register records the concrete type of prototype under its Kind.
// It panics on duplicate kinds with differing types — that is a
// programming error caught at wiring time.
func (r *Registry) Register(prototype Message) {
	kind := prototype.Kind()
	t := reflect.TypeOf(prototype)
	if t.Kind() == reflect.Ptr {
		t = t.Elem()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.types[kind]; ok {
		if prev.Type != t {
			panic(fmt.Sprintf("wire: kind %q registered twice with different types (%v, %v)", kind, prev.Type, t))
		}
		return
	}
	r.types[kind] = kindType{Type: t, xml: reflect.PointerTo(t).Implements(xmlMessageType)}
}

// Kinds returns all registered kinds, sorted.
func (r *Registry) Kinds() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.types))
	for k := range r.types {
		out = append(out, k)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// New instantiates a fresh message value for kind.
func (r *Registry) New(kind string) (Message, error) {
	r.mu.RLock()
	t, ok := r.types[kind]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("wire: unknown message kind %q", kind)
	}
	v := reflect.New(t.Type).Interface()
	m, ok := v.(Message)
	if !ok {
		// Value receiver Kind: the pointer still satisfies Message in
		// all our message types; this is defensive.
		return nil, fmt.Errorf("wire: kind %q type %v does not implement Message", kind, t.Type)
	}
	return m, nil
}

// SharedBody caches one message's encoded body so an envelope fanning
// out to many destinations pays the body encoding once per codec
// ("encode once, send many"): per-envelope header fields (From, To,
// CorrID) are still written fresh per frame, only the payload bytes are
// reused. A SharedBody is valid for exactly one Message value — reusing
// it across different messages is a caller bug. The zero value is ready.
// Not safe for concurrent use. Its binary body is referenced, not copied,
// by every frame BinaryCodec.EncodeSplit builds from it, so it is never
// modified once built; TailMessage states how long that must hold.
type SharedBody struct {
	xmlBody []byte
	haveXML bool
	binBody []byte
	binXML  bool // binBody holds the XML fallback form
	haveBin bool
	// binKind and binLen are the binary kind number and body length,
	// once BinaryCodec.Size has counted the body (binSized).
	binKind  uint64
	binLen   int
	binSized bool
}

// Encode serialises an envelope to XML bytes.
func (r *Registry) Encode(env *Envelope) ([]byte, error) {
	return r.EncodeShared(env, nil)
}

// EncodeShared is Encode with the marshalled message body taken from (or
// stored into) s, so only the envelope wrapper is built per destination.
// A nil s behaves exactly like Encode.
func (r *Registry) EncodeShared(env *Envelope, s *SharedBody) ([]byte, error) {
	frame, _, err := r.encode(env, s, 0)
	return frame, err
}

// EncodeSplit is BinaryCodec.EncodeSplit for the XML codec: the frame is
// all head, after reserve bytes left for the caller, and borrows nothing.
func (r *Registry) EncodeSplit(env *Envelope, s *SharedBody, reserve int) (head, body []byte, err error) {
	head, _, err = r.encode(env, s, reserve)
	return head, nil, err
}

// xmlScratch holds the buffers frames are built in, so an encode
// allocates the exact-size frame it returns and nothing else, and Size
// nothing at all.
var xmlScratch = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// encode builds env's frame in a pooled buffer and returns its length
// and, unless reserve is negative, a copy of it after reserve zero bytes.
func (r *Registry) encode(env *Envelope, s *SharedBody, reserve int) (frame []byte, n int, err error) {
	bp := xmlScratch.Get().(*[]byte)
	b, err := r.appendEnvelope((*bp)[:0], env, s)
	if err == nil {
		n = len(b)
		if reserve >= 0 {
			frame = append(make([]byte, reserve, reserve+n), b...)
		}
	}
	*bp = b[:0]
	xmlScratch.Put(bp)
	return frame, n, err
}

// appendEnvelope appends the frame encoding/xml writes for an xmlEnvelope
// whose inner XML is the marshalled message: from, to and kind always,
// corr, reply and err when set. The body is the message's own AppendXML
// where it has one and xml.Marshal otherwise.
func (r *Registry) appendEnvelope(b []byte, env *Envelope, s *SharedBody) ([]byte, error) {
	var kind string
	if env.Msg != nil {
		kind = env.Msg.Kind()
	}
	b = append(b, "<env"...)
	b = AppendXMLID(b, "from", env.From)
	b = AppendXMLID(b, "to", env.To)
	b = AppendXMLAttr(b, "kind", kind)
	if env.CorrID != 0 {
		b = append(b, ` corr="`...)
		b = strconv.AppendUint(b, env.CorrID, 10)
		b = append(b, '"')
	}
	if env.IsReply {
		b = append(b, ` reply="true"`...)
	}
	if env.Err != "" {
		b = AppendXMLAttr(b, "err", env.Err)
	}
	b = append(b, '>')
	switch {
	case env.Msg == nil:
	case s != nil && s.haveXML:
		b = append(b, s.xmlBody...)
	default:
		mark := len(b)
		if xm, ok := env.Msg.(XMLMessage); ok {
			b = xm.AppendXML(b)
		} else {
			body, err := xml.Marshal(env.Msg)
			if err != nil {
				return b, fmt.Errorf("wire: encode %q: %w", kind, err)
			}
			b = append(b, body...)
		}
		if s != nil {
			s.xmlBody, s.haveXML = bytes.Clone(b[mark:]), true
		}
	}
	return append(b, "</env>"...), nil
}

// Decode parses XML bytes produced by Encode. A frame in the canonical
// form of a kind with a hand-written scanner (XMLMessage) is read by
// that; every other frame, and every frame the scanner declines, is read
// by decodeReflect, whose verdict is the codec's.
func (r *Registry) Decode(data []byte) (*Envelope, error) {
	if env := r.decodeFast(data); env != nil {
		return env, nil
	}
	return r.decodeReflect(data)
}

// decodeFast scans a frame exactly as appendEnvelope writes it, and
// returns nil for anything else.
func (r *Registry) decodeFast(data []byte) *Envelope {
	s := XMLScanner{buf: data}
	s.Expect("<env")
	from, to := s.AttrID("from"), s.AttrID("to")
	kind := s.Attr("kind")
	var corr uint64
	if v, ok := s.OptAttr("corr"); ok {
		corr = s.Uint(v)
	}
	reply := s.Match(` reply="true"`)
	errText, _ := s.OptAttr("err")
	s.Expect(">")
	if s.declined {
		return nil
	}
	var msg Message
	if len(kind) != 0 {
		r.mu.RLock()
		t, ok := r.types[string(kind)]
		r.mu.RUnlock()
		if !ok || !t.xml {
			return nil
		}
		xm := reflect.New(t.Type).Interface().(XMLMessage)
		if xm.ParseXML(&s) != nil {
			return nil
		}
		msg = xm
	}
	s.Expect("</env>")
	if s.declined || !s.AtEnd() {
		return nil
	}
	return &Envelope{From: from, To: to, CorrID: corr, IsReply: reply, Err: string(errText), Msg: msg}
}

// decodeReflect is the reference decoder, on encoding/xml. One decoder
// reads the frame once: the <env> start tag gives the header, the first
// child element is decoded straight into the message for the header's
// kind, and whatever follows is skipped up to </env> so the whole envelope
// is still checked for well-formedness. It accepts and rejects exactly
// what unmarshalling an xmlEnvelope and then its inner XML did.
func (r *Registry) decodeReflect(data []byte) (*Envelope, error) {
	d := xml.NewDecoder(bytes.NewReader(data))
	var start xml.StartElement
	for found := false; !found; {
		tok, err := d.Token()
		if err != nil {
			return nil, fmt.Errorf("wire: decode envelope: %w", err)
		}
		start, found = tok.(xml.StartElement)
	}
	if start.Name.Local != "env" {
		return nil, fmt.Errorf("wire: decode envelope: expected element type <env> but have <%s>", start.Name.Local)
	}
	env := &Envelope{}
	var from, to, kind string
	for _, a := range start.Attr {
		// Like encoding/xml: attributes match on the local name alone, a
		// repeated one overwrites, numbers and booleans are trimmed, and
		// an empty value is the zero value.
		var err error
		switch a.Name.Local {
		case "from":
			from = a.Value
		case "to":
			to = a.Value
		case "kind":
			kind = a.Value
		case "err":
			env.Err = a.Value
		case "corr":
			env.CorrID = 0
			if a.Value != "" {
				env.CorrID, err = strconv.ParseUint(strings.TrimSpace(a.Value), 10, 64)
			}
		case "reply":
			env.IsReply = false
			if a.Value != "" {
				env.IsReply, err = strconv.ParseBool(strings.TrimSpace(a.Value))
			}
		}
		if err != nil {
			return nil, fmt.Errorf("wire: decode envelope: %w", err)
		}
	}
	var err error
	if env.From, err = ids.Parse(from); err != nil {
		return nil, fmt.Errorf("wire: decode from: %w", err)
	}
	if env.To, err = ids.Parse(to); err != nil {
		return nil, fmt.Errorf("wire: decode to: %w", err)
	}
	var msg Message
	if kind != "" {
		if msg, err = r.New(kind); err != nil {
			return nil, err
		}
	}
	for {
		tok, err := d.Token()
		if err != nil {
			return nil, fmt.Errorf("wire: decode envelope: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if msg == nil || env.Msg != nil {
				err = d.Skip()
			} else if err = d.DecodeElement(msg, &t); err == nil {
				env.Msg = msg
			}
			if err != nil {
				return nil, fmt.Errorf("wire: decode body of %q: %w", kind, err)
			}
		case xml.EndElement:
			if msg != nil && env.Msg == nil {
				return nil, fmt.Errorf("wire: decode body of %q: %w", kind, io.EOF)
			}
			return env, nil
		}
	}
}

// Size returns the encoded size of env in bytes (for bandwidth
// accounting); the frame is not kept. A non-nil s keeps the marshalled
// body, as EncodeShared does, for the rest of the fan-out.
func (r *Registry) Size(env *Envelope, s *SharedBody) (int, error) {
	_, n, err := r.encode(env, s, -1)
	return n, err
}
