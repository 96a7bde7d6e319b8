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
// is normally completed at wiring time, but the registry tolerates
// runtime Register calls (dynamic bundle types) concurrent with decoding
// — transport nodes then rebuild their binary codec and re-advertise the
// new kinds hash (see transport.Node.RefreshRegistry).
type Registry struct {
	mu    sync.RWMutex
	types map[string]reflect.Type
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{types: make(map[string]reflect.Type)}
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
		if prev != t {
			panic(fmt.Sprintf("wire: kind %q registered twice with different types (%v, %v)", kind, prev, t))
		}
		return
	}
	r.types[kind] = t
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
	v := reflect.New(t).Interface()
	m, ok := v.(Message)
	if !ok {
		// Value receiver Kind: the pointer still satisfies Message in
		// all our message types; this is defensive.
		return nil, fmt.Errorf("wire: kind %q type %v does not implement Message", kind, t)
	}
	return m, nil
}

// xmlEnvelope is the on-the-wire form of an Envelope.
type xmlEnvelope struct {
	XMLName xml.Name `xml:"env"`
	From    string   `xml:"from,attr"`
	To      string   `xml:"to,attr"`
	Kind    string   `xml:"kind,attr"`
	CorrID  uint64   `xml:"corr,attr,omitempty"`
	IsReply bool     `xml:"reply,attr,omitempty"`
	Err     string   `xml:"err,attr,omitempty"`
	Body    []byte   `xml:",innerxml"`
}

// SharedBody caches one message's encoded body so an envelope fanning
// out to many destinations pays the body encoding once per codec
// ("encode once, send many"): per-envelope header fields (From, To,
// CorrID) are still written fresh per frame, only the payload bytes are
// reused. A SharedBody is valid for exactly one Message value — reusing
// it across different messages is a caller bug. The zero value is ready.
// Not safe for concurrent use.
type SharedBody struct {
	xmlBody []byte
	haveXML bool
	binBody []byte
	binXML  bool // binBody holds the XML fallback form
	haveBin bool
}

// SharedEncoder is implemented by codecs that can amortise body encoding
// across a fan-out through a SharedBody cache. Both built-in codecs do;
// transport falls back to plain Encode for codecs that don't.
type SharedEncoder interface {
	Codec
	// EncodeShared is Encode with the message body cached in s.
	// A nil s behaves exactly like Encode.
	EncodeShared(env *Envelope, s *SharedBody) ([]byte, error)
}

var (
	_ SharedEncoder = (*Registry)(nil)
	_ SharedEncoder = (*BinaryCodec)(nil)
)

// Encode serialises an envelope to XML bytes.
func (r *Registry) Encode(env *Envelope) ([]byte, error) {
	return r.EncodeShared(env, nil)
}

// EncodeShared implements SharedEncoder: the marshalled message body is
// taken from (or stored into) s, so only the envelope wrapper is built
// per destination.
func (r *Registry) EncodeShared(env *Envelope, s *SharedBody) ([]byte, error) {
	var body []byte
	var kind string
	if env.Msg != nil {
		kind = env.Msg.Kind()
		if s != nil && s.haveXML {
			body = s.xmlBody
		} else {
			b, err := xml.Marshal(env.Msg)
			if err != nil {
				return nil, fmt.Errorf("wire: encode %q: %w", kind, err)
			}
			body = b
			if s != nil {
				s.xmlBody, s.haveXML = b, true
			}
		}
	}
	xe := xmlEnvelope{
		From:    env.From.String(),
		To:      env.To.String(),
		Kind:    kind,
		CorrID:  env.CorrID,
		IsReply: env.IsReply,
		Err:     env.Err,
		Body:    body,
	}
	var buf bytes.Buffer
	if err := xml.NewEncoder(&buf).Encode(xe); err != nil {
		return nil, fmt.Errorf("wire: encode envelope: %w", err)
	}
	return buf.Bytes(), nil
}

// Decode parses XML bytes produced by Encode. One decoder reads the
// frame once: the <env> start tag gives the header, the first child
// element is decoded straight into the message for the header's kind, and
// whatever follows is skipped up to </env> so the whole envelope is still
// checked for well-formedness. It accepts and rejects exactly what
// unmarshalling an xmlEnvelope and then its inner XML did.
func (r *Registry) Decode(data []byte) (*Envelope, error) {
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

// Size returns the encoded size of env in bytes (for bandwidth accounting).
func (r *Registry) Size(env *Envelope) (int, error) {
	b, err := r.Encode(env)
	if err != nil {
		return 0, err
	}
	return len(b), nil
}
