package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/xml"
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync"
	"unsafe"

	"github.com/gloss/active/internal/ids"
)

// Codec serialises envelopes for a wire. Two implementations exist:
//
//   - *Registry, the XML reference codec mandated by the paper's §4.7 for
//     open interfaces. It stays the default everywhere and is the
//     behaviour baseline for differential tests.
//   - *BinaryCodec, a compact length-prefixed fast path for hot interior
//     links (varints, raw 128-bit IDs, interned kind numbers) with an
//     automatic XML-body fallback for message types without hand-written
//     binary marshalling.
//
// Size exists so the simulator can account bandwidth without keeping the
// encoded document around.
type Codec interface {
	// Name identifies the codec on the wire ("xml", "binary").
	Name() string
	// Encode serialises an envelope to a self-contained frame.
	Encode(env *Envelope) ([]byte, error)
	// Decode parses a frame produced by Encode.
	Decode(data []byte) (*Envelope, error)
	// Size returns the encoded size of env in bytes. A non-nil s is the
	// SharedBody of a fan-out of env's message, as EncodeShared takes it:
	// the body is then counted once for every destination.
	Size(env *Envelope, s *SharedBody) (int, error)
}

// Codec names used for negotiation and configuration.
const (
	CodecXML    = "xml"
	CodecBinary = "binary"
)

var _ Codec = (*Registry)(nil)

// BinaryMessage is implemented by message types with a hand-written
// compact binary form. AppendWire appends the message body to b and
// returns the extended slice; ParseWire reads the same form back.
// Types that do not implement it still travel over the binary codec via
// an embedded XML body.
type BinaryMessage interface {
	Message
	AppendWire(b []byte) []byte
	ParseWire(r *BinReader) error
}

// SizedMessage is implemented by binary kinds whose body length is known
// without writing the body: WireSize() == len(AppendWire(nil)). The
// binary codec's Size then counts a frame without encoding it.
type SizedMessage interface {
	BinaryMessage
	WireSize() int
}

// TailMessage is implemented by binary kinds whose last field is bulk
// bytes — a stored object, a chunk, a routed payload. AppendWireHead
// appends every field before it, WireTail returns it, and AppendWire must
// be AppendTailed: the head, then the tail as a length-prefixed byte
// field. The binary codec then sends the tail by reference instead of
// copying it into the frame (BinaryCodec.EncodeSplit).
//
// A referenced tail is written to the socket after Send returns, by the
// peer's writer goroutine, so it must stay unmodified until the frame is
// written: whoever sends a tail gives up the right to change those bytes.
type TailMessage interface {
	BinaryMessage
	AppendWireHead(b []byte) []byte
	WireTail() []byte
}

// AppendTailed is AppendWire for a TailMessage: head ‖ tail.
func AppendTailed(b []byte, m TailMessage) []byte {
	return AppendBytes(m.AppendWireHead(b), m.WireTail())
}

// binScratch holds the buffers message bodies are encoded in before they
// are laid out in a frame, so a frame costs the one exact-size buffer it
// is returned in.
var binScratch = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// splitBody encodes m's binary body as inline bytes, in a pooled buffer
// the caller returns with releaseBody, and the tail the body ends with
// (nil unless m is a TailMessage): inline ‖ tail is m.AppendWire(nil).
func splitBody(m BinaryMessage) (inline, tail []byte, bp *[]byte) {
	bp = binScratch.Get().(*[]byte)
	if tm, ok := m.(TailMessage); ok {
		tail = tm.WireTail()
		return AppendUvarint(tm.AppendWireHead((*bp)[:0]), uint64(len(tail))), tail, bp
	}
	return m.AppendWire((*bp)[:0]), nil, bp
}

func releaseBody(bp *[]byte, inline []byte) {
	if bp != nil {
		*bp = inline[:0]
		binScratch.Put(bp)
	}
}

// MarshalBinary returns prefix ‖ m.AppendWire(nil) in one allocation of
// exactly that size.
func MarshalBinary(prefix []byte, m BinaryMessage) []byte {
	inline, tail, bp := splitBody(m)
	out := make([]byte, 0, len(prefix)+len(inline)+len(tail))
	out = append(append(append(out, prefix...), inline...), tail...)
	releaseBody(bp, inline)
	return out
}

// --- binary primitives --------------------------------------------------------

// AppendUvarint appends v in unsigned LEB128 form.
func AppendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// UvarintLen is the length of v in AppendUvarint's form.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// VarintLen is the length of v in AppendVarint's form.
func VarintLen(v int64) int { return UvarintLen(uint64(v)<<1 ^ uint64(v>>63)) }

// StringLen is the length of s in AppendString's form.
func StringLen(s string) int { return UvarintLen(uint64(len(s))) + len(s) }

// AppendVarint appends v in zig-zag LEB128 form.
func AppendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends a length-prefixed byte slice.
func AppendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendBool appends one byte: 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendFloat64 appends the IEEE-754 bits, little-endian.
func AppendFloat64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendID appends the raw 16 identifier bytes (no hex expansion).
func AppendID(b []byte, id ids.ID) []byte {
	return append(b, id[:]...)
}

// BinReader decodes the binary primitives with a sticky error: after the
// first malformed field every subsequent read returns a zero value, and
// Err reports what went wrong. Malformed input can never panic — lengths
// are validated against the remaining buffer before any allocation.
type BinReader struct {
	buf    []byte
	off    int
	err    error
	borrow bool
}

// NewBinReader wraps buf for reading.
func NewBinReader(buf []byte) *BinReader { return &BinReader{buf: buf} }

// NewBinReaderBorrowed wraps buf for borrowing reads: String returns
// views over buf instead of copies. Use only when buf is immutable for
// the life of everything decoded from it.
func NewBinReaderBorrowed(buf []byte) *BinReader {
	return &BinReader{buf: buf, borrow: true}
}

// Err returns the first decoding error, or nil.
func (r *BinReader) Err() error { return r.err }

// Poison records a semantic decoding error (e.g. an out-of-range enum),
// keeping the sticky-error contract for callers outside this package.
// The first error wins.
func (r *BinReader) Poison(err error) {
	if r.err == nil && err != nil {
		r.err = err
	}
}

// Remaining reports how many bytes are left.
func (r *BinReader) Remaining() int { return len(r.buf) - r.off }

func (r *BinReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated or malformed %s at offset %d", what, r.off)
	}
}

// Uvarint reads an unsigned LEB128 integer.
func (r *BinReader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.off += n
	return v
}

// Varint reads a zig-zag LEB128 integer.
func (r *BinReader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.off += n
	return v
}

// Count reads a collection length and rejects values that could not fit
// in the remaining bytes (every element takes at least one byte), so a
// corrupted count cannot trigger a huge allocation.
func (r *BinReader) Count() int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.Remaining()) {
		r.fail("collection count")
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed slice. The result aliases the input
// buffer; callers that retain it past the frame's life must copy.
func (r *BinReader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Remaining()) {
		r.fail("byte-slice length")
		return nil
	}
	if n == 0 {
		return nil
	}
	out := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return out
}

// OwnedBytes reads a length-prefixed slice the caller may keep for as
// long as it likes (a stored object, a payload forwarded later). A
// borrowed reader's frame is immutable and never recycled, so the slice
// simply keeps the frame as its storage; any other reader's buffer may be
// reused, so the bytes are copied out of it.
func (r *BinReader) OwnedBytes() []byte {
	b := r.Bytes()
	if r.borrow {
		return b
	}
	return bytes.Clone(b)
}

// String reads a length-prefixed string. A plain reader copies; a
// borrowed reader (NewBinReaderBorrowed) returns a view sharing the
// input buffer's storage — zero allocations, at the price of pinning
// the buffer for as long as any returned string lives. The hot decode
// path (events with many attributes) is why the mode exists: copying
// every type, source, attribute name and string value made decode
// allocation the ceiling of the receive path.
func (r *BinReader) String() string {
	b := r.Bytes()
	if len(b) == 0 {
		return ""
	}
	if r.borrow {
		return unsafe.String(&b[0], len(b))
	}
	return string(b)
}

// Bool reads one byte as a boolean.
func (r *BinReader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.Remaining() < 1 {
		r.fail("bool")
		return false
	}
	v := r.buf[r.off]
	r.off++
	return v != 0
}

// Float64 reads IEEE-754 bits, little-endian.
func (r *BinReader) Float64() float64 {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 8 {
		r.fail("float64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return math.Float64frombits(v)
}

// ID reads 16 raw identifier bytes.
func (r *BinReader) ID() ids.ID {
	var id ids.ID
	if r.err != nil {
		return id
	}
	if r.Remaining() < ids.Size {
		r.fail("id")
		return id
	}
	copy(id[:], r.buf[r.off:])
	r.off += ids.Size
	return id
}

// --- binary envelope codec ----------------------------------------------------

// BinaryMagic is the first byte of every binary frame. XML frames start
// with '<' (0x3C), so one byte distinguishes the two codecs on a shared
// connection.
const BinaryMagic = 0xA7

// binaryVersion is bumped on incompatible format changes.
const binaryVersion = 1

// Envelope flag bits.
const (
	flagReply   = 1 << 0
	flagHasMsg  = 1 << 1
	flagHasErr  = 1 << 2
	flagXMLBody = 1 << 3 // body is the message's XML form (fallback)
)

// IsBinaryFrame reports whether a frame was produced by a BinaryCodec.
func IsBinaryFrame(frame []byte) bool {
	return len(frame) > 0 && frame[0] == BinaryMagic
}

// BinaryCodec is the compact fast-path codec. Kind strings are interned
// as indexes into the registry's sorted kind list, so both ends must hold
// identical registries — transport verifies that with KindsHash during
// its hello handshake. Construct it only after every message type has
// been registered.
type BinaryCodec struct {
	reg       *Registry
	kinds     []string
	kindID    map[string]uint64
	kindsHash string
}

var _ Codec = (*BinaryCodec)(nil)

// NewBinaryCodec snapshots reg's kind table into an interning codec.
func NewBinaryCodec(reg *Registry) *BinaryCodec {
	kinds := reg.Kinds()
	c := &BinaryCodec{
		reg:       reg,
		kinds:     kinds,
		kindID:    make(map[string]uint64, len(kinds)),
		kindsHash: reg.KindsHash(),
	}
	for i, k := range kinds {
		c.kindID[k] = uint64(i)
	}
	return c
}

// Name implements Codec.
func (c *BinaryCodec) Name() string { return CodecBinary }

// KindsHash identifies the interned kind table (must match the peer's).
func (c *BinaryCodec) KindsHash() string { return c.kindsHash }

// Encode implements Codec.
func (c *BinaryCodec) Encode(env *Envelope) ([]byte, error) { return c.EncodeShared(env, nil) }

// EncodeShared is Encode with the message body bytes taken from (or
// stored into) s, so a fan-out marshals the payload once and stamps
// per-destination headers around it. The frame is one buffer of exactly
// its size.
func (c *BinaryCodec) EncodeShared(env *Envelope, s *SharedBody) ([]byte, error) {
	f, err := c.split(env, s)
	if err != nil {
		return nil, err
	}
	b := f.appendHead(make([]byte, 0, f.headLen(env)+len(f.ref)), env)
	b = append(b, f.ref...)
	releaseBody(f.bp, f.inline)
	return b, nil
}

// EncodeSplit is EncodeShared without the copy of a body the frame can
// borrow: head ‖ body is the frame, head starts with reserve bytes left
// for the caller (transport's length prefix), and body is the message's
// tail (TailMessage), the SharedBody's one encoding, a just-marshalled XML
// fallback body, or nil. The caller must not modify body, and must write
// the frame before anyone may modify the bytes it was encoded from.
func (c *BinaryCodec) EncodeSplit(env *Envelope, s *SharedBody, reserve int) (head, body []byte, err error) {
	f, err := c.split(env, s)
	if err != nil {
		return nil, nil, err
	}
	head = f.appendHead(make([]byte, reserve, reserve+f.headLen(env)), env)
	releaseBody(f.bp, f.inline)
	return head, f.ref, nil
}

// binFrame is one binary frame before it is laid out: the header's flags
// and kind, and the message body in two parts — inline bytes, written
// into the frame after the header, and ref bytes the frame references.
type binFrame struct {
	flags  byte
	kindID uint64
	inline []byte
	ref    []byte
	bp     *[]byte // the pooled buffer inline lives in, if any
}

// split encodes what env's frame needs beyond its header fields.
func (c *BinaryCodec) split(env *Envelope, s *SharedBody) (f binFrame, err error) {
	if env.IsReply {
		f.flags |= flagReply
	}
	if env.Err != "" {
		f.flags |= flagHasErr
	}
	if env.Msg == nil {
		return f, nil
	}
	f.flags |= flagHasMsg
	kind := env.Msg.Kind()
	var ok bool
	if f.kindID, ok = c.kindID[kind]; !ok {
		return f, fmt.Errorf("wire: binary encode: kind %q not in interned table", kind)
	}
	if s != nil && s.haveBin {
		if s.binXML {
			f.flags |= flagXMLBody
		}
		f.ref = s.binBody
		return f, nil
	}
	bm, ok := env.Msg.(BinaryMessage)
	switch {
	case !ok:
		if f.ref, err = xml.Marshal(env.Msg); err != nil {
			return f, fmt.Errorf("wire: binary encode %q fallback: %w", kind, err)
		}
		f.flags |= flagXMLBody
	case s != nil:
		f.ref = MarshalBinary(nil, bm) // the rest of the fan-out reuses it
	default:
		f.inline, f.ref, f.bp = splitBody(bm)
	}
	if s != nil {
		s.binBody, s.binXML, s.haveBin = f.ref, f.flags&flagXMLBody != 0, true
	}
	return f, nil
}

// headLen is the length of the frame up to its referenced bytes.
func (f *binFrame) headLen(env *Envelope) int {
	return frameLen(env, f.flags, f.kindID, len(f.inline)+len(f.ref)) - len(f.ref)
}

// frameLen is the length of env's frame with the given flags, kind number
// and message body length.
func frameLen(env *Envelope, flags byte, kindID uint64, body int) int {
	n := 3 + 2*ids.Size + UvarintLen(env.CorrID)
	if flags&flagHasErr != 0 {
		n += StringLen(env.Err)
	}
	if flags&flagHasMsg != 0 {
		n += UvarintLen(kindID) + UvarintLen(uint64(body)) + body
	}
	return n
}

// appendHead appends the frame up to its referenced bytes: headLen of them.
func (f *binFrame) appendHead(b []byte, env *Envelope) []byte {
	b = append(b, BinaryMagic, binaryVersion, f.flags)
	b = AppendID(b, env.From)
	b = AppendID(b, env.To)
	b = AppendUvarint(b, env.CorrID)
	if f.flags&flagHasErr != 0 {
		b = AppendString(b, env.Err)
	}
	if f.flags&flagHasMsg != 0 {
		b = AppendUvarint(b, f.kindID)
		b = AppendUvarint(b, uint64(len(f.inline)+len(f.ref)))
		b = append(b, f.inline...)
	}
	return b
}

// Decode implements Codec. Every decoded string is an independent copy;
// the frame may be reused or mutated afterwards.
func (c *BinaryCodec) Decode(data []byte) (*Envelope, error) {
	return c.decode(data, false)
}

// DecodeBorrow parses a frame like Decode, but strings in the decoded
// messages (event types, sources, attribute names and values, filter
// constraints …) are views borrowing the frame's storage rather than
// copies. The caller must guarantee data is never mutated or recycled —
// the transport qualifies, since it allocates a fresh buffer per
// received frame — and accepts that retaining any decoded string (a
// frozen event in a proxy buffer, say) pins the whole frame in memory.
func (c *BinaryCodec) DecodeBorrow(data []byte) (*Envelope, error) {
	return c.decode(data, true)
}

func (c *BinaryCodec) decode(data []byte, borrow bool) (*Envelope, error) {
	if len(data) < 3 {
		return nil, fmt.Errorf("wire: binary decode: frame of %d bytes too short", len(data))
	}
	if data[0] != BinaryMagic {
		return nil, fmt.Errorf("wire: binary decode: bad magic 0x%02x", data[0])
	}
	if data[1] != binaryVersion {
		return nil, fmt.Errorf("wire: binary decode: unsupported version %d", data[1])
	}
	flags := data[2]
	r := NewBinReader(data[3:])
	r.borrow = borrow
	env := &Envelope{
		From:    r.ID(),
		To:      r.ID(),
		CorrID:  r.Uvarint(),
		IsReply: flags&flagReply != 0,
	}
	if flags&flagHasErr != 0 {
		env.Err = r.String()
	}
	if flags&flagHasMsg != 0 {
		kindID := r.Uvarint()
		body := r.Bytes()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if kindID >= uint64(len(c.kinds)) {
			return nil, fmt.Errorf("wire: binary decode: kind id %d out of range", kindID)
		}
		kind := c.kinds[kindID]
		msg, err := c.reg.New(kind)
		if err != nil {
			return nil, err
		}
		if flags&flagXMLBody != 0 {
			if err := xml.Unmarshal(body, msg); err != nil {
				return nil, fmt.Errorf("wire: binary decode body of %q: %w", kind, err)
			}
		} else {
			bm, ok := msg.(BinaryMessage)
			if !ok {
				return nil, fmt.Errorf("wire: binary decode: kind %q has no binary form", kind)
			}
			br := NewBinReader(body)
			// A message that borrows keeps its whole frame alive, and an error
			// text ahead of the body can make that frame any size: a frame
			// carrying both lends nothing.
			br.borrow = borrow && flags&flagHasErr == 0
			if err := bm.ParseWire(br); err != nil {
				return nil, fmt.Errorf("wire: binary decode body of %q: %w", kind, err)
			}
		}
		env.Msg = msg
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return env, nil
}

// Size implements Codec with no reflection and no retained document: a
// SizedMessage is counted without being encoded; any other message body
// is encoded in a pooled buffer, except for a tail, which is only
// counted. With a non-nil s the first Size keeps the body's kind number
// and length there, and the rest of the fan-out reads them.
func (c *BinaryCodec) Size(env *Envelope, s *SharedBody) (int, error) {
	var flags byte
	if env.Err != "" {
		flags |= flagHasErr
	}
	if env.Msg == nil {
		return frameLen(env, flags, 0, 0), nil
	}
	flags |= flagHasMsg
	if s != nil && s.binSized {
		return frameLen(env, flags, s.binKind, s.binLen), nil
	}
	kindID, body, err := c.countBody(env)
	if err != nil {
		return 0, err
	}
	if s != nil {
		s.binKind, s.binLen, s.binSized = kindID, body, true
	}
	return frameLen(env, flags, kindID, body), nil
}

// countBody returns the kind number and the body length of env's frame.
func (c *BinaryCodec) countBody(env *Envelope) (kindID uint64, body int, err error) {
	if sm, ok := env.Msg.(SizedMessage); ok {
		if kindID, ok := c.kindID[sm.Kind()]; ok {
			return kindID, sm.WireSize(), nil
		}
	}
	f, err := c.split(env, nil)
	if err != nil {
		return 0, 0, err
	}
	releaseBody(f.bp, f.inline)
	return f.kindID, len(f.inline) + len(f.ref), nil
}

// KindsHash fingerprints the registry's sorted kind list; two registries
// with the same hash intern kinds identically, making their binary
// codecs wire-compatible.
func (r *Registry) KindsHash() string {
	sum := sha256.Sum256([]byte(strings.Join(r.Kinds(), "\n")))
	return hex.EncodeToString(sum[:8])
}

// Name implements Codec: the Registry doubles as the XML reference codec.
func (r *Registry) Name() string { return CodecXML }
