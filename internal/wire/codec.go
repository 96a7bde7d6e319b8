package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/xml"
	"fmt"
	"math"
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
	// Size returns the encoded size of env in bytes.
	Size(env *Envelope) (int, error)
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

// --- binary primitives --------------------------------------------------------

// AppendUvarint appends v in unsigned LEB128 form.
func AppendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

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
// views over buf instead of copies (see Borrowed). Use only when buf is
// immutable for the life of everything decoded from it.
func NewBinReaderBorrowed(buf []byte) *BinReader {
	return &BinReader{buf: buf, borrow: true}
}

// Borrowed reports whether String returns views over the input buffer.
func (r *BinReader) Borrowed() bool { return r.borrow }

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
	scratch   sync.Pool // *[]byte buffers for Size
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
	c.scratch.New = func() any { b := make([]byte, 0, 512); return &b }
	return c
}

// Name implements Codec.
func (c *BinaryCodec) Name() string { return CodecBinary }

// KindsHash identifies the interned kind table (must match the peer's).
func (c *BinaryCodec) KindsHash() string { return c.kindsHash }

// Encode implements Codec.
func (c *BinaryCodec) Encode(env *Envelope) ([]byte, error) {
	return c.appendEnvelope(make([]byte, 0, 160), env, nil)
}

// EncodeShared implements SharedEncoder: the message body bytes are taken
// from (or stored into) s, so a fan-out marshals the payload once and
// stamps per-destination headers around it.
func (c *BinaryCodec) EncodeShared(env *Envelope, s *SharedBody) ([]byte, error) {
	return c.appendEnvelope(make([]byte, 0, 160), env, s)
}

func (c *BinaryCodec) appendEnvelope(b []byte, env *Envelope, s *SharedBody) ([]byte, error) {
	var flags byte
	if env.IsReply {
		flags |= flagReply
	}
	if env.Err != "" {
		flags |= flagHasErr
	}
	var kindID uint64
	var body []byte
	var bodyScratch *[]byte
	if env.Msg != nil {
		flags |= flagHasMsg
		kind := env.Msg.Kind()
		id, ok := c.kindID[kind]
		if !ok {
			return nil, fmt.Errorf("wire: binary encode: kind %q not in interned table", kind)
		}
		kindID = id
		if s != nil && s.haveBin {
			body = s.binBody
			if s.binXML {
				flags |= flagXMLBody
			}
		} else {
			if bm, ok := env.Msg.(BinaryMessage); ok {
				if s == nil {
					// The body needs encoding before the header (its
					// length is prefixed); a pooled scratch keeps the
					// whole envelope — including Size-only calls —
					// allocation-free.
					bodyScratch = c.scratch.Get().(*[]byte)
					body = bm.AppendWire((*bodyScratch)[:0])
				} else {
					// Cached bodies outlive this call, so they cannot
					// borrow the scratch pool; the one allocation is
					// amortised over the whole fan-out.
					body = bm.AppendWire(nil)
				}
			} else {
				xb, err := xml.Marshal(env.Msg)
				if err != nil {
					return nil, fmt.Errorf("wire: binary encode %q fallback: %w", kind, err)
				}
				flags |= flagXMLBody
				body = xb
			}
			if s != nil {
				s.binBody, s.binXML, s.haveBin = body, flags&flagXMLBody != 0, true
			}
		}
	}
	b = append(b, BinaryMagic, binaryVersion, flags)
	b = AppendID(b, env.From)
	b = AppendID(b, env.To)
	b = AppendUvarint(b, env.CorrID)
	if flags&flagHasErr != 0 {
		b = AppendString(b, env.Err)
	}
	if flags&flagHasMsg != 0 {
		b = AppendUvarint(b, kindID)
		b = AppendBytes(b, body)
	}
	if bodyScratch != nil {
		*bodyScratch = body[:0]
		c.scratch.Put(bodyScratch)
	}
	return b, nil
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
			br.borrow = borrow
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

// Size implements Codec in O(encoded bytes) with no reflection and no
// retained document: the envelope is appended to a pooled scratch buffer
// and only its length escapes.
func (c *BinaryCodec) Size(env *Envelope) (int, error) {
	bp := c.scratch.Get().(*[]byte)
	b, err := c.appendEnvelope((*bp)[:0], env, nil)
	n := len(b)
	*bp = b[:0]
	c.scratch.Put(bp)
	if err != nil {
		return 0, err
	}
	return n, nil
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
