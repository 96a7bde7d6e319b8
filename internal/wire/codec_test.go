package wire

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"github.com/gloss/active/internal/ids"
)

// binMsg is a test type with a hand-written binary form.
type binMsg struct {
	Name  string  `xml:"name"`
	Score float64 `xml:"score,attr"`
	N     int64   `xml:"n,attr"`
	Up    bool    `xml:"up,attr"`
	Blob  Bytes   `xml:"blob,omitempty"`
}

func (binMsg) Kind() string { return "test.bin" }

func (m *binMsg) AppendWire(b []byte) []byte {
	b = AppendString(b, m.Name)
	b = AppendFloat64(b, m.Score)
	b = AppendVarint(b, m.N)
	b = AppendBool(b, m.Up)
	return AppendBytes(b, m.Blob)
}

func (m *binMsg) ParseWire(r *BinReader) error {
	m.Name = r.String()
	m.Score = r.Float64()
	m.N = r.Varint()
	m.Up = r.Bool()
	if raw := r.Bytes(); raw != nil {
		m.Blob = append(Bytes(nil), raw...)
	}
	return r.Err()
}

var _ BinaryMessage = (*binMsg)(nil)

func binRegistry() *Registry {
	r := NewRegistry()
	r.Register(&testMsg{}) // XML-fallback type
	r.Register(&otherMsg{})
	r.Register(&binMsg{})
	return r
}

func TestBinPrimitivesRoundTrip(t *testing.T) {
	var b []byte
	b = AppendUvarint(b, 0)
	b = AppendUvarint(b, 1<<40)
	b = AppendVarint(b, -12345)
	b = AppendString(b, "héllo")
	b = AppendBytes(b, []byte{0, 255, 7})
	b = AppendBool(b, true)
	b = AppendFloat64(b, math.Inf(-1))
	id := ids.FromString("prim")
	b = AppendID(b, id)

	r := NewBinReader(b)
	if v := r.Uvarint(); v != 0 {
		t.Fatalf("uvarint 0: got %d", v)
	}
	if v := r.Uvarint(); v != 1<<40 {
		t.Fatalf("uvarint 2^40: got %d", v)
	}
	if v := r.Varint(); v != -12345 {
		t.Fatalf("varint: got %d", v)
	}
	if s := r.String(); s != "héllo" {
		t.Fatalf("string: got %q", s)
	}
	if p := r.Bytes(); !bytes.Equal(p, []byte{0, 255, 7}) {
		t.Fatalf("bytes: got %v", p)
	}
	if !r.Bool() {
		t.Fatal("bool: want true")
	}
	if f := r.Float64(); !math.IsInf(f, -1) {
		t.Fatalf("float: got %v", f)
	}
	if got := r.ID(); got != id {
		t.Fatalf("id: got %v", got)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("remaining: %d", r.Remaining())
	}
}

func TestBinReaderTruncation(t *testing.T) {
	full := AppendString(nil, "0123456789")
	for cut := 0; cut < len(full); cut++ {
		r := NewBinReader(full[:cut])
		_ = r.String()
		if r.Err() == nil {
			t.Fatalf("cut at %d: want error", cut)
		}
	}
	// A giant declared length must fail without allocating.
	r := NewBinReader(AppendUvarint(nil, 1<<60))
	if r.Bytes() != nil || r.Err() == nil {
		t.Fatal("giant length should error")
	}
	r = NewBinReader(AppendUvarint(nil, 1<<60))
	if r.Count() != 0 || r.Err() == nil {
		t.Fatal("giant count should error")
	}
}

func TestBinaryEnvelopeRoundTrip(t *testing.T) {
	reg := binRegistry()
	c := NewBinaryCodec(reg)
	env := &Envelope{
		From:   ids.FromString("alice"),
		To:     ids.FromString("bob"),
		CorrID: 99,
		Msg:    &binMsg{Name: "fast", Score: 2.5, N: -7, Up: true, Blob: Bytes{1, 2, 3}},
	}
	frame, err := c.Encode(env)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if !IsBinaryFrame(frame) {
		t.Fatal("frame should sniff as binary")
	}
	got, err := c.Decode(frame)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, env) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, env)
	}
	if n, err := c.Size(env, nil); err != nil || n != len(frame) {
		t.Fatalf("Size = %d, %v; want %d", n, err, len(frame))
	}
}

func TestBinaryEnvelopeXMLFallback(t *testing.T) {
	reg := binRegistry()
	c := NewBinaryCodec(reg)
	env := &Envelope{
		From: ids.FromString("a"),
		To:   ids.FromString("b"),
		Msg:  &testMsg{Name: "no binary form", Count: 5, Data: Bytes{9, 8}},
	}
	frame, err := c.Encode(env)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := c.Decode(frame)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	m, ok := got.Msg.(*testMsg)
	if !ok || m.Name != "no binary form" || m.Count != 5 || string(m.Data) != string([]byte{9, 8}) {
		t.Fatalf("fallback decode: %#v", got.Msg)
	}
}

func TestBinaryEnvelopeReplyWithError(t *testing.T) {
	c := NewBinaryCodec(binRegistry())
	env := &Envelope{
		From:    ids.FromString("a"),
		To:      ids.FromString("b"),
		CorrID:  3,
		IsReply: true,
		Err:     "no such object",
	}
	frame, err := c.Encode(env)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := c.Decode(frame)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, env) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestBinaryDecodeRejectsMalformed(t *testing.T) {
	c := NewBinaryCodec(binRegistry())
	frame, err := c.Encode(&Envelope{
		From: ids.FromString("a"), To: ids.FromString("b"),
		Msg: &binMsg{Name: "x"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   {0x00, 1, 0},
		"bad version": {BinaryMagic, 99, 0},
		"truncated":   frame[:len(frame)-3],
	}
	for name, data := range cases {
		if _, err := c.Decode(data); err == nil {
			t.Fatalf("%s: want error", name)
		}
	}
	// Kind id past the interned table.
	small := NewRegistry()
	small.Register(&binMsg{})
	cSmall := NewBinaryCodec(small)
	big := binRegistry()
	cBig := NewBinaryCodec(big)
	frame2, err := cBig.Encode(&Envelope{
		From: ids.FromString("a"), To: ids.FromString("b"), Msg: &testMsg{Name: "y"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cSmall.Decode(frame2); err == nil {
		t.Fatal("kind id out of range should error")
	}
}

func TestBinaryEncodeUnknownKind(t *testing.T) {
	empty := NewBinaryCodec(NewRegistry())
	_, err := empty.Encode(&Envelope{
		From: ids.FromString("a"), To: ids.FromString("b"), Msg: &binMsg{},
	})
	if err == nil {
		t.Fatal("unregistered kind should fail to encode")
	}
}

func TestBinaryMuchSmallerThanXML(t *testing.T) {
	reg := binRegistry()
	bin := NewBinaryCodec(reg)
	env := &Envelope{
		From:   ids.FromString("alice"),
		To:     ids.FromString("bob"),
		CorrID: 1,
		Msg:    &binMsg{Name: "payload", Score: 3.14, N: 42, Up: true, Blob: Bytes{1, 2, 3, 4}},
	}
	xb, err := reg.Encode(env)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := bin.Encode(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(bb)*2 >= len(xb) {
		t.Fatalf("binary frame (%dB) should be well under half the XML frame (%dB)", len(bb), len(xb))
	}
}

func TestKindsHash(t *testing.T) {
	a, b := binRegistry(), binRegistry()
	if a.KindsHash() != b.KindsHash() {
		t.Fatal("identical registries must hash alike")
	}
	b.Register(&conflictFree{})
	if a.KindsHash() == b.KindsHash() {
		t.Fatal("different kind tables must hash differently")
	}
	if a.Name() != CodecXML || NewBinaryCodec(a).Name() != CodecBinary {
		t.Fatal("codec names")
	}
}

type conflictFree struct{}

func (conflictFree) Kind() string { return "test.extra" }

// sharedEncoder is what both codecs offer a fan-out.
type sharedEncoder interface {
	Codec
	EncodeShared(env *Envelope, s *SharedBody) ([]byte, error)
}

// TestEncodeSharedMatchesEncode: for both codecs, fan-out frames built
// through a SharedBody are byte-identical to independently encoded ones —
// only the body encoding is amortised, never the per-peer header.
func TestEncodeSharedMatchesEncode(t *testing.T) {
	reg := binRegistry()
	bin := NewBinaryCodec(reg)
	msg := &binMsg{Name: "shared-body", Score: 4.5, N: 42}
	from := ids.FromString("fan-src")
	tos := []ids.ID{ids.FromString("peer-1"), ids.FromString("peer-2"), ids.FromString("peer-3")}
	for _, codec := range []sharedEncoder{reg, bin} {
		shared := &SharedBody{}
		for i, to := range tos {
			env := &Envelope{From: from, To: to, CorrID: uint64(i), Msg: msg}
			got, err := codec.EncodeShared(env, shared)
			if err != nil {
				t.Fatalf("%s EncodeShared: %v", codec.Name(), err)
			}
			want, err := codec.Encode(env)
			if err != nil {
				t.Fatalf("%s Encode: %v", codec.Name(), err)
			}
			if string(got) != string(want) {
				t.Fatalf("%s: shared frame %d differs from plain encode", codec.Name(), i)
			}
			dec, err := codec.Decode(got)
			if err != nil {
				t.Fatalf("%s Decode: %v", codec.Name(), err)
			}
			if dec.To != to || dec.Msg.(*binMsg).Name != "shared-body" {
				t.Fatalf("%s: decoded %+v", codec.Name(), dec)
			}
		}
	}
}

// TestEncodeSharedCachesBody proves the body really is encoded once: a
// (forbidden) mutation of the message between sends does not change
// later frames, because they reuse the cached body bytes.
func TestEncodeSharedCachesBody(t *testing.T) {
	reg := binRegistry()
	bin := NewBinaryCodec(reg)
	for _, codec := range []sharedEncoder{reg, bin} {
		msg := &binMsg{Name: "original", N: 1}
		shared := &SharedBody{}
		env := &Envelope{From: ids.FromString("x"), To: ids.FromString("y"), Msg: msg}
		first, err := codec.EncodeShared(env, shared)
		if err != nil {
			t.Fatal(err)
		}
		msg.Name = "mutated"
		second, err := codec.EncodeShared(env, shared)
		if err != nil {
			t.Fatal(err)
		}
		if string(first) != string(second) {
			t.Fatalf("%s: body re-encoded instead of cached", codec.Name())
		}
	}
}

// TestOwnedBytesBorrowsOnlyFromBorrowedReaders: a plain reader's buffer
// may be reused, so OwnedBytes detaches from it; a borrowed reader's
// frame is the caller's to keep, so it is returned as it is.
func TestOwnedBytesBorrowsOnlyFromBorrowedReaders(t *testing.T) {
	frame := AppendBytes(nil, []byte("payload"))
	plain := NewBinReader(frame).OwnedBytes()
	kept := NewBinReaderBorrowed(frame).OwnedBytes()
	frame[1] = 'P'
	if string(plain) != "payload" {
		t.Errorf("plain reader: OwnedBytes aliases the buffer (%q)", plain)
	}
	if string(kept) != "Payload" {
		t.Errorf("borrowed reader: OwnedBytes copied the frame (%q)", kept)
	}
	if got := NewBinReader(AppendBytes(nil, nil)).OwnedBytes(); got != nil {
		t.Errorf("empty field = %v, want nil", got)
	}
}

// TestDecodeBorrowLendsNothingBesideAnError: a borrowed decode lets the
// message alias its frame, except in a frame that also carries an error
// text, whose length the message's own sizes do not bound.
func TestDecodeBorrowLendsNothingBesideAnError(t *testing.T) {
	codec := NewBinaryCodec(binRegistry())
	for _, errText := range []string{"", string(make([]byte, 1<<16))} {
		frame, err := codec.Encode(&Envelope{Err: errText, Msg: &binMsg{Name: "borrowed"}})
		if err != nil {
			t.Fatal(err)
		}
		env, err := codec.DecodeBorrow(frame)
		if err != nil {
			t.Fatal(err)
		}
		copy(frame[bytes.Index(frame, []byte("borrowed")):], "scribble")
		name, wantAlias := env.Msg.(*binMsg).Name, errText == ""
		if aliased := name == "scribble"; aliased != wantAlias {
			t.Errorf("with a %d-byte error text the message reads %q, aliasing the frame = %v, want %v", len(errText), name, aliased, wantAlias)
		}
	}
}
