package wire_test

// Differential tests for the hand-written XML path (xmlfast.go and the
// wirexml.go files of event and pubsub). The reflection path on
// encoding/xml is the oracle on both sides: AppendXML must write its
// bytes, and the scanner may accept a frame only if the reflection
// decoder accepts it with the same result.

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/pubsub"
	"github.com/gloss/active/internal/transport"
	"github.com/gloss/active/internal/wire"
)

// nastyString draws text that exercises every branch of the escaper:
// markup, quotes, tab/CR/LF, other control bytes, multi-byte runes, the
// non-characters U+FFFE/U+FFFF, a real U+FFFD, and bytes that are not
// UTF-8 at all (lone continuation bytes, truncated sequences, an encoded
// surrogate).
func nastyString(rng *rand.Rand, maxLen int) string {
	pieces := []string{
		"a", "b", "Z", "0", " ", ".", "-", "_", ":", ";", "#", "x",
		"<", ">", "&", `"`, "'", "\t", "\n", "\r", "\r\n", "]]>", "&amp;", "&#34;",
		"\x00", "\x01", "\x1f", "\x7f",
		"é", "ß", "日本", "𝄞", "\u0085", "\u2028", "\ufffd", "\ufffe", "\uffff",
		"\x80", "\xbf", "\xc3", "\xe6\x97", "\xed\xa0\x80", "\xf4\x90\x80\x80", "\xff",
	}
	var b []byte
	for n := rng.Intn(maxLen + 1); n > 0; n-- {
		b = append(b, pieces[rng.Intn(len(pieces))]...)
	}
	return string(b)
}

func nastyValue(rng *rand.Rand, nan bool) event.Value {
	switch rng.Intn(9) {
	case 0:
		return event.S("")
	case 1, 2:
		return event.S(nastyString(rng, 8))
	case 3:
		return event.I(rng.Int63() - rng.Int63())
	case 4:
		return event.I([]int64{0, -1, math.MaxInt64, math.MinInt64}[rng.Intn(4)])
	case 5:
		return event.F(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20)))
	case 6:
		specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 5e-324, math.MaxFloat64, 1e21, 1e-7}
		if nan {
			specials = append(specials, math.NaN())
		}
		return event.F(specials[rng.Intn(len(specials))])
	case 7:
		return event.B(rng.Intn(2) == 0)
	default:
		// A kind no decoder takes: it must still encode as xml.Marshal does.
		return event.Value{K: event.Kind(rng.Intn(7))}
	}
}

func nastyEvent(rng *rand.Rand, nan bool) *event.Event {
	ev := event.New(nastyString(rng, 4), nastyString(rng, 4), time.Duration(rng.Int63()-rng.Int63()))
	ev.ID = ids.Random(rng)
	for i, n := 0, rng.Intn(13); i < n; i++ {
		ev.Set(string(rune('a'+i))+nastyString(rng, 3), nastyValue(rng, nan))
	}
	switch rng.Intn(3) {
	case 0:
		ev.SetBody("<x a=\"" + nastyString(rng, 4) + "\">t</x>")
	case 1:
		ev.SetBody(nastyString(rng, 12))
	}
	if rng.Intn(8) == 0 {
		ev.Attrs = nil
	}
	return ev
}

func nastyFilter(rng *rand.Rand, nan bool) pubsub.Filter {
	var cs []pubsub.Constraint
	for n := rng.Intn(5); n > 0; n-- {
		// Zero and OpExists+1 are operators no decoder takes.
		c := pubsub.Constraint{Attr: nastyString(rng, 3), Op: pubsub.Op(rng.Intn(int(pubsub.OpExists) + 2))}
		if c.Op != pubsub.OpExists || rng.Intn(4) == 0 {
			c.Val = nastyValue(rng, nan)
		}
		cs = append(cs, c)
	}
	return pubsub.NewFilter(cs...)
}

// nastyHello draws a transport hello: coordinates as nastyValue draws
// floats, a codec list that may hold an empty name, an address book.
func nastyHello(rng *rand.Rand, nan bool) *transport.HelloMsg {
	float := func() float64 {
		if v := nastyValue(rng, nan); v.K == event.KindFloat {
			return v.F
		}
		return rng.NormFloat64()
	}
	h := &transport.HelloMsg{ID: nastyString(rng, 4), Addr: nastyString(rng, 4), Region: nastyString(rng, 3), X: float(), Y: float()}
	for n := rng.Intn(4); n > 0; n-- {
		h.Codecs = append(h.Codecs, []string{wire.CodecXML, wire.CodecBinary, "", nastyString(rng, 3)}[rng.Intn(4)])
	}
	if rng.Intn(2) == 0 {
		h.KindsHash = nastyString(rng, 4)
	}
	for n := rng.Intn(4); n > 0; n-- {
		h.Known = append(h.Known, transport.HelloPeer{ID: nastyString(rng, 3), Addr: nastyString(rng, 3)})
	}
	return h
}

// nastyEnvelope draws one envelope of a hand-written kind (or, rarely, of
// no kind at all), with every header field set and unset.
func nastyEnvelope(rng *rand.Rand, nan bool) *wire.Envelope {
	env := &wire.Envelope{From: ids.Random(rng), To: ids.Random(rng)}
	if rng.Intn(2) == 0 {
		env.CorrID = []uint64{1, 7, uint64(rng.Int63()), math.MaxUint64}[rng.Intn(4)]
	}
	env.IsReply = rng.Intn(3) == 0
	if rng.Intn(3) == 0 {
		env.Err = nastyString(rng, 6)
	}
	var ev *event.Event
	if rng.Intn(10) != 0 {
		ev = nastyEvent(rng, nan)
	}
	switch rng.Intn(14) {
	case 0, 1, 2, 3:
		env.Msg = &pubsub.PubMsg{Event: ev}
	case 4, 5, 6:
		env.Msg = &pubsub.DeliverMsg{Event: ev}
	case 7, 8:
		env.Msg = &pubsub.SubMsg{Filter: nastyFilter(rng, nan)}
	case 9:
		env.Msg = &pubsub.UnsubMsg{Filter: nastyFilter(rng, nan)}
	case 10:
		env.Msg = &pubsub.SubMsg{Filter: nastyFilter(rng, nan)}
	case 11:
		env.Msg = &pubsub.UnsubMsg{Filter: nastyFilter(rng, nan)}
	case 12:
		env.Msg = nastyHello(rng, nan)
	}
	return env
}

// TestXMLAppendMatchesMarshal: on seeded random envelopes of every
// hand-written kind, Encode, EncodeShared (first use and cached) and Size
// give exactly the bytes encoding/xml gives.
func TestXMLAppendMatchesMarshal(t *testing.T) {
	reg := fullRegistry()
	rng := rand.New(rand.NewSource(20261001))
	for i := 0; i < 4000; i++ {
		env := nastyEnvelope(rng, true)
		want, err := wire.EncodeReflect(env)
		if err != nil {
			t.Fatalf("envelope %d: reference encode: %v", i, err)
		}
		got, err := reg.Encode(env)
		if err != nil {
			t.Fatalf("envelope %d: encode: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("envelope %d (%+v):\n appended %q\nmarshalled %q", i, env.Msg, got, want)
		}
		if n, err := reg.Size(env); err != nil || n != len(want) {
			t.Fatalf("envelope %d: Size = %d, %v; the frame has %d bytes", i, n, err, len(want))
		}
		shared := &wire.SharedBody{}
		for pass := 0; pass < 2; pass++ {
			// A fan-out: same message, fresh header per destination.
			env.To, env.CorrID = ids.Random(rng), uint64(pass)
			want, err := wire.EncodeReflect(env)
			if err != nil {
				t.Fatal(err)
			}
			got, err := reg.EncodeShared(env, shared)
			if err != nil {
				t.Fatalf("envelope %d: shared encode %d: %v", i, pass, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("envelope %d, shared pass %d:\n appended %q\nmarshalled %q", i, pass, got, want)
			}
		}
	}
}

// equalNaN is reflect.DeepEqual, except that a NaN equals a NaN: a
// float attribute may legitimately hold one, and then a decoded envelope
// is not DeepEqual even to itself.
func equalNaN(a, b reflect.Value) bool {
	if !a.IsValid() || !b.IsValid() {
		return a.IsValid() == b.IsValid()
	}
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		x, y := a.Float(), b.Float()
		return x == y || x != x && y != y
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return equalNaN(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !equalNaN(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Kind() == reflect.Slice && a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !equalNaN(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for it := a.MapRange(); it.Next(); {
			if !equalNaN(it.Value(), b.MapIndex(it.Key())) {
				return false
			}
		}
		return true
	case reflect.String:
		return a.String() == b.String()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return a.Uint() == b.Uint()
	default:
		panic("equalNaN: no message holds a " + a.Kind().String())
	}
}

// checkFastAgainstReflection holds Decode and its fast half to the
// reflection decoder on one frame: the scanner accepts only what the
// oracle accepts, with the oracle's result, and when it declines Decode
// is the oracle — result and error text. It reports whether the scanner
// accepted.
func checkFastAgainstReflection(t *testing.T, reg *wire.Registry, frame []byte) bool {
	t.Helper()
	want, wantErr := wire.DecodeReflect(reg, frame)
	fast := wire.DecodeFast(reg, frame)
	got, err := reg.Decode(frame)
	if fast != nil {
		if wantErr != nil {
			t.Fatalf("frame %q:\n the scanner accepted %+v (msg %+v)\n the reflection decoder says: %v", frame, fast, fast.Msg, wantErr)
		}
		if !equalNaN(reflect.ValueOf(fast), reflect.ValueOf(want)) {
			t.Fatalf("frame %q:\n    scanner %+v (msg %+v)\n reflection %+v (msg %+v)", frame, fast, fast.Msg, want, want.Msg)
		}
	}
	switch {
	case (err == nil) != (wantErr == nil), err != nil && err.Error() != wantErr.Error():
		t.Fatalf("frame %q:\n     Decode error: %v\n reflection error: %v", frame, err, wantErr)
	case err == nil && !equalNaN(reflect.ValueOf(got), reflect.ValueOf(want)):
		t.Fatalf("frame %q:\n     Decode %+v (msg %+v)\n reflection %+v (msg %+v)", frame, got, got.Msg, want, want.Msg)
	}
	return fast != nil
}

// TestXMLFastDecodeMatchesReflection runs checkFastAgainstReflection
// over the frames of TestXMLAppendMatchesMarshal's generator — which the
// scanner must accept whenever the oracle does, or the fast path is not
// one — and over byte-mutated copies of them.
func TestXMLFastDecodeMatchesReflection(t *testing.T) {
	reg := fullRegistry()
	rng := rand.New(rand.NewSource(20261002))
	var frames [][]byte
	for i := 0; i < 2000; i++ {
		frame, err := reg.Encode(nastyEnvelope(rng, true))
		if err != nil {
			t.Fatal(err)
		}
		fast := checkFastAgainstReflection(t, reg, frame)
		if _, err := wire.DecodeReflect(reg, frame); err == nil && !fast {
			t.Fatalf("the scanner declined a frame of its own encoder that decodes: %q", frame)
		}
		frames = append(frames, frame)
	}
	splices := []string{
		"<", ">", "/", "&", `"`, "'", " ", "\t", "\n", "\r", "=", ";", "#", "x", "0", "-", "+", "1", "e",
		"</env>", "<env>", "</event>", "<event>", "<attr>", "</attr>", "<body>", "</body>", "<c>", "</c>", "<filter>", "<x/>",
		"&amp;", "&lt;", "&quot;", "&apos;", "&#34;", "&#x9;", "&#xD;", "&#0;", "&#xD800;", "&#xFFFE;", "&#x110000;", "&#x0000041;", "&#;", "&bogus;",
		"<!-- c -->", "<![CDATA[x]]>", "]]>", "<?pi?>", ` xmlns="urn:x"`, ` xmlns:p="urn:p"`, "p:",
		` kind=""`, ` kind="int"`, ` kind="bool"`, ` kind="float"`, ` corr="0"`, ` corr="07"`, ` reply="1"`, ` reply="false"`, ` time="+1"`, ` op="exists"`,
		"true", "false", "NaN", "Inf", "0x10", "1_0", "\xff", "\xc3", "\xef\xbf\xbe", "é",
	}
	accepted := 0
	const mutants = 30000
	for i := 0; i < mutants; i++ {
		frame := bytes.Clone(frames[rng.Intn(len(frames))])
		for n := 1 + rng.Intn(2); n > 0; n-- {
			at := rng.Intn(len(frame) + 1)
			switch op := rng.Intn(4); {
			case op == 0 && at < len(frame):
				end := min(at+1+rng.Intn(12), len(frame))
				frame = append(frame[:at], frame[end:]...)
			case op == 1 && at < len(frame):
				frame[at] = byte(rng.Intn(256))
			default:
				s := splices[rng.Intn(len(splices))]
				frame = append(frame[:at], append([]byte(s), frame[at:]...)...)
			}
		}
		if checkFastAgainstReflection(t, reg, frame) {
			accepted++
		}
	}
	if accepted < mutants/100 || accepted > mutants*9/10 {
		t.Fatalf("the scanner accepted %d of %d mutated frames: the mutations exercise one side only", accepted, mutants)
	}
}

// TestXMLCodecAllocs bounds the allocations of the hand-written path on
// the kind of frame activebench's mobile-subs workload carries: a
// pubsub.pub with a six-attribute event. It takes 2 allocations to encode (the sorted
// attribute names, the frame) and 13 to decode; on encoding/xml alone it
// was 67 and 184.
func TestXMLCodecAllocs(t *testing.T) {
	reg := fullRegistry()
	ev := event.New("gps.location", "gps-user-0042", 90*time.Second).
		Set("user", event.S("user-0042")).
		Set("x", event.F(12.25)).
		Set("y", event.F(77.5)).
		Set("mode", event.S("foot")).
		Set("n", event.I(123456)).
		Set("ok", event.B(true)).
		Stamp(9)
	env := &wire.Envelope{From: ids.FromString("a"), To: ids.FromString("b"), Msg: &pubsub.PubMsg{Event: ev}}
	frame, err := reg.Encode(env)
	if err != nil {
		t.Fatal(err)
	}
	if wire.DecodeFast(reg, frame) == nil {
		t.Fatalf("the scanner declined %q", frame)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := reg.Encode(env); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("XML encode of a 6-attribute pubsub.pub: %.0f allocs, want <= 3", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := reg.Decode(frame); err != nil {
			t.Fatal(err)
		}
	}); n > 20 {
		t.Errorf("XML decode of a 6-attribute pubsub.pub: %.0f allocs, want <= 20", n)
	}
}
