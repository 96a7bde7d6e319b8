package wire_test

// Fuzz targets for both wire decoders: arbitrary input must either
// decode cleanly or return an error — never panic, never over-allocate
// from a forged length field. The seed corpus is built from encoded real
// protocol messages so the fuzzer starts inside the interesting format
// space. CI runs a short smoke pass (see .github/workflows/ci.yml);
// longer local runs:
//
//	go test -run '^$' -fuzz FuzzBinaryDecode -fuzztime 60s ./internal/wire
//	go test -run '^$' -fuzz FuzzXMLDecode -fuzztime 60s ./internal/wire
//	go test -run '^$' -fuzz FuzzXMLFastDecode -fuzztime 60s ./internal/wire

import (
	"reflect"
	"testing"
	"time"

	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/plaxton"
	"github.com/gloss/active/internal/pubsub"
	"github.com/gloss/active/internal/transport"
	"github.com/gloss/active/internal/wire"
)

// seedEnvelopes builds a corpus of real protocol traffic.
func seedEnvelopes(t interface{ Fatal(...any) }) (*wire.Registry, []*wire.Envelope) {
	reg := fullRegistry()
	ev := event.New("gps.location", "phone-7", 42*time.Second).
		Set("user", event.S("bob")).
		Set("x", event.F(3.25)).
		Set("n", event.I(-9)).
		Set("ok", event.B(true)).
		Stamp(7)
	inner, err := reg.Encode(&wire.Envelope{
		From: ids.FromString("a"), To: ids.FromString("b"),
		Msg: &pubsub.PubMsg{Event: ev},
	})
	if err != nil {
		t.Fatal(err)
	}
	envs := []*wire.Envelope{
		{From: ids.FromString("a"), To: ids.FromString("b"), Msg: &pubsub.PubMsg{Event: ev}},
		{From: ids.FromString("a"), To: ids.FromString("b"), CorrID: 3, Msg: &pubsub.SubMsg{
			Filter: pubsub.NewFilter(pubsub.TypeIs("gps.location"), pubsub.Gt("x", event.F(1))),
		}},
		{From: ids.FromString("c"), To: ids.FromString("d"), Msg: &plaxton.RouteMsg{
			Key: ids.FromString("k").String(), Origin: ids.FromString("a").String(),
			Hops: 2, Path: []string{"n1", "n2"}, InnerKind: "pubsub.pub", Inner: inner,
		}},
		{From: ids.FromString("e"), To: ids.FromString("f"), CorrID: 9, IsReply: true, Err: "not found"},
		{From: ids.FromString("g"), To: ids.FromString("h"), Msg: &pubsub.ReclaimReply{
			Events: []*event.Event{ev}, Dropped: 1,
		}},
		// What the transport's receive-path corpus adds (recv_test.go): the
		// hello that arrives in mid-burst and a message with nothing in it.
		{From: ids.FromString("i"), To: ids.FromString("i"), Msg: &transport.HelloMsg{
			ID: ids.FromString("i").String(), Addr: "127.0.0.1:9", Codecs: []string{wire.CodecXML, wire.CodecBinary},
			KindsHash: reg.KindsHash(), Known: []transport.HelloPeer{{ID: ids.FromString("j").String(), Addr: "127.0.0.1:10"}},
		}},
		{From: ids.FromString("k"), To: ids.FromString("l"), Msg: &pubsub.DetachMsg{}},
	}
	return reg, envs
}

// addFrameEndings seeds the frames that end a connection in that corpus:
// the zero-size frame and the one that is in neither codec.
func addFrameEndings(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("neither codec"))
}

func FuzzXMLDecode(f *testing.F) {
	reg, envs := seedEnvelopes(f)
	for _, env := range envs {
		frame, err := reg.Encode(env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte("<env"))
	f.Add([]byte("<env from=\"zz\"/>"))
	addFrameEndings(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := reg.Decode(data)
		// The one-pass decoder accepts, rejects and produces exactly what
		// the two-pass reference does.
		want, wantErr := wire.DecodeTwoPass(reg, data)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("Decode error %v, reference error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if env == nil {
			t.Fatal("nil envelope with nil error")
		}
		if !reflect.DeepEqual(env, want) {
			t.Fatalf("Decode gave %+v (msg %+v), reference %+v (msg %+v)", env, env.Msg, want, want.Msg)
		}
	})
}

// FuzzXMLFastDecode holds the hand-written XML scanner to the reflection
// decoder on arbitrary bytes (see checkFastAgainstReflection): it never
// panics, never accepts what the oracle rejects, never differs where
// both accept, and where it declines Decode is the oracle's result and
// error text. Seeded with one frame of each hand-written kind.
func FuzzXMLFastDecode(f *testing.F) {
	reg, envs := seedEnvelopes(f)
	ev := envs[0].Msg.(*pubsub.PubMsg).Event.Clone().
		Set("note", event.S("a <b> & \"c\"\t\r\n'd' \x01 \xff é")).
		SetBody("<x a=\"1\">t</x>")
	flt := pubsub.NewFilter(pubsub.TypeIs("gps.location"), pubsub.Gt("x", event.F(1)),
		pubsub.Exists("user"), pubsub.Eq("ok", event.B(true)), pubsub.Le("n", event.I(-9)), pubsub.Prefix("user", "b<"))
	for _, msg := range []wire.Message{
		&pubsub.PubMsg{Event: ev}, &pubsub.PubMsg{}, &pubsub.DeliverMsg{Event: ev},
		&pubsub.SubMsg{Filter: flt}, &pubsub.UnsubMsg{Filter: flt},
		&pubsub.SubMsg{}, &pubsub.UnsubMsg{}, nil,
	} {
		envs = append(envs, &wire.Envelope{From: ids.FromString("a"), To: ids.FromString("b"),
			CorrID: 5, IsReply: true, Err: "e<r>r", Msg: msg})
	}
	for _, env := range envs {
		frame, err := reg.Encode(env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	addFrameEndings(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFastAgainstReflection(t, reg, data)
	})
}

func FuzzBinaryDecode(f *testing.F) {
	reg, envs := seedEnvelopes(f)
	bin := wire.NewBinaryCodec(reg)
	for _, env := range envs {
		frame, err := bin.Encode(env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte{0xA7})
	f.Add([]byte{0xA7, 1, 0xFF})
	addFrameEndings(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := bin.Decode(data)
		if err != nil {
			return
		}
		if env == nil {
			t.Fatal("nil envelope with nil error")
		}
		// A successful decode must re-encode without panicking; errors are
		// tolerated (arbitrary decoded strings may not be XML-embeddable
		// through the fallback path).
		_, _ = bin.Encode(env)
	})
}
