package simnet

import (
	"testing"
	"time"

	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/pubsub"
	"github.com/gloss/active/internal/wire"
)

// pubWorld runs one PubMsg a→b under the given codec and returns metrics.
func pubWorld(t *testing.T, cfg Config) Metrics {
	t.Helper()
	w := NewWorld(cfg)
	a := w.NewNode(ids.FromString("a"), "eu", netapi.Coord{})
	b := w.NewNode(ids.FromString("b"), "eu", netapi.Coord{})
	b.Handle("pubsub.pub", func(netapi.Ctx, ids.ID, wire.Message) {})
	ev := event.New("gps.location", "gps", 0).
		Set("user", event.S("bob")).
		Set("x", event.F(4.5)).
		Stamp(1)
	a.Send(b.ID(), &pubsub.PubMsg{Event: ev})
	w.RunFor(time.Second)
	return w.Metrics()
}

func pubsubReg() *wire.Registry {
	reg := wire.NewRegistry()
	pubsub.RegisterMessages(reg)
	return reg
}

func TestBinaryCodecAccountsFewerBytes(t *testing.T) {
	reg := pubsubReg()
	mXML := pubWorld(t, Config{Seed: 1, Codec: reg})
	mBin := pubWorld(t, Config{Seed: 1, Codec: wire.NewBinaryCodec(reg)})
	if mXML.Bytes == 0 || mBin.Bytes == 0 {
		t.Fatalf("bytes not accounted: xml=%d bin=%d", mXML.Bytes, mBin.Bytes)
	}
	if mBin.Bytes*3 > mXML.Bytes {
		t.Fatalf("binary (%dB) should be ≤ 1/3 of XML (%dB) for a small event publish",
			mBin.Bytes, mXML.Bytes)
	}
	if mXML.Delivered != mBin.Delivered {
		t.Fatalf("codec choice changed delivery: %d vs %d", mXML.Delivered, mBin.Delivered)
	}
}

func TestTypedNilCodecSkipsAccounting(t *testing.T) {
	var nilReg *wire.Registry
	m := pubWorld(t, Config{Seed: 1, Codec: nilReg}) // typed nil in the interface
	if m.Bytes != 0 {
		t.Fatalf("typed-nil codec accounted %d bytes", m.Bytes)
	}
	if m.Sent == 0 || m.Delivered == 0 {
		t.Fatalf("plain counters should still run: %+v", m)
	}
}

func TestSetCodecAfterConstruction(t *testing.T) {
	reg := pubsubReg()
	w := NewWorld(Config{Seed: 1})
	w.SetCodec(reg)
	a := w.NewNode(ids.FromString("a"), "eu", netapi.Coord{})
	b := w.NewNode(ids.FromString("b"), "eu", netapi.Coord{})
	b.Handle("pubsub.pub", func(netapi.Ctx, ids.ID, wire.Message) {})
	a.Send(b.ID(), &pubsub.PubMsg{Event: event.New("t", "s", 0).Stamp(1)})
	w.RunFor(time.Second)
	if w.Metrics().Bytes == 0 {
		t.Fatal("SetCodec did not enable byte accounting")
	}
	w.SetCodec(nil)
	before := w.Metrics().Bytes
	a.Send(b.ID(), &pubsub.PubMsg{Event: event.New("t", "s", 0).Stamp(2)})
	w.RunFor(time.Second)
	if w.Metrics().Bytes != before {
		t.Fatal("SetCodec(nil) did not stop byte accounting")
	}
}
