package transport

import (
	"testing"
	"time"

	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/wire"
)

func newCodecNode(t *testing.T, name string, reg *wire.Registry, codec string) *Node {
	t.Helper()
	n, err := Listen(ids.FromString(name), reg, Options{Region: "test", Seed: 1, Codec: codec})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { _ = n.Close() })
	return n
}

// roundTrip sends one request a→b and waits for the reply.
func roundTrip(t *testing.T, a, b *Node, text string) {
	t.Helper()
	done := make(chan string, 1)
	a.Request(b.ID(), &echoMsg{Text: text}, 5*time.Second, func(reply wire.Message, err error) {
		if err != nil {
			done <- "err: " + err.Error()
			return
		}
		done <- reply.(*echoMsg).Text
	})
	select {
	case s := <-done:
		if s != "re: "+text {
			t.Fatalf("reply = %q", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request never completed")
	}
}

// TestBinaryCodecNegotiated: two nodes preferring the binary codec
// settle on it after exchanging hellos. The first request still travels
// as XML (the dialer has not heard the peer's hello yet); once both
// address books carry the capability, traffic switches to binary frames.
func TestBinaryCodecNegotiated(t *testing.T) {
	reg := testReg()
	a := newCodecNode(t, "tcp-bin-a", reg, wire.CodecBinary)
	b := newCodecNode(t, "tcp-bin-b", reg, wire.CodecBinary)
	a.AddPeer(b.ID(), b.Addr())
	b.AddPeer(a.ID(), a.Addr())
	b.Handle("test.echo", func(ctx netapi.Ctx, _ ids.ID, msg wire.Message) {
		ctx.Reply(&echoMsg{Text: "re: " + msg.(*echoMsg).Text})
	})
	roundTrip(t, a, b, "one") // b learns a's capability from a's hello
	roundTrip(t, a, b, "two") // a has b's hello by now: binary both ways
	deadline := time.Now().Add(5 * time.Second)
	for {
		sa, sb := a.Stats(), b.Stats()
		if sa.SentBinary >= 1 && sb.SentBinary >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("binary codec never negotiated: a=%+v b=%+v", sa, sb)
		}
		roundTrip(t, a, b, "again")
	}
}

// TestMixedCodecFallsBackToXML: a binary-preferring node keeps every
// frame XML toward a peer that did not opt in, and vice versa — the
// deployment interoperates with zero binary frames on the wire.
func TestMixedCodecFallsBackToXML(t *testing.T) {
	reg := testReg()
	a := newCodecNode(t, "tcp-mix-a", reg, wire.CodecBinary)
	b := newCodecNode(t, "tcp-mix-b", reg, wire.CodecXML)
	a.AddPeer(b.ID(), b.Addr())
	b.AddPeer(a.ID(), a.Addr())
	b.Handle("test.echo", func(ctx netapi.Ctx, _ ids.ID, msg wire.Message) {
		ctx.Reply(&echoMsg{Text: "re: " + msg.(*echoMsg).Text})
	})
	for _, text := range []string{"one", "two", "three"} {
		roundTrip(t, a, b, text)
	}
	if sa := a.Stats(); sa.SentBinary != 0 {
		t.Fatalf("a sent %d binary frames to an XML-only peer", sa.SentBinary)
	}
	if sb := b.Stats(); sb.SentBinary != 0 {
		t.Fatalf("b sent %d binary frames despite preferring XML", sb.SentBinary)
	}
}

// TestCodecRegistryMismatchStaysXML: differing registries hash apart, so
// the binary fast path (whose interned kind ids depend on an identical
// sorted kind table) is never engaged even when both nodes prefer it.
func TestCodecRegistryMismatchStaysXML(t *testing.T) {
	regA := testReg()
	regB := testReg()
	regB.Register(&extraMsg{}) // perturb b's kind table
	a := newCodecNode(t, "tcp-hash-a", regA, wire.CodecBinary)
	b := newCodecNode(t, "tcp-hash-b", regB, wire.CodecBinary)
	a.AddPeer(b.ID(), b.Addr())
	b.AddPeer(a.ID(), a.Addr())
	b.Handle("test.echo", func(ctx netapi.Ctx, _ ids.ID, msg wire.Message) {
		ctx.Reply(&echoMsg{Text: "re: " + msg.(*echoMsg).Text})
	})
	for _, text := range []string{"one", "two", "three"} {
		roundTrip(t, a, b, text)
	}
	if sa, sb := a.Stats(), b.Stats(); sa.SentBinary != 0 || sb.SentBinary != 0 {
		t.Fatalf("binary frames sent across mismatched registries: a=%d b=%d",
			sa.SentBinary, sb.SentBinary)
	}
}

func TestListenRejectsUnknownCodec(t *testing.T) {
	if _, err := Listen(ids.FromString("x"), testReg(), Options{Codec: "protobuf"}); err == nil {
		t.Fatal("want error for unknown codec")
	}
}

type extraMsg struct{}

func (extraMsg) Kind() string { return "test.extra" }
