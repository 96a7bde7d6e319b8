package core

import (
	"strings"
	"testing"
	"time"

	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/pubsub"
	"github.com/gloss/active/internal/wire"
)

// bootBytes measures the simulated traffic of one world boot (overlay
// joins, broker wiring, settle) under the given byte-accounting codec.
// The workload is identical across codecs by determinism, so only the
// accounting differs.
func bootBytes(t *testing.T, codec string) uint64 {
	t.Helper()
	w, err := NewWorld(WorldConfig{
		Seed:  5,
		Nodes: 4,
		Codec: codec,
		Node:  NodeConfig{AdvertInterval: -1},
	})
	if err != nil {
		t.Fatalf("NewWorld(codec=%q): %v", codec, err)
	}
	return w.Sim.Metrics().Bytes
}

func TestWorldCodecChoice(t *testing.T) {
	// Default: no codec configured, no byte accounting.
	w, err := NewWorld(WorldConfig{Seed: 5, Nodes: 4, Node: NodeConfig{AdvertInterval: -1}})
	if err != nil {
		t.Fatal(err)
	}
	w.RunFor(2 * time.Second)
	if b := w.Sim.Metrics().Bytes; b != 0 {
		t.Fatalf("default world accounted %d bytes without a codec", b)
	}

	xmlBytes := bootBytes(t, wire.CodecXML)
	binBytes := bootBytes(t, wire.CodecBinary)
	if xmlBytes == 0 || binBytes == 0 {
		t.Fatalf("no bytes accounted: xml=%d bin=%d", xmlBytes, binBytes)
	}
	if binBytes*2 >= xmlBytes {
		t.Fatalf("binary world traffic (%dB) should be well under half of XML (%dB)",
			binBytes, xmlBytes)
	}

	if _, err := NewWorld(WorldConfig{Seed: 5, Nodes: 2, Codec: "carrier-pigeon"}); err == nil {
		t.Fatal("unknown codec should be rejected")
	}
}

// TestNodeCodecDefaultsWorldCodec: setting only NodeConfig.Codec flows
// into the world's byte accounting via applyDefaults.
func TestNodeCodecDefaultsWorldCodec(t *testing.T) {
	w, err := NewWorld(WorldConfig{
		Seed:  5,
		Nodes: 4,
		Node:  NodeConfig{AdvertInterval: -1, Codec: wire.CodecBinary},
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Sim.Metrics().Bytes == 0 {
		t.Fatal("NodeConfig.Codec did not enable byte accounting")
	}
}

// TestSizedKindsCountTheirFrames holds the binary codec's Size, which
// counts a wire.SizedMessage without encoding it, to the frame Encode
// writes for every registered kind that is one: empty and event-bearing
// bodies, with and without a correlation ID and an error text.
func TestSizedKindsCountTheirFrames(t *testing.T) {
	reg := wire.NewRegistry()
	RegisterMessages(reg)
	codec := wire.NewBinaryCodec(reg)
	ev := event.New("gps.location", "gps", 3*time.Second).
		Set("user", event.S("bob")).Set("x", event.F(4.5)).Set("n", event.I(-300)).Set("ok", event.B(true)).
		Stamp(9)
	sized := 0
	for _, kind := range reg.Kinds() {
		msg, err := reg.New(kind)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := msg.(wire.SizedMessage); !ok {
			continue
		}
		sized++
		msgs := []wire.Message{msg}
		switch msg.(type) {
		case *pubsub.PubMsg:
			msgs = append(msgs, &pubsub.PubMsg{Event: ev})
		case *pubsub.DeliverMsg:
			msgs = append(msgs, &pubsub.DeliverMsg{Event: ev})
		}
		for _, m := range msgs {
			for _, env := range []*wire.Envelope{
				{Msg: m},
				{Msg: m, CorrID: 1 << 40, IsReply: true, Err: strings.Repeat("e", 200)},
			} {
				frame, err := codec.Encode(env)
				if err != nil {
					t.Fatalf("%s: %v", kind, err)
				}
				if n, err := codec.Size(env, nil); err != nil || n != len(frame) {
					t.Fatalf("%s: Size = %d, %v; the frame is %d bytes", kind, n, err, len(frame))
				}
			}
		}
	}
	if sized < 4 {
		t.Fatalf("%d sized kinds registered, want at least pub, deliver, ping and pong", sized)
	}
}
