package plaxton

import (
	"bytes"
	"testing"

	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/wire"
)

// FuzzRouteMsgParseWire drives the overlay's envelope decoder — the
// message every routed payload travels inside — with arbitrary frames:
// it must never panic, and accepted messages must round-trip
// byte-stably.
func FuzzRouteMsgParseWire(f *testing.F) {
	seed := &RouteMsg{
		Key:       "0123abcd",
		Origin:    "n1",
		Hops:      2,
		Path:      []string{"n1", "n2"},
		InnerKind: "put",
		Inner:     wire.Bytes("payload"),
	}
	f.Add([]byte(seed.AppendWire(nil)))
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x6B})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m RouteMsg
		if err := m.ParseWire(wire.NewBinReader(data)); err != nil {
			return
		}
		first := m.AppendWire(nil)
		var re RouteMsg
		if err := re.ParseWire(wire.NewBinReader(first)); err != nil {
			t.Fatalf("re-decode of canonical form failed: %v", err)
		}
		if second := re.AppendWire(nil); !bytes.Equal(first, second) {
			t.Fatalf("encode not a fixed point:\n first=%x\nsecond=%x", first, second)
		}
	})
}

// FuzzJoinStateParseWire drives the join protocol's two decoders, hop
// numbers included, with arbitrary frames: each must never panic, and a
// message either accepts must round-trip byte-stably.
func FuzzJoinStateParseWire(f *testing.F) {
	n := func(name string) ids.ID { return ids.FromString(name) }
	f.Add((&JoinMsg{Joiner: n("n0"), Hop: 2}).AppendWire(nil))
	f.Add((&StateMsg{From: n("n1"), Hop: 3, Done: true, Leaves: []ids.ID{n("n2")}, Table: []ids.ID{n("n3"), n("n4")}}).AppendWire(nil))
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x6B, 0x7F})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fresh := range []func() wire.BinaryMessage{
			func() wire.BinaryMessage { return &JoinMsg{} },
			func() wire.BinaryMessage { return &StateMsg{} },
		} {
			m := fresh()
			if err := m.ParseWire(wire.NewBinReader(data)); err != nil {
				continue
			}
			first := m.AppendWire(nil)
			re := fresh()
			if err := re.ParseWire(wire.NewBinReader(first)); err != nil {
				t.Fatalf("%s: re-decode of canonical form failed: %v", m.Kind(), err)
			}
			if second := re.AppendWire(nil); !bytes.Equal(first, second) {
				t.Fatalf("%s: encode not a fixed point:\n first=%x\nsecond=%x", m.Kind(), first, second)
			}
		}
	})
}
