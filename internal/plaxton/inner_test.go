package plaxton

import (
	"bytes"
	"encoding/xml"
	"math/rand"
	"testing"
	"time"

	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/simnet"
	"github.com/gloss/active/internal/wire"
)

// blobMsg is a routed payload with a binary form (probeMsg has none, so
// it stays on the XML fallback even on binary-codec nodes). Both of its
// decoders count, which lets a test say how often a route was decoded.
type blobMsg struct {
	Tag  string     `xml:"tag,attr"`
	Data wire.Bytes `xml:"data"`
}

var blobDecodes int // tests here run on one goroutine

func (blobMsg) Kind() string { return "test.blob" }

func (m *blobMsg) AppendWire(b []byte) []byte {
	return wire.AppendBytes(wire.AppendString(b, m.Tag), m.Data)
}

func (m *blobMsg) ParseWire(r *wire.BinReader) error {
	blobDecodes++
	m.Tag, m.Data = r.String(), r.Bytes()
	return r.Err()
}

func (m *blobMsg) UnmarshalXML(d *xml.Decoder, start xml.StartElement) error {
	blobDecodes++
	type plain blobMsg // without this method
	return d.DecodeElement((*plain)(m), &start)
}

// TestMixedCodecRouting: the ring alternates XML- and binary-codec nodes
// (buildRing), so routes cross both kinds of hop in both directions. Every
// payload must reach the true root intact, and the payload is decoded once
// at the root and nowhere else — zero times when the origin is the root.
func TestMixedCodecRouting(t *testing.T) {
	const n, routes = 24, 120
	r := buildRing(t, 21, n, Options{HeartbeatInterval: -1})
	rng := rand.New(rand.NewSource(22))
	type arrival struct {
		at   ids.ID
		hops int
		msg  *blobMsg
	}
	got := make(map[ids.ID]arrival)
	for _, o := range r.overlays {
		o.OnDeliver("test.blob", func(info RouteInfo, msg wire.Message) {
			got[info.Key] = arrival{o.ID(), info.Hops, msg.(*blobMsg)}
		})
	}
	blobDecodes = 0
	sent := make(map[ids.ID]*blobMsg)
	for i := 0; i < routes; i++ {
		key, body := ids.Random(rng), make([]byte, 1+rng.Intn(3000))
		rng.Read(body)
		sent[key] = &blobMsg{Tag: key.Short(), Data: body}
		if err := r.overlays[i%n].Route(key, sent[key]); err != nil {
			t.Fatal(err)
		}
	}
	r.world.RunFor(30 * time.Second)
	remote, xmlOrigin, binOrigin := 0, 0, 0
	for key, want := range sent {
		a, ok := got[key]
		if !ok {
			t.Fatalf("route to %s not delivered", key.Short())
		}
		if a.at != r.trueRoot(key) {
			t.Errorf("route to %s delivered at %s, not its root", key.Short(), a.at.Short())
		}
		if a.msg.Tag != want.Tag || !bytes.Equal(a.msg.Data, want.Data) {
			t.Errorf("route to %s: payload changed on the way", key.Short())
		}
		if a.hops == 0 {
			if a.msg != want {
				t.Errorf("origin is root for %s, yet the handler got a re-decoded copy", key.Short())
			}
			continue
		}
		remote++
	}
	for i := range r.overlays {
		if r.overlays[i].binary {
			binOrigin++
		} else {
			xmlOrigin++
		}
	}
	if xmlOrigin == 0 || binOrigin == 0 || remote < routes/2 {
		t.Fatalf("setup: %d xml nodes, %d binary nodes, %d remote routes", xmlOrigin, binOrigin, remote)
	}
	if blobDecodes != remote {
		t.Fatalf("%d payload decodes for %d routes that left their origin, want one each", blobDecodes, remote)
	}
}

// TestForwardHookPerKind: a hook sees only the kind it was registered
// for, and a hop with a hook decodes the payload once for hook and
// delivery together — one decode per network hop, none at the origin.
func TestForwardHookPerKind(t *testing.T) {
	const n = 24
	r := buildRing(t, 23, n, Options{HeartbeatInterval: -1})
	rng := rand.New(rand.NewSource(24))
	delivered := 0
	var probeHops uint64
	for _, o := range r.overlays {
		o.OnDeliver("test.blob", func(RouteInfo, wire.Message) { delivered++ })
		o.OnDeliver("test.probe", func(info RouteInfo, _ wire.Message) { delivered++; probeHops += uint64(info.Hops) })
		o.SetForwardHook("test.blob", func(_ RouteInfo, msg wire.Message) bool {
			if _, ok := msg.(*blobMsg); !ok {
				t.Errorf("the test.blob hook was shown a %T", msg)
			}
			return false
		})
	}
	var before uint64
	for _, o := range r.overlays {
		before += o.Stats().Forwarded
	}
	blobDecodes = 0
	for i := 0; i < 60; i++ {
		if err := r.overlays[i%n].Route(ids.Random(rng), &blobMsg{Tag: "b"}); err != nil {
			t.Fatal(err)
		}
		if err := r.overlays[i%n].Route(ids.Random(rng), &probeMsg{Tag: "p"}); err != nil {
			t.Fatal(err)
		}
	}
	r.world.RunFor(30 * time.Second)
	if delivered != 120 {
		t.Fatalf("delivered %d of 120", delivered)
	}
	var hops uint64
	for _, o := range r.overlays {
		hops += o.Stats().Forwarded
	}
	if blobHops := hops - before - probeHops; uint64(blobDecodes) != blobHops || blobHops == 0 {
		t.Fatalf("%d payload decodes over %d hops of hooked routes, want one per hop", blobDecodes, blobHops)
	}
}

// fuzzOverlay is a lone node — the root of every key — with a handler
// and a hook for both test kinds, fed RouteMsgs as if from a neighbour.
func fuzzOverlay(codec string, seen func(wire.Message)) *Overlay {
	w := simnet.NewWorld(simnet.Config{Seed: 1})
	o := New(w.NewNode(ids.FromString("fuzz-root"), "r", netapi.Coord{}), testRegistry(), codec, Options{HeartbeatInterval: -1})
	o.CreateNetwork()
	for _, kind := range []string{"test.blob", "test.probe"} {
		o.OnDeliver(kind, func(_ RouteInfo, msg wire.Message) { seen(msg) })
		o.SetForwardHook(kind, func(_ RouteInfo, msg wire.Message) bool { seen(msg); return false })
	}
	return o
}

// FuzzRouteInner: whatever bytes arrive as a routed payload, under
// whatever kind, a hop neither panics nor hands a handler a message of
// another kind, and nothing it decodes is larger than the payload was.
func FuzzRouteInner(f *testing.F) {
	origin := ids.FromString("elsewhere")
	xmlNode := fuzzOverlay(wire.CodecXML, nil)
	good := &blobMsg{Tag: "t", Data: wire.Bytes("payload")}
	binInner, _ := fuzzOverlay(wire.CodecBinary, nil).encodeInner(good)
	xmlInner, _ := xmlNode.encodeInner(good)
	probeInner, _ := xmlNode.encodeInner(&probeMsg{Tag: "p"})
	f.Add("test.blob", binInner)
	f.Add("test.blob", xmlInner)
	f.Add("test.probe", probeInner)
	f.Add("test.blob", probeInner) // kind and payload disagree
	f.Add("test.probe", binInner)  // no binary form
	f.Add("no.such.kind", binInner)
	f.Add("test.blob", []byte{wire.BinaryMagic, 0xff, 0xff, 0xff, 0xff, 0x0f}) // length past the frame
	f.Add("test.blob", []byte{})
	f.Fuzz(func(t *testing.T, kind string, inner []byte) {
		o := fuzzOverlay(wire.CodecXML, func(msg wire.Message) {
			if msg.Kind() != kind {
				t.Fatalf("a %q handler was given a %q", kind, msg.Kind())
			}
			if bm, ok := msg.(*blobMsg); ok && len(bm.Tag)+len(bm.Data) > len(inner) {
				t.Fatalf("decoded %d bytes out of a %d-byte payload", len(bm.Tag)+len(bm.Data), len(inner))
			}
		})
		o.handleRoute(nil, origin, &RouteMsg{
			Key: ids.FromString("k").String(), Origin: origin.String(), InnerKind: kind, Inner: inner,
		})
	})
}

// BenchmarkRouteDeliver routes a 4 KiB payload from a node that is not
// the key's root on a two-node binary-codec ring: encode at the origin,
// one hop, one decode and the delivery upcall at the root.
func BenchmarkRouteDeliver(b *testing.B) {
	w := simnet.NewWorld(simnet.Config{Seed: 31})
	reg := testRegistry()
	var pair [2]*Overlay
	for i := range pair {
		node := w.NewNode(ids.FromString(string(rune('a'+i))), "r", netapi.Coord{X: float64(i)})
		pair[i] = New(node, reg, wire.CodecBinary, Options{HeartbeatInterval: -1})
		pair[i].OnDeliver("test.blob", func(RouteInfo, wire.Message) {})
	}
	pair[0].CreateNetwork()
	pair[1].Join(pair[0].ID(), nil)
	w.RunFor(5 * time.Second)
	key := pair[1].ID() // rooted at the other node
	msg := &blobMsg{Tag: "bench", Data: make([]byte, 4<<10)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pair[0].Route(key, msg); err != nil {
			b.Fatal(err)
		}
		w.RunFor(time.Second)
	}
	b.StopTimer()
	if got := pair[1].Stats().Delivered; got != uint64(b.N) {
		b.Fatalf("delivered %d of %d", got, b.N)
	}
}
