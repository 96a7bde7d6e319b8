package event

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/gloss/active/internal/wire"
)

// randValue draws a value of every kind, the zero Value included, with
// payloads on both sides of the varint length boundaries.
func randValue(rng *rand.Rand) Value {
	switch rng.Intn(6) {
	case 0:
		return Value{}
	case 1:
		return S(strings.Repeat("x", rng.Intn(300)))
	case 2:
		return I([]int64{0, -1, 63, -64, 64, math.MaxInt64, math.MinInt64, rng.Int63() - rng.Int63()}[rng.Intn(8)])
	case 3:
		return F([]float64{0, math.NaN(), math.Inf(-1), rng.NormFloat64()}[rng.Intn(4)])
	case 4:
		return B(rng.Intn(2) == 0)
	default:
		return Value{K: Kind(rng.Intn(int(KindBool) + 1))} // a kind with its zero payload
	}
}

// randWireEvent draws an event whose strings, time and attribute count
// cross the one- and two-byte varint boundaries.
func randWireEvent(rng *rand.Rand) *Event {
	str := func() string { return strings.Repeat("s", []int{0, 1, 127, 128, 200, 20000}[rng.Intn(6)]) }
	e := New(str(), str(), time.Duration(rng.Int63()-rng.Int63()))
	e.SetBody(str())
	for i := rng.Intn(140); i > 0; i-- {
		e.Set(strings.Repeat("a", 1+rng.Intn(130)), randValue(rng))
	}
	return e.Stamp(uint64(rng.Int63()))
}

// TestWireSizeMatchesAppendWire holds the sizes the binary codec counts
// frames by to the bytes AppendWire writes, for values of every kind and
// events of every shape.
func TestWireSizeMatchesAppendWire(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for i := 0; i < 2000; i++ {
		v := randValue(rng)
		if got, want := v.WireSize(), len(v.AppendWire(nil)); got != want {
			t.Fatalf("%#v: WireSize %d, AppendWire writes %d", v, got, want)
		}
	}
	if got, want := WireSizePtr(nil), len(AppendWirePtr(nil, nil)); got != want {
		t.Fatalf("nil event: WireSizePtr %d, AppendWirePtr writes %d", got, want)
	}
	for i := 0; i < 300; i++ {
		e := randWireEvent(rng)
		if got, want := e.WireSize(), len(e.AppendWire(nil)); got != want {
			t.Fatalf("event %d (%d attrs): WireSize %d, AppendWire writes %d", i, len(e.Attrs), got, want)
		}
		if got, want := WireSizePtr(e), len(AppendWirePtr(nil, e)); got != want {
			t.Fatalf("event %d: WireSizePtr %d, AppendWirePtr writes %d", i, got, want)
		}
	}
}

// FuzzEventWireSize: every event the binary decoder accepts has the size
// AppendWire writes for it.
func FuzzEventWireSize(f *testing.F) {
	seed := New("alert", strings.Repeat("s", 130), -42*time.Millisecond)
	seed.Set("user", S("alice")).Set("temp", I(math.MinInt64)).Set("x", F(2.5)).Set("ok", B(true)).Set("none", Value{})
	f.Add(seed.AppendWire(nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var e Event
		if err := e.ParseWire(wire.NewBinReader(data)); err != nil {
			return
		}
		if got, want := e.WireSize(), len(e.AppendWire(nil)); got != want {
			t.Fatalf("WireSize %d, AppendWire writes %d", got, want)
		}
	})
}
