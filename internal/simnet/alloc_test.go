package simnet

import (
	"testing"
	"time"

	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/wire"
)

// requestBound is what one Request → Reply → callback round trip may
// allocate: the pending request (its own timeout task) and the request's
// ctx, which outlives the handler. Neither envelope allocates: the loop
// lends one it keeps, and the delivery batch copies it.
const requestBound = 2

// TestSimnetDeliveryAllocs: the simulator allocates nothing of its own to
// carry a message. A one-way Send → handler allocates nothing; a request
// round trip costs requestBound.
func TestSimnetDeliveryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds do not hold under -race")
	}
	w, a, b := twoNodeWorld(t, Config{Seed: 1})
	got, answer := 0, &pong{}
	b.Handle("test.ping", func(ctx netapi.Ctx, _ ids.ID, _ wire.Message) {
		got++
		ctx.Reply(answer)
	})
	msg := &ping{N: 1}
	send := func() {
		a.Send(b.ID(), msg)
		w.RunFor(20 * time.Millisecond)
	}
	send() // warm the maps and the spare batch
	if n := testing.AllocsPerRun(200, send); n != 0 {
		t.Errorf("one-way Send → handler: %.1f allocs, want 0", n)
	}
	replies := 0
	cb := func(reply wire.Message, err error) {
		if err == nil {
			replies++
		}
	}
	request := func() {
		a.Request(b.ID(), msg, time.Second, cb)
		w.RunFor(40 * time.Millisecond)
	}
	request()
	if n := testing.AllocsPerRun(200, request); n > requestBound {
		t.Errorf("Request → Reply → callback: %.1f allocs, want ≤ %d", n, requestBound)
	}
	// AllocsPerRun calls each function once more than it counts.
	if got != 404 || replies != 202 {
		t.Fatalf("%d deliveries and %d replies, want 404 and 202", got, replies)
	}
}

// TestDeferredReplyAnswersItsRequest: a handler that answers after it
// returns (the gateway's shape: the reply is sent from a store callback)
// still answers its own request, with one-way messages of the same kind
// delivered meanwhile.
func TestDeferredReplyAnswersItsRequest(t *testing.T) {
	w, a, b := twoNodeWorld(t, Config{Seed: 1})
	b.Handle("test.ping", func(ctx netapi.Ctx, _ ids.ID, msg wire.Message) {
		n := msg.(*ping).N
		b.Clock().After(time.Duration(10-n%10)*time.Millisecond, func() { ctx.Reply(&pong{N: n * 2}) })
	})
	got := map[int]int{}
	for i := 1; i <= 3; i++ {
		a.Send(b.ID(), &ping{N: 10 * i}) // one-way: its late Reply goes nowhere
		a.Request(b.ID(), &ping{N: i}, time.Second, func(reply wire.Message, err error) {
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			got[i] = reply.(*pong).N
		})
	}
	w.RunFor(time.Second)
	if len(got) != 3 || got[1] != 2 || got[2] != 4 || got[3] != 6 {
		t.Fatalf("replies %v, want map[1:2 2:4 3:6]", got)
	}
	if m := w.Metrics(); m.Sent != 9 {
		t.Fatalf("%d messages sent, want 6 requests and one-ways and 3 replies", m.Sent)
	}
}

// BenchmarkSimnetSend: one message through the simulator, one-way and as
// a request answered by its handler; allocs/op counts what the
// simulator allocates to carry them.
func BenchmarkSimnetSend(b *testing.B) {
	w := NewWorld(Config{Seed: 1})
	x := w.NewNode(ids.FromString("a"), "eu", netapi.Coord{})
	y := w.NewNode(ids.FromString("b"), "us", netapi.Coord{X: 1000})
	answer := &pong{}
	y.Handle("test.ping", func(ctx netapi.Ctx, _ ids.ID, _ wire.Message) { ctx.Reply(answer) })
	msg := &ping{N: 1}
	b.Run("one-way", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			x.Send(y.ID(), msg)
			w.RunFor(20 * time.Millisecond)
		}
	})
	b.Run("request", func(b *testing.B) {
		cb := func(wire.Message, error) {}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			x.Request(y.ID(), msg, time.Second, cb)
			w.RunFor(40 * time.Millisecond)
		}
	})
}
