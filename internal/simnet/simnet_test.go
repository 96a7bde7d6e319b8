package simnet

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/wire"
)

type ping struct {
	N int `xml:"n"`
}

func (ping) Kind() string { return "test.ping" }

type pong struct {
	N int `xml:"n"`
}

func (pong) Kind() string { return "test.pong" }

func twoNodeWorld(t *testing.T, cfg Config) (*World, *Node, *Node) {
	t.Helper()
	w := NewWorld(cfg)
	a := w.NewNode(ids.FromString("a"), "eu", netapi.Coord{X: 0, Y: 0})
	b := w.NewNode(ids.FromString("b"), "us", netapi.Coord{X: 1000, Y: 0})
	return w, a, b
}

func TestSendDeliversWithLatency(t *testing.T) {
	w, a, b := twoNodeWorld(t, Config{Seed: 1, Jitter: 1})
	var gotAt time.Duration
	var gotFrom ids.ID
	b.Handle("test.ping", func(_ netapi.Ctx, from ids.ID, msg wire.Message) {
		gotAt = w.Now()
		gotFrom = from
	})
	a.Send(b.ID(), &ping{N: 7})
	w.RunFor(time.Second)
	if gotFrom != a.ID() {
		t.Fatalf("from = %v, want %v", gotFrom, a.ID())
	}
	// base 1ms + 1000km * 10µs/km = 11ms (+ <=1ns jitter)
	want := 11 * time.Millisecond
	if gotAt < want || gotAt > want+time.Millisecond {
		t.Fatalf("delivered at %v, want ~%v", gotAt, want)
	}
}

func TestRequestReply(t *testing.T) {
	w, a, b := twoNodeWorld(t, Config{Seed: 1})
	b.Handle("test.ping", func(ctx netapi.Ctx, _ ids.ID, msg wire.Message) {
		p := msg.(*ping)
		ctx.Reply(&pong{N: p.N * 2})
	})
	var got int
	var gotErr error
	a.Request(b.ID(), &ping{N: 21}, time.Second, func(reply wire.Message, err error) {
		gotErr = err
		if err == nil {
			got = reply.(*pong).N
		}
	})
	w.RunFor(time.Second)
	if gotErr != nil {
		t.Fatalf("request error: %v", gotErr)
	}
	if got != 42 {
		t.Fatalf("reply = %d, want 42", got)
	}
}

func TestRequestTimeout(t *testing.T) {
	w, a, b := twoNodeWorld(t, Config{Seed: 1})
	// b has no handler: request must time out.
	var gotErr error
	calls := 0
	a.Request(b.ID(), &ping{N: 1}, 50*time.Millisecond, func(_ wire.Message, err error) {
		calls++
		gotErr = err
	})
	w.RunFor(time.Second)
	if calls != 1 {
		t.Fatalf("callback ran %d times, want 1", calls)
	}
	if !errors.Is(gotErr, netapi.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", gotErr)
	}
}

func TestRequestErrReply(t *testing.T) {
	w, a, b := twoNodeWorld(t, Config{Seed: 1})
	b.Handle("test.ping", func(ctx netapi.Ctx, _ ids.ID, _ wire.Message) {
		ctx.ReplyErr(errors.New("no such object"))
	})
	var gotErr error
	a.Request(b.ID(), &ping{N: 1}, time.Second, func(_ wire.Message, err error) { gotErr = err })
	w.RunFor(time.Second)
	if gotErr == nil || gotErr.Error() != "no such object" {
		t.Fatalf("err = %v, want transported remote error", gotErr)
	}
}

func TestDeadNodeDropsTraffic(t *testing.T) {
	w, a, b := twoNodeWorld(t, Config{Seed: 1})
	delivered := 0
	b.Handle("test.ping", func(netapi.Ctx, ids.ID, wire.Message) { delivered++ })
	b.Kill()
	a.Send(b.ID(), &ping{})
	w.RunFor(time.Second)
	if delivered != 0 {
		t.Fatalf("dead node received a message")
	}
	b.Revive()
	a.Send(b.ID(), &ping{})
	w.RunFor(time.Second)
	if delivered != 1 {
		t.Fatalf("revived node did not receive; delivered=%d", delivered)
	}
}

func TestKillSuppressesTimers(t *testing.T) {
	w, a, _ := twoNodeWorld(t, Config{Seed: 1})
	fired := false
	a.Clock().After(10*time.Millisecond, func() { fired = true })
	a.Kill()
	w.RunFor(time.Second)
	if fired {
		t.Fatalf("timer fired on dead node")
	}
}

func TestPartition(t *testing.T) {
	w, a, b := twoNodeWorld(t, Config{Seed: 1})
	delivered := 0
	b.Handle("test.ping", func(netapi.Ctx, ids.ID, wire.Message) { delivered++ })
	w.Partition([]ids.ID{a.ID()}, []ids.ID{b.ID()})
	a.Send(b.ID(), &ping{})
	w.RunFor(time.Second)
	if delivered != 0 {
		t.Fatalf("message crossed partition")
	}
	w.SetLinkFilter(nil)
	a.Send(b.ID(), &ping{})
	w.RunFor(time.Second)
	if delivered != 1 {
		t.Fatalf("message blocked after heal; delivered=%d", delivered)
	}
}

func TestLossRate(t *testing.T) {
	w, a, b := twoNodeWorld(t, Config{Seed: 42, LossRate: 0.5})
	delivered := 0
	b.Handle("test.ping", func(netapi.Ctx, ids.ID, wire.Message) { delivered++ })
	const sent = 1000
	for i := 0; i < sent; i++ {
		a.Send(b.ID(), &ping{N: i})
	}
	w.RunFor(time.Minute)
	if delivered < 400 || delivered > 600 {
		t.Fatalf("delivered %d of %d with 50%% loss; outside [400,600]", delivered, sent)
	}
	m := w.Metrics()
	if m.Sent != sent {
		t.Fatalf("metrics.Sent = %d, want %d", m.Sent, sent)
	}
	if m.Delivered != uint64(delivered) {
		t.Fatalf("metrics.Delivered = %d, want %d", m.Delivered, delivered)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, time.Duration) {
		w := NewWorld(Config{Seed: 7, LossRate: 0.1, Jitter: time.Millisecond})
		a := w.NewNode(ids.FromString("a"), "eu", netapi.Coord{})
		b := w.NewNode(ids.FromString("b"), "us", netapi.Coord{X: 5000})
		var last time.Duration
		b.Handle("test.ping", func(ctx netapi.Ctx, _ ids.ID, _ wire.Message) {
			last = w.Now()
			ctx.Reply(&pong{})
		})
		for i := 0; i < 100; i++ {
			a.Request(b.ID(), &ping{N: i}, time.Second, func(wire.Message, error) {})
		}
		w.RunFor(10 * time.Second)
		return w.Metrics().Delivered, last
	}
	d1, t1 := run()
	d2, t2 := run()
	if d1 != d2 || t1 != t2 {
		t.Fatalf("simulation not deterministic: (%d,%v) vs (%d,%v)", d1, t1, d2, t2)
	}
}

func TestByteAccounting(t *testing.T) {
	reg := wire.NewRegistry()
	reg.Register(&ping{})
	w := NewWorld(Config{Seed: 1, Codec: reg})
	a := w.NewNode(ids.FromString("a"), "eu", netapi.Coord{})
	b := w.NewNode(ids.FromString("b"), "eu", netapi.Coord{})
	b.Handle("test.ping", func(netapi.Ctx, ids.ID, wire.Message) {})
	a.Send(b.ID(), &ping{N: 1})
	w.RunFor(time.Second)
	if w.Metrics().Bytes == 0 {
		t.Fatalf("no bytes accounted with codec configured")
	}
}

func TestUnhandledCounted(t *testing.T) {
	w, a, b := twoNodeWorld(t, Config{Seed: 1})
	a.Send(b.ID(), &ping{})
	w.RunFor(time.Second)
	if w.Metrics().Unhandled != 1 {
		t.Fatalf("Unhandled = %d, want 1", w.Metrics().Unhandled)
	}
}

func TestDeliveryBatchingCoalesces(t *testing.T) {
	// Without jitter every message of a burst lands at the same instant
	// and the same destination: one scheduler flush carries them all.
	w, a, b := twoNodeWorld(t, Config{Seed: 1, DisableJitter: true})
	order := make([]int, 0, 16)
	b.Handle("test.ping", func(_ netapi.Ctx, _ ids.ID, msg wire.Message) {
		order = append(order, msg.(*ping).N)
	})
	const burst = 16
	for i := 0; i < burst; i++ {
		a.Send(b.ID(), &ping{N: i})
	}
	w.RunFor(time.Second)
	m := w.Metrics()
	if m.Delivered != burst || m.Sent != burst {
		t.Fatalf("Sent/Delivered = %d/%d, want %d/%d (message counts must not change)", m.Sent, m.Delivered, burst, burst)
	}
	if m.FlushEvents != 1 {
		t.Fatalf("FlushEvents = %d, want 1 (one batch for a same-deadline burst)", m.FlushEvents)
	}
	if m.BatchedMsgs != burst-1 {
		t.Fatalf("BatchedMsgs = %d, want %d", m.BatchedMsgs, burst-1)
	}
	for i, n := range order {
		if n != i {
			t.Fatalf("batched delivery reordered: %v", order)
		}
	}
}

// TestBatchedEnvelopesKeepTheirOwnFields: the loop lends every send the
// same envelope, so a batch must hold what it was lent by value. Two
// requests one callback sends to one destination ride one batch, and
// each arrives with its own message and is answered under its own
// correlation ID.
func TestBatchedEnvelopesKeepTheirOwnFields(t *testing.T) {
	w, a, b := twoNodeWorld(t, Config{Seed: 1, DisableJitter: true})
	var asked []int
	b.Handle("test.ping", func(ctx netapi.Ctx, _ ids.ID, msg wire.Message) {
		n := msg.(*ping).N
		asked = append(asked, n)
		ctx.Reply(&pong{N: 10 * n})
	})
	got := map[int]int{}
	a.Clock().After(time.Millisecond, func() {
		for _, n := range []int{1, 2} {
			a.Request(b.ID(), &ping{N: n}, time.Second, func(reply wire.Message, err error) {
				if err != nil {
					t.Errorf("request %d: %v", n, err)
					return
				}
				got[n] = reply.(*pong).N
			})
		}
	})
	w.RunFor(2 * time.Second)
	if !reflect.DeepEqual(asked, []int{1, 2}) {
		t.Fatalf("handler saw %v, want [1 2]", asked)
	}
	if !reflect.DeepEqual(got, map[int]int{1: 10, 2: 20}) {
		t.Fatalf("replies %v, want map[1:10 2:20]", got)
	}
	if m := w.Metrics(); m.BatchedMsgs != 2 {
		t.Fatalf("BatchedMsgs = %d, want 2: the requests and their replies each share a batch", m.BatchedMsgs)
	}
}

// TestLinkKeepsSendOrder: two messages sent back to back on one jittered
// link are handled in the order they were sent, as on a TCP connection,
// though jitter draws each its own delay.
func TestLinkKeepsSendOrder(t *testing.T) {
	w, a, b := twoNodeWorld(t, Config{Seed: 1})
	var got []int
	b.Handle("test.ping", func(_ netapi.Ctx, _ ids.ID, msg wire.Message) { got = append(got, msg.(*ping).N) })
	const pairs = 100
	for i := range pairs {
		a.Clock().After(time.Duration(i)*time.Millisecond, func() {
			a.Send(b.ID(), &ping{N: 2 * i})
			a.Send(b.ID(), &ping{N: 2*i + 1})
		})
	}
	w.RunFor(time.Second)
	if len(got) != 2*pairs {
		t.Fatalf("delivered %d of %d", len(got), 2*pairs)
	}
	for i, n := range got {
		if n != i {
			t.Fatalf("delivery %d is message %d: the link reordered a back-to-back pair", i, n)
		}
	}
}

func TestJitterKeepsBatchesApart(t *testing.T) {
	// With jitter on, a burst's deadlines differ except where jitter would
	// land a message ahead of its predecessor, which then lands with it:
	// every message is one flush or rides in one, and semantics are
	// unchanged.
	w, a, b := twoNodeWorld(t, Config{Seed: 1})
	delivered := 0
	b.Handle("test.ping", func(netapi.Ctx, ids.ID, wire.Message) { delivered++ })
	const burst = 16
	for i := 0; i < burst; i++ {
		a.Send(b.ID(), &ping{N: i})
	}
	w.RunFor(time.Second)
	if delivered != burst {
		t.Fatalf("delivered %d of %d", delivered, burst)
	}
	m := w.Metrics()
	if m.FlushEvents+m.BatchedMsgs != burst {
		t.Fatalf("flush accounting broken: FlushEvents=%d BatchedMsgs=%d", m.FlushEvents, m.BatchedMsgs)
	}
}

func TestSendManyShares(t *testing.T) {
	w := NewWorld(Config{Seed: 3, DisableJitter: true})
	a := w.NewNode(ids.FromString("many-a"), "eu", netapi.Coord{})
	msg := &ping{N: 9}
	var tos []ids.ID
	got := 0
	for i := 0; i < 4; i++ {
		n := w.NewNode(ids.FromString(string(rune('b'+i))), "eu", netapi.Coord{X: 10})
		tos = append(tos, n.ID())
		n.Handle("test.ping", func(_ netapi.Ctx, _ ids.ID, m wire.Message) {
			if m.(*ping) != msg {
				t.Errorf("multicast did not share the message value")
			}
			got++
		})
	}
	a.SendMany(tos, msg)
	w.RunFor(time.Second)
	if got != 4 {
		t.Fatalf("delivered %d of 4 multicast copies", got)
	}
}

func TestKillMidBatchDropsRemainder(t *testing.T) {
	// A handler killing its own node while a batch drains: the already-
	// running flush must drop the remaining messages, same as the
	// unbatched path would at that virtual instant.
	w, a, b := twoNodeWorld(t, Config{Seed: 1, DisableJitter: true})
	delivered := 0
	b.Handle("test.ping", func(netapi.Ctx, ids.ID, wire.Message) {
		delivered++
		b.Kill()
	})
	for i := 0; i < 8; i++ {
		a.Send(b.ID(), &ping{N: i})
	}
	w.RunFor(time.Second)
	if delivered != 1 {
		t.Fatalf("delivered %d, want 1 (kill must stop the batch)", delivered)
	}
	if m := w.Metrics(); m.Dropped != 7 {
		t.Fatalf("Dropped = %d, want 7", m.Dropped)
	}
}

func TestLatencyEstimate(t *testing.T) {
	w, a, b := twoNodeWorld(t, Config{Seed: 1})
	want := time.Millisecond + 10*time.Millisecond // base + 1000km*10µs
	if got := w.Latency(a.ID(), b.ID()); got != want {
		t.Fatalf("Latency = %v, want %v", got, want)
	}
}

// TestSelfSendOutsideCallbacks: a send to self made between RunFor steps
// runs at the start of the next step, at the instant it was made and
// ahead of anything due then, and counts in no metric. A node runs
// nothing it sent itself before it died or while it was dead, then or
// after a revive; what it sends itself once back runs.
func TestSelfSendOutsideCallbacks(t *testing.T) {
	w, a, _ := twoNodeWorld(t, Config{Seed: 1})
	var got []string
	a.Handle("test.ping", func(_ netapi.Ctx, from ids.ID, msg wire.Message) {
		if from != a.ID() {
			t.Errorf("self-send from %s, want %s", from.Short(), a.ID().Short())
		}
		got = append(got, fmt.Sprintf("ping %d at %v", msg.(*ping).N, w.Now()))
	})
	w.RunFor(5 * time.Millisecond)
	a.Clock().After(0, func() { got = append(got, "timer due now") })
	a.Send(a.ID(), &ping{N: 1})
	a.Send(a.ID(), &ping{N: 2})
	w.RunFor(0)
	want := []string{"ping 1 at 5ms", "ping 2 at 5ms", "timer due now"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ran %q, want %q", got, want)
	}
	if m := w.Metrics(); m.Sent != 0 || m.Delivered != 0 || len(m.ByKind) != 0 {
		t.Fatalf("sends to self counted: %+v", m)
	}

	got = nil
	a.Send(a.ID(), &ping{N: 3})
	a.Kill()
	w.RunFor(time.Millisecond)
	a.Send(a.ID(), &ping{N: 4})
	a.Revive()
	w.RunFor(time.Millisecond)
	a.Send(a.ID(), &ping{N: 5})
	w.RunFor(time.Millisecond)
	if want := []string{"ping 5 at 7ms"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("across a kill and a revive ran %q, want %q", got, want)
	}
}

// TestReplyFromWrongPeerIgnored: a reply answers a request only when it
// comes from the peer asked. A third node that sends a reply carrying
// the asker's next correlation ID, ahead of the real answer, completes
// nothing; the request ends with the real reply, or with its timeout
// when there is none.
func TestReplyFromWrongPeerIgnored(t *testing.T) {
	for _, answer := range []bool{true, false} {
		w, a, b := twoNodeWorld(t, Config{Seed: 1})
		c := w.NewNode(ids.FromString("c"), "eu", netapi.Coord{X: 10})
		b.Handle("test.ping", func(ctx netapi.Ctx, _ ids.ID, msg wire.Message) {
			if answer {
				ctx.Reply(&pong{N: msg.(*ping).N * 2})
			}
		})
		var got []string
		a.Request(b.ID(), &ping{N: 21}, 500*time.Millisecond, func(reply wire.Message, err error) {
			if err != nil {
				got = append(got, fmt.Sprintf("%v at %v", err, w.Now()))
				return
			}
			got = append(got, fmt.Sprintf("pong %d", reply.(*pong).N))
		})
		forged := &wire.Envelope{From: c.ID(), To: a.ID(), CorrID: 1, IsReply: true, Msg: &pong{N: -1}}
		w.transmit(c, forged, nil)
		w.RunFor(time.Second)
		want := []string{"pong 42"}
		if !answer {
			want = []string{fmt.Sprintf("%v at %v", netapi.ErrTimeout, 500*time.Millisecond)}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("answer=%v: callbacks %q, want %q", answer, got, want)
		}
	}
}
