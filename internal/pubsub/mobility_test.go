package pubsub

import (
	"testing"
	"time"

	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/simnet"
	"github.com/gloss/active/internal/wire"
)

// TestMobilityHandoffNoLoss reproduces the Mobikit behaviour (§3): a
// mobile client detaches, events published meanwhile are buffered by the
// proxy at its old broker, and all are replayed after re-attachment at a
// new broker — zero loss, zero duplicates.
func TestMobilityHandoffNoLoss(t *testing.T) {
	tn := newChain(20, 4, Options{})
	mobile := tn.addClient(0)
	pub := tn.addClient(3)
	var got []uint64
	mobile.Subscribe(NewFilter(TypeIs("t")), func(e *event.Event) {
		got = append(got, uint64(e.GetNum("seq")))
	})
	tn.settle()

	publish := func(seq uint64) {
		e := event.New("t", "pub", tn.world.Now()).Set("seq", event.I(int64(seq))).Stamp(seq)
		pub.Publish(e)
	}
	publish(1)
	tn.settle()

	// Disconnect; events 2..4 arrive while detached.
	mobile.Detach()
	tn.settle()
	publish(2)
	publish(3)
	publish(4)
	tn.settle()
	if len(got) != 1 {
		t.Fatalf("events leaked to detached client: %v", got)
	}

	// Re-attach at the far broker; buffered events must be replayed.
	var handoffErr error
	dropped := -1
	mobile.AttachTo(tn.brokers[3].ID(), 5*time.Second, func(d int, err error) {
		dropped = d
		handoffErr = err
	})
	tn.settle()
	if handoffErr != nil {
		t.Fatalf("handoff error: %v", handoffErr)
	}
	if dropped != 0 {
		t.Fatalf("proxy dropped %d events", dropped)
	}
	publish(5)
	tn.settle()

	// Network jitter may reorder the in-flight batch; require the full
	// set with 1 first (pre-detach) and 5 last (post-reattach).
	if len(got) != 5 {
		t.Fatalf("received %v, want 5 events", got)
	}
	if got[0] != 1 || got[4] != 5 {
		t.Fatalf("received %v, want 1 first and 5 last", got)
	}
	seen := map[uint64]bool{}
	for _, s := range got {
		seen[s] = true
	}
	for s := uint64(1); s <= 5; s++ {
		if !seen[s] {
			t.Fatalf("event %d lost: %v", s, got)
		}
	}
	if mobile.Duplicates != 0 {
		t.Fatalf("duplicates = %d, want 0", mobile.Duplicates)
	}
	// The old broker must no longer hold subscriptions for the client.
	if tn.brokers[0].Stats().TableEntries != 0 {
		// Note: broker 0 may retain the forwarded entry for broker 3's
		// direction — but client-dir entries must be gone.
		for _, ent := range tn.brokers[0].entries {
			for d := range ent.dirs {
				if !tn.brokers[0].neighbors[d] {
					t.Fatalf("old broker retains client subscription after handoff")
				}
			}
		}
	}
}

// TestMobilityWithoutProxyLosesEvents is the baseline for E-T9: a client
// that simply unsubscribes/resubscribes (no proxy) misses events published
// during the move.
func TestMobilityWithoutProxyLosesEvents(t *testing.T) {
	tn := newChain(21, 4, Options{})
	mobile := tn.addClient(0)
	pub := tn.addClient(3)
	count := 0
	f := NewFilter(TypeIs("t"))
	mobile.Subscribe(f, func(*event.Event) { count++ })
	tn.settle()

	// Naive move: unsubscribe, travel, resubscribe later.
	mobile.Unsubscribe(f)
	tn.settle()
	for seq := uint64(1); seq <= 3; seq++ {
		pub.Publish(event.New("t", "pub", tn.world.Now()).Stamp(seq))
	}
	tn.settle()
	mobile.broker = tn.brokers[3].ID()
	mobile.Subscribe(f, func(*event.Event) { count++ })
	tn.settle()
	if count != 0 {
		t.Fatalf("naive move should lose the 3 in-flight events, got %d", count)
	}
}

func TestProxyBufferOverflowDrops(t *testing.T) {
	tn := newChain(22, 2, Options{proxyBufferLimit: 2})
	mobile := tn.addClient(0)
	pub := tn.addClient(1)
	mobile.Subscribe(NewFilter(TypeIs("t")), func(*event.Event) {})
	tn.settle()
	mobile.Detach()
	tn.settle()
	for seq := uint64(1); seq <= 5; seq++ {
		pub.Publish(event.New("t", "pub", tn.world.Now()).Stamp(seq))
	}
	tn.settle()
	dropped := -1
	mobile.AttachTo(tn.brokers[1].ID(), 5*time.Second, func(d int, err error) { dropped = d })
	tn.settle()
	if dropped != 3 {
		t.Fatalf("dropped = %d, want 3 (buffer limit 2 of 5 events)", dropped)
	}
}

// TestProxyBufferFillDropAndOrderedReclaim pins down the proxy contract:
// the buffer holds exactly proxyBufferLimit events, every further match
// is counted as dropped (not silently lost), and the reclaim replays the
// retained prefix in publish order.
func TestProxyBufferFillDropAndOrderedReclaim(t *testing.T) {
	const limit = 4
	const published = 7
	tn := newChain(24, 2, Options{proxyBufferLimit: limit})
	mobile := tn.addClient(0)
	pub := tn.addClient(1)
	var got []int64
	mobile.Subscribe(NewFilter(TypeIs("t")), func(e *event.Event) {
		got = append(got, int64(e.GetNum("seq")))
	})
	tn.settle()
	mobile.Detach()
	tn.settle()
	for seq := uint64(1); seq <= published; seq++ {
		pub.Publish(event.New("t", "pub", tn.world.Now()).
			Set("seq", event.I(int64(seq))).Stamp(seq))
		tn.settle() // serialise arrivals so the buffer order is the publish order
	}
	// The proxy must be holding exactly the first `limit` events.
	p := tn.brokers[0].proxies[mobile.ep.ID()]
	if p == nil {
		t.Fatal("no proxy installed at the old broker after Detach")
	}
	if len(p.buf) != limit {
		t.Fatalf("proxy buffered %d events, want %d", len(p.buf), limit)
	}
	if p.dropped != published-limit {
		t.Fatalf("proxy counted %d drops, want %d", p.dropped, published-limit)
	}

	dropped := -1
	var rerr error
	mobile.AttachTo(tn.brokers[1].ID(), 5*time.Second, func(d int, err error) {
		dropped = d
		rerr = err
	})
	tn.settle()
	if rerr != nil {
		t.Fatalf("reclaim error: %v", rerr)
	}
	if dropped != published-limit {
		t.Fatalf("reclaim reported %d drops, want %d", dropped, published-limit)
	}
	// The retained prefix must be flushed in publish order.
	if len(got) != limit {
		t.Fatalf("replayed %d events, want %d: %v", len(got), limit, got)
	}
	for i, seq := range got {
		if seq != int64(i+1) {
			t.Fatalf("reclaim out of order: got %v, want 1..%d in order", got, limit)
		}
	}
	// The proxy must be gone after the reclaim.
	if _, still := tn.brokers[0].proxies[mobile.ep.ID()]; still {
		t.Fatal("proxy not removed after reclaim")
	}
}

// TestDetachIsIdempotent ensures a duplicate Detach (e.g. a retransmitted
// detach message) does not clear an already-buffering proxy.
func TestDetachIsIdempotent(t *testing.T) {
	tn := newChain(25, 2, Options{})
	mobile := tn.addClient(0)
	pub := tn.addClient(1)
	mobile.Subscribe(NewFilter(TypeIs("t")), func(*event.Event) {})
	tn.settle()
	mobile.Detach()
	tn.settle()
	pub.Publish(event.New("t", "pub", tn.world.Now()).Stamp(1))
	tn.settle()
	mobile.Detach() // duplicate
	tn.settle()
	p := tn.brokers[0].proxies[mobile.ep.ID()]
	if p == nil || len(p.buf) != 1 {
		t.Fatalf("duplicate detach clobbered the proxy buffer: %+v", p)
	}
}

// TestReclaimWithoutProxy covers a client attaching without ever having
// detached: the reclaim of a nonexistent proxy must answer cleanly with
// zero events and zero drops rather than stalling the handoff.
func TestReclaimWithoutProxy(t *testing.T) {
	tn := newChain(26, 2, Options{})
	mobile := tn.addClient(0)
	mobile.Subscribe(NewFilter(TypeIs("t")), func(*event.Event) {})
	tn.settle()
	dropped := -1
	var rerr error
	mobile.AttachTo(tn.brokers[1].ID(), 5*time.Second, func(d int, err error) {
		dropped = d
		rerr = err
	})
	tn.settle()
	if rerr != nil {
		t.Fatalf("handoff error without proxy: %v", rerr)
	}
	if dropped != 0 {
		t.Fatalf("dropped = %d, want 0", dropped)
	}
}

func TestReattachToSameBroker(t *testing.T) {
	tn := newChain(23, 2, Options{})
	mobile := tn.addClient(0)
	pub := tn.addClient(1)
	count := 0
	mobile.Subscribe(NewFilter(TypeIs("t")), func(*event.Event) { count++ })
	tn.settle()
	mobile.Detach()
	tn.settle()
	pub.Publish(event.New("t", "pub", 0).Stamp(1))
	tn.settle()
	done := false
	mobile.AttachTo(tn.brokers[0].ID(), 5*time.Second, func(int, error) { done = true })
	tn.settle()
	if !done {
		t.Fatalf("handoff completion callback did not fire")
	}
	// Same-broker reattach: the proxy is still holding the event; it is
	// reclaimed lazily on the next cross-broker move, or delivery resumes
	// for new events. New events must flow.
	pub.Publish(event.New("t", "pub", 0).Stamp(2))
	tn.settle()
	if count == 0 {
		t.Fatalf("no events after same-broker reattach")
	}
}

// TestReclaimReplyOfWrongShape: a broker that answers a reclaim with an
// empty reply, or with a message of another kind, fails the handoff with
// an error instead of panicking the client's actor loop.
func TestReclaimReplyOfWrongShape(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reply wire.Message
	}{{"empty", nil}, {"wrong-kind", &DetachMsg{}}} {
		t.Run(tc.name, func(t *testing.T) {
			w := simnet.NewWorld(simnet.Config{Seed: 1})
			broker := w.NewNode(ids.FromString("broker"), "eu", netapi.Coord{})
			broker.Handle("pubsub.reclaim", func(ctx netapi.Ctx, _ ids.ID, _ wire.Message) {
				ctx.Reply(tc.reply)
			})
			mobile := NewClient(w.NewNode(ids.FromString("mobile"), "eu", netapi.Coord{X: 100}), broker.ID())
			var handoffErr error
			done := false
			mobile.AttachTo(broker.ID(), 5*time.Second, func(_ int, err error) {
				done, handoffErr = true, err
			})
			w.RunFor(5 * time.Second)
			if !done || handoffErr == nil {
				t.Fatalf("handoff done=%v err=%v, want an error", done, handoffErr)
			}
		})
	}
}
