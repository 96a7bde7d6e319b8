package transport

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/wire"
)

// sendBurst queues n echo messages a→to in one actor turn and returns
// when the receiver has counted them all and the sender every flush that
// carried them: the writer counts a flush after its bytes are on their
// way, so the receiver can get there first. Toward a peer not yet
// connected the dial is held until the whole burst is queued, as on a
// link slower to start than the burst is to queue, so the write loop's
// first drain sees all of it: a dialled connection's writer starts as
// soon as it connects, not when the turn ends.
func sendBurst(t *testing.T, a *Node, to ids.ID, n int, received *atomic.Uint64, want uint64) {
	t.Helper()
	a.Do(func() {
		p := a.peers[to]
		held := p.state == peerIdle
		if held {
			p.state = peerDialing
		}
		for i := 0; i < n; i++ {
			a.transmit(&wire.Envelope{From: a.ID(), To: to, Msg: &echoMsg{Text: fmt.Sprintf("burst-%d", i)}}, nil)
		}
		if held {
			p.state = peerIdle
			a.maybeDial(p)
		}
	})
	deadline := time.Now().Add(5 * time.Second)
	for received.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("received %d of %d", received.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
	for st := a.Stats(); st.FlushWrites+st.BatchedFrames < st.Sent; st = a.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("flushes never accounted for every frame sent: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWriteBatchingCoalesces: frames queued behind a slow link startup
// ride one writev; at fan-out (burst) ≥ 8 the connection sees at least
// 2x fewer writes than frames, every frame still arrives intact, and the
// flush/batch counters add up.
func TestWriteBatchingCoalesces(t *testing.T) {
	reg := testReg()
	a := newNode(t, "tcp-batch-a", reg)
	b := newNode(t, "tcp-batch-b", reg)
	a.AddPeer(b.ID(), b.Addr())
	var received atomic.Uint64
	b.Handle("test.echo", func(netapi.Ctx, ids.ID, wire.Message) { received.Add(1) })

	const burst = 16
	// The first burst queues entirely while the connection dials, so the
	// write loop's first drain sees the whole backlog.
	sendBurst(t, a, b.ID(), burst, &received, burst)

	st := a.Stats()
	if st.Sent != burst {
		t.Fatalf("Sent = %d, want %d", st.Sent, burst)
	}
	if st.FlushWrites == 0 {
		t.Fatalf("no flushes recorded: %+v", st)
	}
	if st.FlushWrites*2 > st.Sent {
		t.Fatalf("batching ineffective: %d flushes for %d frames (want ≥2x fewer writes)", st.FlushWrites, st.Sent)
	}
	if st.BatchedFrames != st.Sent-st.FlushWrites {
		t.Fatalf("counter identity broken: Batched=%d, Sent-Flushes=%d", st.BatchedFrames, st.Sent-st.FlushWrites)
	}
}

// TestWriterStartsWhileTheDialingCallbackRuns: frames one callback
// queues toward a peer it is still dialling start to flow before that
// callback returns, so a burst drains instead of piling into the outbox
// budget while the loop is busy.
func TestWriterStartsWhileTheDialingCallbackRuns(t *testing.T) {
	reg := testReg()
	a := newNode(t, "tcp-early-a", reg)
	b := newNode(t, "tcp-early-b", reg)
	a.AddPeer(b.ID(), b.Addr())
	var received atomic.Uint64
	b.Handle("test.echo", func(netapi.Ctx, ids.ID, wire.Message) { received.Add(1) })

	var seen bool
	onLoop(a, func() {
		for i := 0; i < 8; i++ {
			a.Send(b.ID(), &echoMsg{Text: fmt.Sprintf("early-%d", i)})
		}
		for deadline := time.Now().Add(5 * time.Second); received.Load() == 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		seen = received.Load() > 0
	})
	if !seen {
		t.Fatal("nothing queued toward a dialling peer arrived while the callback that queued it ran")
	}
}

// TestDisableBatchingReference holds the batched writer to what a
// one-frame-per-write sender would have put on the wire: under a burst
// several frames ride one flush, and the receiver still sees every
// payload, each once, in the order sent.
func TestDisableBatchingReference(t *testing.T) {
	reg := testReg()
	a := newNode(t, "tcp-nobatch-a", reg)
	b := newNode(t, "tcp-nobatch-b", reg)
	a.AddPeer(b.ID(), b.Addr())
	var (
		received atomic.Uint64
		got      []string // appended on b's actor loop, read after the last receive
	)
	b.Handle("test.echo", func(_ netapi.Ctx, _ ids.ID, msg wire.Message) {
		got = append(got, msg.(*echoMsg).Text)
		received.Add(1)
	})

	const burst = 16
	sendBurst(t, a, b.ID(), burst, &received, burst)

	if st := a.Stats(); st.FlushWrites >= st.Sent {
		t.Fatalf("%d flushes for %d frames, want more than one frame per flush under a burst", st.FlushWrites, st.Sent)
	}
	for i, text := range got {
		if want := fmt.Sprintf("burst-%d", i); text != want {
			t.Fatalf("frame %d carried %q, want %q (sent order)", i, text, want)
		}
	}
	if len(got) != burst {
		t.Fatalf("received %d frames, want %d", len(got), burst)
	}
}

// TestSendManySharedBody: multicast rounds reach every peer intact (the
// shared encoded body is stamped with per-peer headers) and in the order
// sent, and the sender's accounting is exact: every frame counted once as
// sent, none dropped, and the queue gauge back at zero once the peers
// have read it all. Each round is its own actor turn, and every fourth
// goes out as one Send per peer, so per-destination FIFO is held across
// turns and across both send shapes.
func TestSendManySharedBody(t *testing.T) {
	reg := testReg()
	a := newNode(t, "tcp-many-a", reg)
	const peers, rounds = 3, 200
	tos := make([]ids.ID, peers)
	seqs := make([][]int, peers) // each appended on its peer's actor loop
	var received atomic.Uint64
	for i := range tos {
		p := newNode(t, fmt.Sprintf("tcp-many-p%d", i), reg)
		tos[i] = p.ID()
		a.AddPeer(p.ID(), p.Addr())
		p.Handle("test.echo", func(_ netapi.Ctx, _ ids.ID, msg wire.Message) {
			var seq int
			if _, err := fmt.Sscanf(msg.(*echoMsg).Text, "multicast %d", &seq); err != nil {
				t.Errorf("peer %d got %q", i, msg.(*echoMsg).Text)
			}
			seqs[i] = append(seqs[i], seq)
			received.Add(1)
		})
	}
	for r := 0; r < rounds; r++ {
		msg := &echoMsg{Text: fmt.Sprint("multicast ", r)}
		a.Do(func() {
			if r%4 != 3 {
				a.SendMany(tos, msg)
				return
			}
			for _, to := range tos {
				a.Send(to, msg)
			}
		})
	}
	const want = peers * rounds
	deadline := time.Now().Add(10 * time.Second)
	for received.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("received %d of %d multicast copies", received.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
	for i, got := range seqs {
		for j, seq := range got {
			if seq != j {
				t.Fatalf("peer %d: copy %d is round %d (FIFO violated)", i, j, seq)
			}
		}
	}
	if st := a.Stats(); st.Sent != want || st.Dropped != 0 {
		t.Fatalf("Sent = %d, Dropped = %d; want %d and 0 (no frame lost or counted twice)", st.Sent, st.Dropped, want)
	}
	for queued := -1; queued != 0; time.Sleep(time.Millisecond) {
		onLoop(a, func() {
			queued = 0
			for _, to := range tos {
				queued += a.QueuedBytes(to)
			}
		})
		if queued != 0 && time.Now().After(deadline) {
			t.Fatalf("QueuedBytes = %d after every copy arrived, want 0", queued)
		}
	}
}

// BenchmarkTransportBatch pushes bursts of frames through a real TCP
// pair and reports writes per frame: ≪ 1, since a burst rides one writev.
func BenchmarkTransportBatch(b *testing.B) {
	reg := testReg()
	a, err := Listen(ids.FromString("bench-batch-a"), reg, Options{Region: "bench", Seed: 1})
	if err != nil {
		b.Fatalf("Listen: %v", err)
	}
	defer a.Close()
	dst, err := Listen(ids.FromString("bench-batch-b"), reg, Options{Region: "bench", Seed: 2})
	if err != nil {
		b.Fatalf("Listen: %v", err)
	}
	defer dst.Close()
	a.AddPeer(dst.ID(), dst.Addr())
	var received atomic.Uint64
	dst.Handle("test.echo", func(netapi.Ctx, ids.ID, wire.Message) { received.Add(1) })

	const burst = 16
	msg := &echoMsg{Text: "payload payload payload payload"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Do(func() {
			for j := 0; j < burst; j++ {
				a.transmit(&wire.Envelope{From: a.ID(), To: dst.ID(), Msg: msg}, nil)
			}
		})
		want := uint64((i + 1) * burst)
		for received.Load() < want {
			time.Sleep(50 * time.Microsecond)
		}
	}
	b.StopTimer()
	st := a.Stats()
	if st.Sent > 0 {
		b.ReportMetric(float64(st.FlushWrites)/float64(st.Sent), "writes/frame")
	}
}
