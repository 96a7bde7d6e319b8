package transport

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/leakcheck"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/pubsub"
	"github.com/gloss/active/internal/store"
	"github.com/gloss/active/internal/wire"
)

// TestHelloBackOnInboundConnection is hazard 3: hellos used to travel only
// on the dialer's connection, so a node that is never dialled back never
// learned that its peer speaks binary and kept sending it XML. b never
// sends to a here; once a's first message has opened the connection, b's
// hello must come back on it, and a's other 99 messages go binary.
func TestHelloBackOnInboundConnection(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	reg := testReg()
	a := newCodecNode(t, "tcp-helloback-a", reg, wire.CodecBinary)
	b := newCodecNode(t, "tcp-helloback-b", reg, wire.CodecBinary)
	a.AddPeer(b.ID(), b.Addr())
	got := make(chan string, 1)
	b.Handle("test.echo", func(_ netapi.Ctx, _ ids.ID, msg wire.Message) { got <- msg.(*echoMsg).Text })
	send := func(i int) {
		text := fmt.Sprint("one way ", i)
		onLoop(a, func() { a.Send(b.ID(), &echoMsg{Text: text}) })
		select {
		case s := <-got:
			if s != text {
				t.Fatalf("b got %q, want %q", s, text)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("message %d never arrived", i)
		}
	}
	send(0)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		var binOK bool
		onLoop(a, func() { binOK = a.peers[b.ID()].binary })
		if binOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("b's hello never reached a: a still takes b for an XML-only peer")
		}
	}
	for i := 1; i < 100; i++ {
		send(i)
	}
	if st := b.Stats(); st.Sent != 0 {
		t.Fatalf("b sent %d frames; the link under test must be one-way", st.Sent)
	}
	if st := a.Stats(); st.SentBinary != 99 {
		t.Fatalf("a sent %d of its last 99 frames binary to a peer that speaks binary", st.SentBinary)
	}
}

// TestOutboxCountsFramePairs: the budget counts a frame's head past its
// length prefix plus the body it borrows — what the contiguous frame used
// to count — and a frame leaves no reference to either half behind in the
// queue, whether the writer takes it or a dead link drops it.
func TestOutboxCountsFramePairs(t *testing.T) {
	ox := newOutbox(100, 50)
	head := func(n int) []byte { return make([]byte, lenPrefix+n) }
	for _, f := range []frame{{head(10), make([]byte, 30)}, {head(20), nil}, {head(5), make([]byte, 55)}} {
		if !ox.push(f, false) {
			t.Fatalf("push of a %d-byte frame refused below the high watermark", f.size())
		}
	}
	if got := ox.queuedBytes(); got != 120 {
		t.Fatalf("queuedBytes = %d, want 40+20+60", got)
	}
	if !ox.saturated() {
		t.Fatal("120 queued bytes must latch a 100-byte budget")
	}
	unqueued := func(what string) {
		t.Helper()
		for i, f := range ox.frames[len(ox.frames):cap(ox.frames)] {
			if f.head != nil || f.body != nil {
				t.Fatalf("%s: queue slot %d past the end still holds a frame", what, len(ox.frames)+i)
			}
		}
	}
	buf, total := ox.take(nil, 60)
	if len(buf) != 2 || total != 60 {
		t.Fatalf("take(60) = %d frames / %d bytes, want 2 / 60", len(buf), total)
	}
	unqueued("take")
	if ox.release(total) {
		t.Fatal("60 bytes still queued is above the low watermark")
	}
	if dropped, drained := ox.dropAll(); dropped != 1 || !drained {
		t.Fatalf("dropAll = %d, %v; want 1 frame and a drain", dropped, drained)
	}
	unqueued("dropAll")
	if got := ox.queuedBytes(); got != 0 {
		t.Fatalf("queuedBytes = %d after everything left, want 0", got)
	}
}

// sinkPeer is a peer that reads and discards whatever it is sent, known to
// n as speaking its binary codec. Nothing it does allocates per frame, so
// the allocations around n's sends to it are the sender's.
func sinkPeer(t testing.TB, n *Node) ids.ID {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if conn, err := ln.Accept(); err == nil {
			_, _ = io.Copy(io.Discard, conn) // until n closes the connection
			_ = conn.Close()
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		_ = n.Close()
		wg.Wait()
	})
	id := ids.FromString("sink-" + t.Name())
	hello := &HelloMsg{ID: id.String(), Addr: ln.Addr().String(),
		Codecs: []string{wire.CodecXML, wire.CodecBinary}, KindsHash: n.bin.KindsHash()}
	n.Do(func() { n.mergeHello(hello) })
	n.Stats() // one trip through the actor loop: the hello is merged
	return id
}

// pushChunked sends body to `to` as store.sendChunked does, in one actor
// turn: a manifest, then one chunk frame per 64 KiB slice of the stored
// bytes. It returns once the outbox has written everything: it polls the
// outbox itself, which its writer shares, not the loop.
func pushChunked(n *Node, to ids.ID, body []byte) {
	const chunk = 64 << 10
	var ox *outbox
	onLoop(n, func() {
		n.Send(to, &store.ManifestMsg{Xfer: 1, GUID: "g", Purpose: 1, TotalLen: len(body), Chunk: chunk, Hash: 7})
		for off := 0; off < len(body); off += chunk {
			n.Send(to, &store.ChunkMsg{Xfer: 1, Off: off, Data: body[off:min(off+chunk, len(body))]})
		}
		ox = n.peers[to].ox
	})
	for ox.queuedBytes() > 0 {
		time.Sleep(50 * time.Microsecond)
	}
}

// TestSendChunkedAllocs: pushing a stored 512 KiB object in chunk frames
// allocates the frames' heads and envelopes on the sender, never the
// bytes it sends — those are borrowed from the object.
func TestSendChunkedAllocs(t *testing.T) {
	n, err := Listen(ids.FromString("tcp-chunk-allocs"), testReg(), Options{Seed: 1, Codec: wire.CodecBinary})
	if err != nil {
		t.Fatal(err)
	}
	sink := sinkPeer(t, n)
	body := make([]byte, 512<<10)
	rand.New(rand.NewSource(9)).Read(body)
	const runs = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	allocs := testing.AllocsPerRun(runs, func() { pushChunked(n, sink, body) })
	runtime.ReadMemStats(&m1)
	perPush := (m1.TotalAlloc - m0.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
	t.Logf("one chunked 512 KiB push: %.0f allocs, %d B", allocs, perPush)
	if perPush >= 4<<10 && !raceEnabled {
		t.Fatalf("a chunked 512 KiB push allocates %d B on the sender, want < 4 KiB", perPush)
	}
	if st := n.Stats(); st.SentBinary != st.Sent {
		t.Fatalf("%d of %d frames binary: the test measured the wrong codec", st.SentBinary, st.Sent)
	}
}

// TestSendManyOfOneAllocsAsSend: a SendMany to one destination has no
// body to share, so it is a Send — it allocates no more than Send does
// (no SharedBody, no split encode) and queues the same frame, on both
// codecs. The peer is parked mid-dial: frames queue and nothing writes
// them, so the count is the sender's alone and the queue holds the bytes.
// The test measures on the actor loop, where sends run.
func TestSendManyOfOneAllocsAsSend(t *testing.T) {
	for _, codec := range []string{wire.CodecXML, wire.CodecBinary} {
		t.Run(codec, func(t *testing.T) {
			reg := testReg()
			pubsub.RegisterMessages(reg)
			n, err := Listen(ids.FromString("tcp-many-of-one-"+codec), reg, Options{Seed: 1, Codec: codec})
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			to := ids.FromString("parked-peer")
			hash := n.bin.KindsHash()
			n.Do(func() {
				n.mergeHello(&HelloMsg{ID: to.String(), Addr: "127.0.0.1:1",
					Codecs: []string{wire.CodecXML, wire.CodecBinary}, KindsHash: hash})
			})
			msg := &pubsub.DeliverMsg{Event: event.New("hot", "sensor-1", 0).
				Set("user", event.S("user-1")).Set("x", event.F(4.5)).Stamp(1)}
			tos := []ids.ID{to}
			var (
				p          *peer
				send, many float64
				frames     []frame
			)
			onLoop(n, func() {
				if p = n.peers[to]; !p.binary {
					t.Error("binary not negotiated with the parked peer")
				}
				p.state = peerDialing
				send = testing.AllocsPerRun(100, func() { n.Send(to, msg); p.ox.dropAll() })
				many = testing.AllocsPerRun(100, func() { n.SendMany(tos, msg); p.ox.dropAll() })
				n.Send(to, msg)
				n.SendMany(tos, msg)
			})
			t.Logf("Send %.0f allocs, SendMany of one %.0f", send, many)
			if many > send && !raceEnabled {
				t.Errorf("SendMany to one peer allocates %.0f, Send %.0f", many, send)
			}
			frames, _ = p.ox.take(nil, 1<<30)
			if len(frames) != 2 {
				t.Fatalf("%d frames queued, want 2", len(frames))
			}
			one := append(append([]byte(nil), frames[0].head...), frames[0].body...)
			two := append(append([]byte(nil), frames[1].head...), frames[1].body...)
			if !bytes.Equal(one, two) {
				t.Fatalf("SendMany of one queued %x, Send %x", two, one)
			}
		})
	}
}

// BenchmarkSendChunk is TestSendChunkedAllocs as a benchmark: run it with
// -benchmem, where B/op is what the sender allocates per 512 KiB pushed.
func BenchmarkSendChunk(b *testing.B) {
	n, err := Listen(ids.FromString("bench-send-chunk"), testReg(), Options{Seed: 1, Codec: wire.CodecBinary})
	if err != nil {
		b.Fatal(err)
	}
	sink := sinkPeer(b, n)
	body := make([]byte, 512<<10)
	rand.New(rand.NewSource(9)).Read(body)
	pushChunked(n, sink, body) // dial
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pushChunked(n, sink, body)
	}
}

// TestSharedBodiesUnderConcurrentWriters: frames to eight binary peers
// borrow one SendMany body and, sent one by one as replica pushes are, one
// stored object. The eight peers' writer goroutines then read the same
// bytes at once; run under -race, nothing may write them, and every peer
// receives every copy intact. Each round is one actor turn, so writers
// take frames while later rounds are queued.
func TestSharedBodiesUnderConcurrentWriters(t *testing.T) {
	reg := testReg()
	a := newCodecNode(t, "tcp-sharedbody-a", reg, wire.CodecBinary)
	const peers, rounds = 8, 40
	stored := make([]byte, 4<<10)
	rand.New(rand.NewSource(3)).Read(stored)
	var received atomic.Uint64
	tos := make([]ids.ID, peers)
	for i := range tos {
		p := newCodecNode(t, fmt.Sprint("tcp-sharedbody-", i), reg, wire.CodecBinary)
		tos[i] = p.ID()
		a.AddPeer(p.ID(), p.Addr())
		check := func(data []byte) {
			if !bytes.Equal(data, stored) {
				t.Errorf("peer %d: a body arrived changed", i)
			}
			received.Add(1)
		}
		p.Handle("store.replicate", func(_ netapi.Ctx, _ ids.ID, msg wire.Message) { check(msg.(*store.ReplicateMsg).Data) })
		p.Handle("store.cacheFill", func(_ netapi.Ctx, _ ids.ID, msg wire.Message) { check(msg.(*store.CacheFillMsg).Data) })
		hello := &HelloMsg{ID: p.ID().String(), Addr: p.Addr(), Codecs: []string{wire.CodecXML, wire.CodecBinary}, KindsHash: reg.KindsHash()}
		a.Do(func() { a.mergeHello(hello) })
	}
	a.Stats() // one trip through the actor loop: the hellos are merged
	for r := 0; r < rounds; r++ {
		a.Do(func() {
			a.SendMany(tos, &store.ReplicateMsg{GUID: "fan-out", Data: stored})
			for _, to := range tos {
				a.Send(to, &store.CacheFillMsg{GUID: "stored", Data: stored})
			}
		})
	}
	deadline := time.Now().Add(10 * time.Second)
	for received.Load() < 2*peers*rounds {
		if time.Now().After(deadline) {
			t.Fatalf("received %d of %d copies", received.Load(), 2*peers*rounds)
		}
		time.Sleep(time.Millisecond)
	}
	if st := a.Stats(); st.SentBinary != st.Sent || st.Dropped != 0 {
		t.Fatalf("want every frame sent binary and none dropped: %+v", st)
	}
}
