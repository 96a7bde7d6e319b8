package transport

import (
	"encoding/xml"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/wire"
)

// ctlMsg is a control-marked test message (wire.ControlMessage).
type ctlMsg struct {
	Text string `xml:"text,attr"`
}

func (ctlMsg) Kind() string  { return "test.ctl" }
func (ctlMsg) Control() bool { return true }

// badMsg cannot be XML-encoded (chan fields are unmarshalable), for the
// encode-failure drop path.
type badMsg struct {
	C chan int
}

func (badMsg) Kind() string { return "test.bad" }

// panicMsg panics if any codec ever tries to marshal it — proof the
// send path checked routability before paying the encode.
type panicMsg struct{}

func (panicMsg) Kind() string { return "test.panic" }

func (panicMsg) MarshalXML(*xml.Encoder, xml.StartElement) error {
	panic("encode must not be reached")
}

// sized is a contiguous frame the byte budget counts as n bytes.
func sized(n int) frame { return frame{head: make([]byte, lenPrefix+n)} }

// TestOutboxWatermarks drives the queue structure directly through an
// accept→saturate→drain cycle.
func TestOutboxWatermarks(t *testing.T) {
	ox := newOutbox(100, 50)
	frame := sized(60)

	if !ox.push(frame, false) {
		t.Fatal("first push below high watermark must be accepted")
	}
	// 60 queued < 100: still accepting; this push crosses the watermark.
	if !ox.push(frame, false) {
		t.Fatal("push while below high watermark must be accepted even if it overshoots")
	}
	if !ox.saturated() {
		t.Fatal("crossing the high watermark must latch saturation")
	}
	if ox.push(frame, false) {
		t.Fatal("push at/above high watermark must be dropped")
	}
	if got := ox.queuedBytes(); got != 120 {
		t.Fatalf("queuedBytes = %d, want 120", got)
	}

	// Control frames are exempt up to the hard cap (2x high = 200).
	if !ox.push(frame, true) {
		t.Fatal("control push must be exempt from the byte budget")
	}
	if !ox.push(frame, true) { // 180 < 200
		t.Fatal("control push below hard cap must be accepted")
	}
	if ox.push(frame, true) { // 240 >= 200
		t.Fatal("control push at hard cap must be refused")
	}

	// Drain: bytes stay counted between take and release.
	buf, total := ox.take(nil, 1<<20)
	if len(buf) != 4 || total != 240 {
		t.Fatalf("take = %d frames / %d bytes, want 4 / 240", len(buf), total)
	}
	if got := ox.queuedBytes(); got != 240 {
		t.Fatalf("in-flight bytes must stay on the gauge, got %d", got)
	}
	if ox.release(120) {
		t.Fatal("release above low watermark must not report a drain")
	}
	if !ox.release(120) {
		t.Fatal("release to/below low watermark after saturation must report a drain")
	}
	if ox.saturated() {
		t.Fatal("drain must clear saturation")
	}
	if ox.release(0) {
		t.Fatal("drain must be reported exactly once per saturation episode")
	}
}

// TestOutboxOversizedFrame: a frame larger than the whole budget still
// sends on an empty queue, and take always drains at least one frame.
func TestOutboxOversizedFrame(t *testing.T) {
	ox := newOutbox(100, 50)
	if !ox.push(sized(500), false) {
		t.Fatal("oversized frame on an empty queue must be accepted")
	}
	if ox.push(sized(1), false) {
		t.Fatal("queue over budget must drop")
	}
	buf, total := ox.take(nil, 64)
	if len(buf) != 1 || total != 500 {
		t.Fatalf("take must return the oversized frame, got %d frames / %d bytes", len(buf), total)
	}
}

// TestTransmitNoAddrSkipsEncodeAndPeerMap: sends to unroutable
// destinations are dropped before the encode is paid (the panicMsg
// marshaller would panic) and never grow the peer map.
func TestTransmitNoAddrSkipsEncodeAndPeerMap(t *testing.T) {
	reg := testReg()
	a := newNode(t, "tcp-noaddr-a", reg)
	unknown := ids.FromString("tcp-noaddr-ghost")

	for i := 0; i < 3; i++ {
		a.Send(unknown, &panicMsg{})
	}
	peers := make(chan int, 1)
	a.Do(func() { peers <- len(a.peers) })
	if got := <-peers; got != 0 {
		t.Fatalf("peer map grew to %d entries for an unroutable destination, want 0", got)
	}
	st := a.Stats()
	if st.DroppedNoAddr != 3 || st.Dropped != 3 {
		t.Fatalf("DroppedNoAddr = %d, Dropped = %d, want 3, 3", st.DroppedNoAddr, st.Dropped)
	}
}

// TestTransmitEncodeFailureCounted: unencodable messages land in
// DroppedEncode, not a catch-all.
func TestTransmitEncodeFailureCounted(t *testing.T) {
	reg := testReg()
	a := newNode(t, "tcp-badenc-a", reg)
	b := newNode(t, "tcp-badenc-b", reg)
	a.AddPeer(b.ID(), b.Addr())

	a.Send(b.ID(), &badMsg{C: make(chan int)})
	st := a.Stats()
	if st.DroppedEncode != 1 || st.Dropped != 1 {
		t.Fatalf("DroppedEncode = %d, Dropped = %d, want 1, 1", st.DroppedEncode, st.Dropped)
	}
}

// TestWatermarkTransitions exercises the full accept→drop→drain cycle
// through transmit against a peer held in the dialing state (so nothing
// drains), then releases the link and asserts every accepted frame
// arrives and the drain callback fires.
func TestWatermarkTransitions(t *testing.T) {
	reg := testReg()
	reg.Register(&ctlMsg{})
	a, err := Listen(ids.FromString("tcp-wm-a"), reg, Options{
		Region: "test", Seed: 1,
		OutboxHighWater: 600, OutboxLowWater: 100,
	})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { _ = a.Close() })
	b := newNode(t, "tcp-wm-b", reg)
	a.AddPeer(b.ID(), b.Addr())

	var received atomic.Uint64
	count := func(netapi.Ctx, ids.ID, wire.Message) { received.Add(1) }
	b.Handle("test.echo", count)
	b.Handle("test.ctl", count)

	var drains atomic.Uint64
	a.OnDrain(func(to ids.ID) {
		if to == b.ID() {
			drains.Add(1)
		}
	})

	// Hold the peer in the dialing state so pushes queue without
	// draining; frames are ~100 B XML envelopes, so the 600-byte budget
	// accepts a handful and then saturates.
	park := make(chan struct{})
	a.Do(func() {
		a.peers[b.ID()].state.Store(peerDialing)
		close(park)
	})
	<-park

	const sends = 20
	a.Do(func() {
		for i := 0; i < sends; i++ {
			a.transmit(&wire.Envelope{From: a.ID(), To: b.ID(),
				Msg: &echoMsg{Text: fmt.Sprintf("wm-%02d", i)}}, nil)
		}
	})
	st := a.Stats()
	if st.DroppedOverflow == 0 {
		t.Fatalf("no overflow drops despite %d sends against a 600-byte budget: %+v", sends, st)
	}
	if st.Sent == 0 {
		t.Fatalf("every send dropped; watermark should admit frames below the budget: %+v", st)
	}
	if st.Sent+st.DroppedOverflow != sends {
		t.Fatalf("Sent (%d) + DroppedOverflow (%d) != %d sends", st.Sent, st.DroppedOverflow, sends)
	}
	sat := make(chan bool, 1)
	a.Do(func() { sat <- a.Saturated(b.ID()) })
	if !<-sat {
		t.Fatal("Saturated must latch while over the high watermark")
	}

	// Control frames are exempt from the budget.
	a.Do(func() {
		a.transmit(&wire.Envelope{From: a.ID(), To: b.ID(), Msg: &ctlMsg{Text: "exempt"}}, nil)
	})
	st2 := a.Stats()
	if st2.Sent != st.Sent+1 {
		t.Fatalf("control frame was dropped on a saturated queue: %+v", st2)
	}

	// Release the link: the queued frames drain, the receiver gets every
	// accepted frame, and the drain callback fires.
	accepted := st2.Sent
	a.Do(func() {
		p := a.peers[b.ID()]
		p.state.Store(peerIdle)
		a.maybeDial(p)
	})
	deadline := time.Now().Add(5 * time.Second)
	for received.Load() < accepted {
		if time.Now().After(deadline) {
			t.Fatalf("received %d of %d accepted frames", received.Load(), accepted)
		}
		time.Sleep(time.Millisecond)
	}
	for drains.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("drain callback never fired after the queue emptied")
		}
		time.Sleep(time.Millisecond)
	}
	qb := make(chan int, 1)
	a.Do(func() { qb <- a.QueuedBytes(b.ID()) })
	if got := <-qb; got != 0 {
		t.Fatalf("QueuedBytes = %d after full drain, want 0", got)
	}
}

// TestRedialBackoffRecovers: frames queued while a dial is in flight
// must not be stranded by a dial failure — the redial backoff retries
// and delivers once the destination comes up.
func TestRedialBackoffRecovers(t *testing.T) {
	reg := testReg()
	// Reserve an address, then close the listener so the first dials
	// fail with a real connection-refused.
	b := newNode(t, "tcp-redial-b", reg)
	addr := b.Addr()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := Listen(ids.FromString("tcp-redial-a"), reg, Options{
		Region: "test", Seed: 1,
		redialBackoff: 20 * time.Millisecond, redialAttempts: 50,
	})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { _ = a.Close() })
	bID := ids.FromString("tcp-redial-b2")
	a.AddPeer(bID, addr)
	a.Send(bID, &echoMsg{Text: "parked"})

	// Let at least one dial fail, then bring the destination up at the
	// same address with the expected ID.
	deadline := time.Now().Add(5 * time.Second)
	for a.Stats().DialFails == 0 {
		if time.Now().After(deadline) {
			t.Fatal("dial never failed")
		}
		time.Sleep(time.Millisecond)
	}
	b2, err := Listen(bID, reg, Options{Listen: addr, Region: "test", Seed: 2})
	if err != nil {
		t.Fatalf("relisten on %s: %v", addr, err)
	}
	t.Cleanup(func() { _ = b2.Close() })
	got := make(chan string, 1)
	b2.Handle("test.echo", func(_ netapi.Ctx, _ ids.ID, msg wire.Message) {
		got <- msg.(*echoMsg).Text
	})
	select {
	case s := <-got:
		if s != "parked" {
			t.Fatalf("payload = %q", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked frame never delivered: redial did not recover it")
	}
}

// TestRedialExhaustionDrains: a permanently dead peer cannot park
// frames forever — after redialAttempts failures the queue is drained
// and the loss is attributed to DroppedDialFail.
func TestRedialExhaustionDrains(t *testing.T) {
	reg := testReg()
	a, err := Listen(ids.FromString("tcp-drain-a"), reg, Options{
		Region: "test", Seed: 1,
		redialBackoff: 5 * time.Millisecond, redialAttempts: 3,
	})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { _ = a.Close() })
	dead := ids.FromString("tcp-drain-dead")
	a.AddPeer(dead, "127.0.0.1:1") // nothing listens here
	const sends = 5
	for i := 0; i < sends; i++ {
		a.Send(dead, &echoMsg{Text: "doomed"})
	}
	deadline := time.Now().Add(5 * time.Second)
	for a.Stats().DroppedDialFail < sends {
		if time.Now().After(deadline) {
			t.Fatalf("stranded frames never drained: %+v", a.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	st := a.Stats()
	if st.DroppedDialFail != sends {
		t.Fatalf("DroppedDialFail = %d, want %d", st.DroppedDialFail, sends)
	}
	pending := make(chan int, 1)
	a.Do(func() { pending <- a.peers[dead].ox.pendingFrames() })
	if got := <-pending; got != 0 {
		t.Fatalf("%d frames still parked after redial exhaustion", got)
	}
}

// TestRehelloRetriesOnlyMissedPeers: when one connected peer's queue is
// at its hard cap, the rehello retry targets only that peer instead of
// re-broadcasting to everyone.
func TestRehelloRetriesOnlyMissedPeers(t *testing.T) {
	reg := testReg()
	a := newNode(t, "tcp-rh-a", reg)
	full := ids.FromString("tcp-rh-full")
	roomy := ids.FromString("tcp-rh-roomy")

	step := make(chan struct{})
	a.Do(func() {
		// Two fake-connected peers with no writer draining them: frame
		// counts are then exact.
		for _, id := range []ids.ID{full, roomy} {
			p := a.ensurePeer(id)
			p.addr = "127.0.0.1:1"
			p.state.Store(peerConnected)
		}
		// Saturate one queue past the control hard cap.
		pf := a.peers[full]
		for pf.ox.push(sized(1024), true) {
		}
		close(step)
	})
	<-step

	a.Do(func() { a.rehello() })
	counts := func() (f, r int) {
		ch := make(chan [2]int, 1)
		a.Do(func() {
			ch <- [2]int{a.peers[full].ox.pendingFrames(), a.peers[roomy].ox.pendingFrames()}
		})
		got := <-ch
		return got[0], got[1]
	}
	fullBase, roomyGot := counts()
	if roomyGot != 1 {
		t.Fatalf("roomy peer queued %d hellos after rehello, want 1", roomyGot)
	}

	// Free the saturated queue, then wait out the 100ms retry.
	a.Do(func() {
		pf := a.peers[full]
		buf, total := pf.ox.take(nil, 1<<30)
		pf.ox.release(total)
		_ = buf
	})
	deadline := time.Now().Add(5 * time.Second)
	for {
		fullGot, roomyAfter := counts()
		if fullGot == 1 && roomyAfter == 1 {
			break // retry reached only the peer that missed it
		}
		if roomyAfter > 1 {
			t.Fatalf("retry re-broadcast to a peer that already had the hello (%d queued)", roomyAfter)
		}
		if time.Now().After(deadline) {
			t.Fatalf("retry never delivered to the missed peer (full=%d→%d, roomy=%d)", fullBase, fullGot, roomyAfter)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestNoFrameLossBelowHighWatermark is the race-enabled stress check:
// concurrent senders below the byte budget must lose nothing — every
// frame is delivered and every drop counter stays zero.
func TestNoFrameLossBelowHighWatermark(t *testing.T) {
	reg := testReg()
	a, err := Listen(ids.FromString("tcp-stress-a"), reg, Options{
		Region: "test", Seed: 1, OutboxHighWater: 8 << 20,
	})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { _ = a.Close() })
	b := newNode(t, "tcp-stress-b", reg)
	a.AddPeer(b.ID(), b.Addr())
	var received atomic.Uint64
	b.Handle("test.echo", func(netapi.Ctx, ids.ID, wire.Message) { received.Add(1) })

	const (
		senders = 8
		perSend = 250
	)
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSend; i++ {
				a.Send(b.ID(), &echoMsg{Text: fmt.Sprintf("s%d-%d", g, i)})
			}
		}(g)
	}
	wg.Wait()
	const want = senders * perSend
	deadline := time.Now().Add(10 * time.Second)
	for received.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("received %d of %d frames below the high watermark", received.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
	st := a.Stats()
	if st.Dropped != 0 || st.DroppedOverflow != 0 || st.DroppedNoAddr != 0 ||
		st.DroppedEncode != 0 || st.DroppedDialFail != 0 {
		t.Fatalf("drops below the high watermark: %+v", st)
	}
	if st.Sent != want {
		t.Fatalf("Sent = %d, want %d", st.Sent, want)
	}
}

// BenchmarkBackpressure pushes burst traffic at a deliberately slow
// receiver and reports the drop rate per outbox byte budget. CI's
// hot-path smoke step runs it by name so the overload path cannot
// bit-rot.
func BenchmarkBackpressure(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"budget-64k", Options{OutboxHighWater: 64 << 10}},
		{"budget-1m", Options{OutboxHighWater: 1 << 20}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			reg := testReg()
			opts := mode.opts
			opts.Region, opts.Seed = "bench", 1
			a, err := Listen(ids.FromString("bench-bp-a-"+mode.name), reg, opts)
			if err != nil {
				b.Fatalf("Listen: %v", err)
			}
			defer a.Close()
			dst, err := Listen(ids.FromString("bench-bp-b-"+mode.name), reg,
				Options{Region: "bench", Seed: 2})
			if err != nil {
				b.Fatalf("Listen: %v", err)
			}
			defer dst.Close()
			a.AddPeer(dst.ID(), dst.Addr())
			var received atomic.Uint64
			dst.Handle("test.echo", func(netapi.Ctx, ids.ID, wire.Message) {
				time.Sleep(20 * time.Microsecond) // slow consumer
				received.Add(1)
			})

			const burst = 256
			msg := &echoMsg{Text: "overload overload overload overload overload"}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.Do(func() {
					for j := 0; j < burst; j++ {
						a.transmit(&wire.Envelope{From: a.ID(), To: dst.ID(), Msg: msg}, nil)
					}
				})
			}
			b.StopTimer()
			// Wait out the accepted frames so per-iteration timing is fair
			// across runs.
			st := a.Stats()
			deadline := time.Now().Add(30 * time.Second)
			for received.Load() < st.Sent && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			attempts := st.Sent + st.DroppedOverflow
			if attempts > 0 {
				b.ReportMetric(100*float64(st.DroppedOverflow)/float64(attempts), "drop-pct")
			}
		})
	}
}
