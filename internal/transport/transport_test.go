package transport

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/leakcheck"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/plaxton"
	"github.com/gloss/active/internal/store"
	"github.com/gloss/active/internal/wire"
)

type echoMsg struct {
	Text string `xml:"text,attr"`
}

func (echoMsg) Kind() string { return "test.echo" }

func testReg() *wire.Registry {
	reg := wire.NewRegistry()
	RegisterMessages(reg)
	reg.Register(&echoMsg{})
	plaxton.RegisterMessages(reg)
	store.RegisterMessages(reg)
	return reg
}

func newNode(t *testing.T, name string, reg *wire.Registry) *Node {
	t.Helper()
	n, err := Listen(ids.FromString(name), reg, Options{Region: "test", Seed: 1})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { _ = n.Close() })
	return n
}

func TestSendAndHandle(t *testing.T) {
	reg := testReg()
	a := newNode(t, "tcp-a", reg)
	b := newNode(t, "tcp-b", reg)
	a.AddPeer(b.ID(), b.Addr())

	got := make(chan string, 1)
	b.Handle("test.echo", func(_ netapi.Ctx, from ids.ID, msg wire.Message) {
		if from != a.ID() {
			t.Errorf("from = %v", from)
		}
		got <- msg.(*echoMsg).Text
	})
	a.Send(b.ID(), &echoMsg{Text: "over tcp"})
	select {
	case s := <-got:
		if s != "over tcp" {
			t.Fatalf("payload = %q", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message never arrived")
	}
}

func TestRequestReplyOverTCP(t *testing.T) {
	reg := testReg()
	a := newNode(t, "tcp-req-a", reg)
	b := newNode(t, "tcp-req-b", reg)
	a.AddPeer(b.ID(), b.Addr())
	b.AddPeer(a.ID(), a.Addr())

	b.Handle("test.echo", func(ctx netapi.Ctx, _ ids.ID, msg wire.Message) {
		ctx.Reply(&echoMsg{Text: "re: " + msg.(*echoMsg).Text})
	})
	done := make(chan string, 1)
	a.Request(b.ID(), &echoMsg{Text: "hi"}, 5*time.Second, func(reply wire.Message, err error) {
		if err != nil {
			done <- "err: " + err.Error()
			return
		}
		done <- reply.(*echoMsg).Text
	})
	select {
	case s := <-done:
		if s != "re: hi" {
			t.Fatalf("reply = %q", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request never completed")
	}
}

func TestRequestTimeoutOverTCP(t *testing.T) {
	reg := testReg()
	a := newNode(t, "tcp-to-a", reg)
	// Peer address points at a port that is not listening.
	dead := ids.FromString("tcp-dead")
	a.AddPeer(dead, "127.0.0.1:1")
	done := make(chan error, 1)
	a.Request(dead, &echoMsg{}, 500*time.Millisecond, func(_ wire.Message, err error) {
		done <- err
	})
	select {
	case err := <-done:
		if !errors.Is(err, netapi.ErrTimeout) {
			t.Fatalf("err = %v, want timeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout never fired")
	}
}

func TestHelloGossipsAddresses(t *testing.T) {
	reg := testReg()
	a := newNode(t, "tcp-g-a", reg)
	b := newNode(t, "tcp-g-b", reg)
	c := newNode(t, "tcp-g-c", reg)
	// a knows b and c; b initially knows only a.
	a.AddPeer(b.ID(), b.Addr())
	a.AddPeer(c.ID(), c.Addr())
	b.AddPeer(a.ID(), a.Addr())

	// a dials b: hello carries c's address; b can then reach c.
	bGot := make(chan struct{}, 1)
	b.Handle("test.echo", func(netapi.Ctx, ids.ID, wire.Message) { bGot <- struct{}{} })
	cGot := make(chan struct{}, 1)
	c.Handle("test.echo", func(netapi.Ctx, ids.ID, wire.Message) { cGot <- struct{}{} })

	a.Send(b.ID(), &echoMsg{Text: "seed"})
	select {
	case <-bGot:
	case <-time.After(5 * time.Second):
		t.Fatal("seed message lost")
	}
	b.Send(c.ID(), &echoMsg{Text: "via gossip"})
	select {
	case <-cGot:
	case <-time.After(5 * time.Second):
		t.Fatal("gossiped address unusable")
	}
}

func TestLoopbackToSelf(t *testing.T) {
	reg := testReg()
	a := newNode(t, "tcp-self", reg)
	got := make(chan struct{}, 1)
	a.Handle("test.echo", func(netapi.Ctx, ids.ID, wire.Message) { got <- struct{}{} })
	a.Send(a.ID(), &echoMsg{})
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("loopback failed")
	}
}

// TestDeferredReplyOverTCP: a handler that answers after it returns (the
// gateway's shape: the reply is sent from a store callback) still
// answers its own request, while one-way messages of the same kind,
// which all share one no-reply ctx, arrive meanwhile.
func TestDeferredReplyOverTCP(t *testing.T) {
	reg := testReg()
	a := newNode(t, "tcp-defer-a", reg)
	b := newNode(t, "tcp-defer-b", reg)
	a.AddPeer(b.ID(), b.Addr())
	b.AddPeer(a.ID(), a.Addr())
	b.Handle("test.echo", func(ctx netapi.Ctx, _ ids.ID, msg wire.Message) {
		text := msg.(*echoMsg).Text
		b.Clock().After(20*time.Millisecond, func() { ctx.Reply(&echoMsg{Text: "re: " + text}) })
	})
	got := make(chan string, 3)
	for _, text := range []string{"x", "y", "z"} {
		a.Send(b.ID(), &echoMsg{Text: "one-way"})
		a.Request(b.ID(), &echoMsg{Text: text}, 5*time.Second, func(reply wire.Message, err error) {
			if err != nil {
				got <- text + ": " + err.Error()
				return
			}
			got <- text + ": " + reply.(*echoMsg).Text
		})
	}
	want := map[string]bool{"x: re: x": true, "y: re: y": true, "z: re: z": true}
	for len(want) > 0 {
		select {
		case s := <-got:
			if !want[s] {
				t.Fatalf("request answered %q", s)
			}
			delete(want, s)
		case <-time.After(5 * time.Second):
			t.Fatalf("requests never answered: %v", want)
		}
	}
}

// TestReplyFromWrongPeerIgnoredOverTCP: a reply answers a request only
// when it comes from the peer asked. A third node that sends a reply
// carrying the asker's correlation ID, ahead of the real answer,
// completes nothing; the request ends with the real reply, or with its
// timeout when there is none.
func TestReplyFromWrongPeerIgnoredOverTCP(t *testing.T) {
	for _, answer := range []bool{true, false} {
		reg := testReg()
		a := newNode(t, "tcp-wrong-a", reg)
		b := newNode(t, "tcp-wrong-b", reg)
		c := newNode(t, "tcp-wrong-c", reg)
		a.AddPeer(b.ID(), b.Addr())
		c.AddPeer(a.ID(), a.Addr())
		asked := make(chan netapi.Ctx, 1)
		b.Handle("test.echo", func(ctx netapi.Ctx, _ ids.ID, _ wire.Message) { asked <- ctx })
		marked := make(chan struct{}, 1)
		a.Handle("test.echo", func(netapi.Ctx, ids.ID, wire.Message) { marked <- struct{}{} })
		timeout := 10 * time.Second
		if !answer {
			timeout = time.Second
		}
		got := make(chan string, 2)
		a.Request(b.ID(), &echoMsg{Text: "ask"}, timeout, func(reply wire.Message, err error) {
			if err != nil {
				got <- err.Error()
				return
			}
			got <- reply.(*echoMsg).Text
		})
		ctx := <-asked // a's request is pending
		// The forged reply and then a one-way marker share c's connection:
		// once a has handled the marker, it has dispatched the forgery.
		c.transmit(&wire.Envelope{From: c.ID(), To: a.ID(), CorrID: 1, IsReply: true, Msg: &echoMsg{Text: "forged"}}, nil)
		c.Send(a.ID(), &echoMsg{Text: "marker"})
		<-marked
		want := netapi.ErrTimeout.Error()
		if answer {
			want = "real"
			b.Do(func() { ctx.Reply(&echoMsg{Text: "real"}) })
		}
		select {
		case s := <-got:
			if s != want {
				t.Fatalf("answer=%v: request completed with %q, want %q", answer, s, want)
			}
		case <-time.After(2 * timeout):
			t.Fatalf("answer=%v: request never completed", answer)
		}
		select {
		case s := <-got:
			t.Fatalf("answer=%v: callback ran again with %q", answer, s)
		case <-time.After(50 * time.Millisecond):
		}
	}
}

func TestClockAfterAndStop(t *testing.T) {
	reg := testReg()
	a := newNode(t, "tcp-clock", reg)
	fired := make(chan struct{}, 1)
	a.Clock().After(50*time.Millisecond, func() { fired <- struct{}{} })
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
	tm := a.Clock().After(time.Hour, func() { t.Error("stopped timer fired") })
	if !tm.Stop() {
		t.Fatal("Stop reported false for pending timer")
	}
}

// TestOverlayAndStoreOverTCP boots a small Plaxton+store cluster over real
// sockets: the same protocol code that runs under simnet. The nodes
// alternate between the XML and the binary codec — on their links and for
// the payloads they route — so puts and gets cross both kinds of node, as
// whole frames (small) and as chunk streams whose bodies borrow the
// received frames (large), on both kinds of link. A replica holder keeps
// the chunk frames it received as the body, and reads it back from them.
func TestOverlayAndStoreOverTCP(t *testing.T) {
	reg := testReg()
	const n = 4
	codecs := [2]string{wire.CodecXML, wire.CodecBinary}
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		node, err := Listen(ids.FromString("tcp-cluster-"+string(rune('a'+i))), reg, Options{Region: "test", Seed: 1, Codec: codecs[i%2]})
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		t.Cleanup(func() { _ = node.Close() })
		nodes[i] = node
	}
	// Full address book (in production the hello gossip fills this in).
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				nodes[i].AddPeer(nodes[j].ID(), nodes[j].Addr())
			}
		}
	}
	overlays := make([]*plaxton.Overlay, n)
	stores := make([]*store.Store, n)
	for i := 0; i < n; i++ {
		overlays[i] = plaxton.New(nodes[i], reg, codecs[i%2], plaxton.Options{
			HeartbeatInterval: -1,
			LeafHalf:          4,
			JoinTimeout:       5 * time.Second,
		})
		stores[i] = store.New(nodes[i], overlays[i], store.Options{
			RepairInterval: -1,
			Replicas:       2,
			RequestTimeout: 3 * time.Second,
		})
	}
	nodes[0].Do(overlays[0].CreateNetwork)
	for i := 1; i < n; i++ {
		i := i
		joined := make(chan error, 1)
		nodes[i].Do(func() {
			overlays[i].Join(overlays[0].ID(), func(err error) { joined <- err })
		})
		select {
		case err := <-joined:
			if err != nil {
				t.Fatalf("join %d: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("join %d stuck", i)
		}
	}
	large := make([]byte, 200<<10) // above the 64 KiB chunk threshold
	rand.New(rand.NewSource(5)).Read(large)
	// Each object is put at one node and read back at every node, so at
	// least one put and one get leave a node of each codec.
	for from, content := range [][]byte{[]byte("stored over real tcp sockets"), large, []byte("and once more, from a node of the other codec")} {
		type putResult struct {
			guid ids.ID
			err  error
		}
		putDone := make(chan putResult, 1)
		nodes[from].Do(func() {
			stores[from].Put(bytes.Clone(content), func(g ids.ID, err error) { putDone <- putResult{g, err} })
		})
		var guid ids.ID
		select {
		case r := <-putDone:
			if r.err != nil {
				t.Fatalf("put at node %d: %v", from, r.err)
			}
			guid = r.guid
		case <-time.After(10 * time.Second):
			t.Fatalf("put at node %d stuck", from)
		}
		for at := 0; at < n; at++ {
			getDone := make(chan []byte, 1)
			nodes[at].Do(func() {
				stores[at].Get(guid, func(data []byte, err error) {
					if err != nil {
						t.Errorf("get at node %d: %v", at, err)
					}
					getDone <- data
				})
			})
			select {
			case data := <-getDone:
				if !bytes.Equal(data, content) {
					t.Fatalf("object put at node %d reads back wrong at node %d (%d bytes)", from, at, len(data))
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("get at node %d stuck", at)
			}
		}
		if len(content) > 64<<10 {
			// Node 1 (binary) roots the large object, so its chunk streams
			// reach the XML nodes on XML links and node 3 on a binary one;
			// the replica among them was read back above from its pieces.
			var recv [2]uint64
			for i := range nodes {
				st := make(chan store.Stats, 1)
				nodes[i].Do(func() { st <- stores[i].Stats() })
				recv[i%2] += (<-st).ChunkFramesRecv
			}
			if recv[0] == 0 || recv[1] == 0 {
				t.Fatalf("chunk frames received by XML nodes %d, by binary nodes %d: one link kind went unread", recv[0], recv[1])
			}
		}
	}
}

func TestCloseIsIdempotentAndStopsTraffic(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	reg := testReg()
	a := newNode(t, "tcp-close-a", reg)
	b := newNode(t, "tcp-close-b", reg)
	a.AddPeer(b.ID(), b.Addr())
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// Sends after close are silently discarded.
	a.Send(b.ID(), &echoMsg{})
}
