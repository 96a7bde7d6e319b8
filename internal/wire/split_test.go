package wire_test

// The binary codec's split encoder (EncodeSplit: a head, and a body the
// frame borrows) and the transport's gathered writes, held to the
// contiguous encoder they replaced (wire.EncodeContiguous): the bytes on
// the wire must not change.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/plaxton"
	"github.com/gloss/active/internal/pubsub"
	"github.com/gloss/active/internal/store"
	"github.com/gloss/active/internal/transport"
	"github.com/gloss/active/internal/wire"
)

// binaryKinds lists the registered kinds with a binary form.
func binaryKinds(reg *wire.Registry) []string {
	var kinds []string
	for _, k := range reg.Kinds() {
		if m, _ := reg.New(k); m != nil {
			if _, ok := m.(wire.BinaryMessage); ok {
				kinds = append(kinds, k)
			}
		}
	}
	return kinds
}

// setTail replaces m's tail, its last byte-slice field, with tail.
func setTail(t *testing.T, m wire.TailMessage, tail []byte) {
	t.Helper()
	v := reflect.ValueOf(m).Elem()
	for i := v.NumField() - 1; i >= 0; i-- {
		if f := v.Field(i); f.Kind() == reflect.Slice && f.Type().Elem().Kind() == reflect.Uint8 {
			f.SetBytes(tail)
			if !bytes.Equal(m.WireTail(), tail) {
				t.Fatalf("%T: its last byte field is not its tail", m)
			}
			return
		}
	}
	t.Fatalf("%T has no byte field to be its tail", m)
}

// checkSplit holds every way the codecs encode env to the contiguous
// encoder: Encode, EncodeShared (first and later destinations), EncodeSplit
// with and without a shared body, and Size on both codecs.
func checkSplit(t *testing.T, reg *wire.Registry, bin *wire.BinaryCodec, env *wire.Envelope) {
	t.Helper()
	want, err := wire.EncodeContiguous(bin, env)
	if err != nil {
		t.Fatalf("contiguous encode: %v", err)
	}
	kind := "no message"
	if env.Msg != nil {
		kind = env.Msg.Kind()
	}
	same := func(what string, got []byte, err error) {
		t.Helper()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: %s gives %d bytes (err %v), the contiguous encoder %d", kind, what, len(got), err, len(want))
		}
	}
	got, err := bin.Encode(env)
	same("Encode", got, err)
	joined := func(head, body []byte, reserve int) []byte {
		return append(append([]byte(nil), head[reserve:]...), body...)
	}
	head, body, err := bin.EncodeSplit(env, nil, 4)
	same("EncodeSplit", joined(head, body, 4), err)
	shared := &wire.SharedBody{}
	for _, dest := range []string{"first", "second"} {
		got, err = bin.EncodeShared(env, shared)
		same("EncodeShared to the "+dest+" destination", got, err)
		head, body, err = bin.EncodeSplit(env, shared, 0)
		same("EncodeSplit with a body shared with the "+dest, joined(head, body, 0), err)
	}
	frame, err := reg.Encode(env)
	binShared, xmlShared := &wire.SharedBody{}, &wire.SharedBody{}
	for _, s := range []*wire.SharedBody{nil, binShared, binShared} {
		if n, err := bin.Size(env, s); err != nil || n != len(want) {
			t.Fatalf("%s: binary Size = %d (err %v), frame %d", kind, n, err, len(want))
		}
	}
	for _, s := range []*wire.SharedBody{nil, xmlShared, xmlShared} {
		if n, serr := reg.Size(env, s); (err == nil) != (serr == nil) || n != len(frame) {
			t.Fatalf("%s: XML Size = %d (err %v), frame %d (err %v)", kind, n, serr, len(frame), err)
		}
	}
}

// walkCounted is a sized binary kind that counts how often its body is
// measured.
type walkCounted struct{ walks *int }

func (walkCounted) Kind() string                      { return "test.walkCounted" }
func (walkCounted) AppendWire(b []byte) []byte        { return append(b, 1, 2, 3) }
func (walkCounted) ParseWire(r *wire.BinReader) error { return nil }
func (m walkCounted) WireSize() int                   { *m.walks++; return 3 }

// TestSizeSharedMeasuresBodyOnce: sizing a fan-out through one SharedBody
// measures the message body once, whatever the destinations, and gives
// each frame the size it has alone.
func TestSizeSharedMeasuresBodyOnce(t *testing.T) {
	reg := wire.NewRegistry()
	reg.Register(walkCounted{})
	bin := wire.NewBinaryCodec(reg)
	var walks int
	msg := walkCounted{&walks}
	shared := &wire.SharedBody{}
	for i := 0; i < 5; i++ {
		env := &wire.Envelope{From: ids.FromString("from"), To: ids.FromString(fmt.Sprint("to-", i)), Msg: msg}
		alone, err := bin.Size(env, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := bin.Size(env, shared); err != nil || n != alone {
			t.Fatalf("destination %d: shared Size = %d (err %v), alone %d", i, n, err, alone)
		}
	}
	if walks != 5+1 {
		t.Fatalf("the body was measured %d times for 5 frames sized alone and 5 sharing it, want 6", walks)
	}
}

// FuzzTailSplit: for every tail kind, head ‖ tail is AppendWire, whatever
// the tail; and for every binary kind, under any header, every binary
// encode is the contiguous encoder's frame and Size is len(Encode) on both
// codecs. The seed picks the kind and its field values.
func FuzzTailSplit(f *testing.F) {
	reg := fullRegistry()
	bin := wire.NewBinaryCodec(reg)
	kinds := binaryKinds(reg)
	for seed := range int64(2 * len(kinds)) {
		f.Add(seed, bytes.Repeat([]byte{wire.BinaryMagic}, int(seed)*37), uint64(seed)<<(seed%64), strings.Repeat("e<r>", int(seed%3)))
	}
	f.Fuzz(func(t *testing.T, seed int64, tail []byte, corr uint64, errText string) {
		rng := rand.New(rand.NewSource(seed))
		kind := kinds[rng.Intn(len(kinds))]
		msg := randMessage(t, reg, kind, rng)
		if tm, ok := msg.(wire.TailMessage); ok {
			setTail(t, tm, tail)
			if got, want := tm.AppendWire(nil), wire.AppendBytes(tm.AppendWireHead(nil), tail); !bytes.Equal(got, want) {
				t.Fatalf("%s: AppendWire is not head ‖ tail", kind)
			}
		}
		checkSplit(t, reg, bin, &wire.Envelope{From: ids.Random(rng), To: ids.Random(rng),
			CorrID: corr, IsReply: rng.Intn(2) == 0, Err: errText, Msg: msg})
		checkSplit(t, reg, bin, &wire.Envelope{CorrID: corr, IsReply: true, Err: errText})
	})
}

// TestBinaryEncodeAllocs: a frame encoded whole costs the one exact-size
// buffer it is returned in, and a bulk frame's head the one small buffer
// it is — its 64 KiB body is borrowed, not copied.
func TestBinaryEncodeAllocs(t *testing.T) {
	bin := wire.NewBinaryCodec(fullRegistry())
	from, to := ids.FromString("a"), ids.FromString("b")
	var pub *wire.Envelope
	for body := 400; ; body++ {
		ev := event.New("ctx.reading", "probe-7", time.Second).SetBody(strings.Repeat("x", body)).Stamp(1)
		pub = &wire.Envelope{From: from, To: to, Msg: &pubsub.PubMsg{Event: ev}}
		if frame, err := bin.Encode(pub); err != nil || len(frame) >= 520 {
			if err != nil || len(frame) > 520 {
				t.Fatalf("no pubsub.pub frame of 520 B (%d, %v)", len(frame), err)
			}
			break
		}
	}
	if n := testing.AllocsPerRun(200, func() { _, _ = bin.Encode(pub) }); n != 1 {
		t.Errorf("Encode of a 520 B pubsub.pub: %.0f allocs, want 1", n)
	}
	chunk := &wire.Envelope{From: from, To: to, Msg: &store.ChunkMsg{Xfer: 9, Off: 3 << 16, Data: make([]byte, 64<<10)}}
	var head []byte
	if n := testing.AllocsPerRun(200, func() { head, _, _ = bin.EncodeSplit(chunk, nil, 4) }); n != 1 {
		t.Errorf("EncodeSplit of a 64 KiB store.chunk: %.0f allocs, want 1", n)
	}
	if cap(head) >= 128 {
		t.Errorf("EncodeSplit of a 64 KiB store.chunk allocated a %d B head, want < 128 B", cap(head))
	}
}

// rawPeer is the far end of a real socket: it records every byte a node
// sends it.
type rawPeer struct {
	id   ids.ID
	addr string
	mu   sync.Mutex
	got  []byte
}

func (p *rawPeer) bytes() []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.got
}

// listenRaw starts a raw peer and gives n its address. n must be closed
// before the test's cleanups run: that ends the connection.
func listenRaw(t *testing.T, n *transport.Node, name string) *rawPeer {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &rawPeer{id: ids.FromString(name), addr: ln.Addr().String()}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 64<<10)
		for {
			k, err := conn.Read(buf)
			p.mu.Lock()
			p.got = append(p.got, buf[:k]...)
			p.mu.Unlock()
			if err != nil {
				return
			}
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		wg.Wait()
	})
	n.AddPeer(p.id, p.addr)
	return p
}

// speakBinary tells n that p speaks its binary codec, as a peer does: by
// dialling it with a hello. A ping after the hello, on the same
// connection, says when n has merged it.
func (p *rawPeer) speakBinary(t *testing.T, n *transport.Node, reg *wire.Registry, pinged <-chan ids.ID) {
	conn, err := net.Dial("tcp", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := &transport.HelloMsg{ID: p.id.String(), Addr: p.addr,
		Codecs: []string{wire.CodecXML, wire.CodecBinary}, KindsHash: reg.KindsHash()}
	for _, msg := range []wire.Message{hello, &plaxton.PingMsg{}} {
		frame, err := reg.Encode(&wire.Envelope{From: p.id, To: n.ID(), Msg: msg})
		if err == nil {
			_, err = conn.Write(append(binary.BigEndian.AppendUint32(nil, uint32(len(frame))), frame...))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	select {
	case from := <-pinged:
		if from != p.id {
			t.Fatalf("ping from %s, want %s", from.Short(), p.id.Short())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the hello was never merged")
	}
}

// TestWireBytesUnchanged sends a corpus through a real transport node to
// raw sockets and requires, on every socket, after the node's hello,
// exactly the bytes the contiguous send path wrote: each frame encoded
// whole (wire.EncodeContiguous for binary peers, the XML codec for the
// others) behind its 4-byte length. The corpus has every binary kind with
// random values, every tail kind with tails of 0 B to 1 MiB, Send and
// SendMany to one and to eight peers of both codecs, and a backlog queued
// before any connection is up, so the writers' first batches pass
// flushWatermark and 1 024 iovecs.
func TestWireBytesUnchanged(t *testing.T) {
	reg := fullRegistry()
	bin := wire.NewBinaryCodec(reg)
	n, err := transport.Listen(ids.FromString("bytes-unchanged"), reg,
		transport.Options{Seed: 1, Codec: wire.CodecBinary, OutboxHighWater: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	pinged := make(chan ids.ID)
	n.Handle("plaxton.ping", func(_ netapi.Ctx, from ids.ID, _ wire.Message) { pinged <- from })
	const peers = 8
	raw := make([]*rawPeer, peers)
	tos := make([]ids.ID, peers)
	for i := range raw {
		raw[i] = listenRaw(t, n, fmt.Sprint("raw-peer-", i))
		tos[i] = raw[i].id
		if i%2 == 0 {
			raw[i].speakBinary(t, n, reg, pinged)
		}
	}

	// send sends msg to the peers at idx — through SendMany if many — and
	// appends to each peer's expected stream what the contiguous path
	// wrote for it. It may run on n's actor loop, so it reports with Error.
	want := make([][]byte, peers)
	var sent int
	send := func(msg wire.Message, many bool, idx ...int) {
		dests := make([]ids.ID, len(idx))
		for j, i := range idx {
			dests[j] = tos[i]
			env := &wire.Envelope{From: n.ID(), To: tos[i], Msg: msg}
			frame, err := reg.Encode(env)
			if i%2 == 0 {
				frame, err = wire.EncodeContiguous(bin, env)
			}
			if err != nil {
				t.Errorf("%s: oracle encode: %v", msg.Kind(), err)
				return
			}
			want[i] = append(binary.BigEndian.AppendUint32(want[i], uint32(len(frame))), frame...)
		}
		sent += len(idx)
		if many {
			n.SendMany(dests, msg)
			return
		}
		for _, to := range dests {
			n.Send(to, msg)
		}
	}
	rng := rand.New(rand.NewSource(26))
	kinds := binaryKinds(reg)
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}

	// One actor turn: no writer starts before it ends (a connection is
	// handed its writer on the loop), so all of it is queued first.
	n.Do(func() {
		for off := 0; off < 8000; off++ {
			send(&store.ChunkMsg{Xfer: 1, Off: off, Data: []byte{byte(off)}}, false, 0)
		}
		for _, kind := range kinds {
			for trial := 0; trial < 2; trial++ {
				send(randMessage(t, reg, kind, rng), false, all...)
			}
		}
	})
	n.Stats() // the turn has run: rng is the test's again
	// The rest goes out one actor turn at a time, while the writers run.
	for _, kind := range kinds {
		for _, size := range []int{0, 1, 4 << 10, 64 << 10, 1 << 20} {
			msg := randMessage(t, reg, kind, rng)
			tm, ok := msg.(wire.TailMessage)
			if !ok {
				break
			}
			tail := make([]byte, size)
			rng.Read(tail)
			setTail(t, tm, tail)
			n.Do(func() { send(msg, false, 0, 1) })
		}
	}
	for trial := 0; trial < 16; trial++ {
		msg := randMessage(t, reg, kinds[rng.Intn(len(kinds))], rng)
		if tm, ok := msg.(wire.TailMessage); ok {
			tail := make([]byte, 4<<10)
			rng.Read(tail)
			setTail(t, tm, tail)
		}
		one := rng.Intn(peers)
		n.Do(func() {
			send(msg, true, one)
			send(msg, true, all...)
		})
	}
	n.Stats() // every turn has run: want and sent are final

	for i, p := range raw {
		deadline := time.Now().Add(20 * time.Second)
		for {
			got := p.bytes()
			if len(got) >= 4 {
				hello := 4 + int(binary.BigEndian.Uint32(got))
				if len(got) >= hello+len(want[i]) {
					if env, err := reg.Decode(got[4:hello]); err != nil || reflect.TypeOf(env.Msg) != reflect.TypeOf(&transport.HelloMsg{}) {
						t.Fatalf("peer %d: the first frame is not the node's hello (%v)", i, err)
					}
					if !bytes.Equal(got[hello:], want[i]) {
						t.Fatalf("peer %d (binary %v): %d bytes after the hello differ from the contiguous path's %d",
							i, i%2 == 0, len(got)-hello, len(want[i]))
					}
					break
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("peer %d got %d bytes, want the hello and %d", i, len(got), len(want[i]))
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if st := n.Stats(); st.Sent != uint64(sent) || st.Dropped != 0 || st.SentBinary == 0 {
		t.Fatalf("sent %d frames, stats %+v", sent, st)
	}
}
