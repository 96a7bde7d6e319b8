package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/plaxton"
	"github.com/gloss/active/internal/wire"
)

// readFrame is the receive path this package shipped before frameReader:
// one read for the header, one for the body, a fresh buffer per frame.
// It is the oracle of the differential tests and the fuzzer below.
func readFrame(conn io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return nil, err
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if size > maxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", size)
	}
	frame := make([]byte, size)
	if _, err := io.ReadFull(conn, frame); err != nil {
		return nil, err
	}
	return frame, nil
}

// chunkConn is a read-only connection over a fixed byte stream; chunk
// says how many bytes the next Read may return at most (nil: all there
// is). It counts the Reads it served.
type chunkConn struct {
	data  []byte
	chunk func() int
	reads int
}

func (c *chunkConn) Read(p []byte) (int, error) {
	c.reads++
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := min(len(p), len(c.data))
	if c.chunk != nil {
		n = min(n, max(1, c.chunk()))
	}
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

func (c *chunkConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *chunkConn) Close() error                     { return nil }
func (c *chunkConn) LocalAddr() net.Addr              { return nil }
func (c *chunkConn) RemoteAddr() net.Addr             { return nil }
func (c *chunkConn) SetDeadline(time.Time) error      { return nil }
func (c *chunkConn) SetReadDeadline(time.Time) error  { return nil }
func (c *chunkConn) SetWriteDeadline(time.Time) error { return nil }

// recvStream is one byte stream of the corpus and how it ends.
type recvStream struct {
	name string
	data []byte
}

// framed prefixes frame with its length header.
func framed(frame []byte) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(len(frame)))
	return append(out, frame...)
}

// sizedFrame encodes an echo whose frame is exactly size bytes long in
// the given codec (the text grows until the frame does).
func sizedFrame(t testing.TB, codec wire.Codec, from, to ids.ID, size int) []byte {
	t.Helper()
	text := 0
	for range 8 {
		frame, err := codec.Encode(&wire.Envelope{From: from, To: to, Msg: &echoMsg{Text: strings.Repeat("x", text)}})
		if err != nil {
			t.Fatal(err)
		}
		if len(frame) == size {
			return frame
		}
		text += size - len(frame)
		if text < 0 {
			t.Fatalf("no echo frame is as short as %d bytes", size)
		}
	}
	t.Fatalf("could not size an echo frame to %d bytes", size)
	return nil
}

// recvCorpus builds the seeded streams the receive path is held to its
// oracle on: the same good frames — smallest body, sub-buffer sizes in
// both codecs, a hello in mid-burst, frames that end exactly at, one
// short of and one past the buffer's end, a multi-buffer routed payload
// whose bytes the decoded message borrows — under every ending a
// connection can have. small leaves the buffer-sized frames out and
// keeps a stream under 2 KiB (the fuzzer minimises what it finds).
func recvCorpus(t testing.TB, n *Node, seed int64, small bool) []recvStream {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	from, to := ids.FromString("recv-peer"), n.ID()
	xml, bin := wire.Codec(n.reg), wire.Codec(n.bin)
	encode := func(c wire.Codec, msg wire.Message) []byte {
		frame, err := c.Encode(&wire.Envelope{From: from, To: to, CorrID: uint64(rng.Intn(3)), Msg: msg})
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	route := func(inner int) *plaxton.RouteMsg {
		body := make([]byte, inner)
		rng.Read(body)
		return &plaxton.RouteMsg{Key: from.String(), Origin: to.String(), Hops: 1, Path: []string{"p"}, InnerKind: "test.echo", Inner: body}
	}
	hello, err := n.reg.Encode(&wire.Envelope{From: from, To: from, Msg: &HelloMsg{
		ID: from.String(), Addr: "127.0.0.1:9", Codecs: []string{wire.CodecXML, wire.CodecBinary}, KindsHash: n.reg.KindsHash(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	var good [][]byte
	good = append(good, encode(xml, &echoMsg{}), encode(bin, &echoMsg{}))
	echoes, longest := 12, 900
	if small {
		echoes, longest = 4, 200
	}
	for i := 0; i < echoes; i++ {
		c := xml
		if i%2 == 1 {
			c = bin
		}
		good = append(good, encode(c, &echoMsg{Text: strings.Repeat("s", rng.Intn(longest))}))
	}
	good = append(good, hello, encode(bin, route(rng.Intn(longest/3))), encode(xml, route(rng.Intn(longest/3))))
	if !small {
		// Delivered all at once, a refill always starts at a frame header,
		// so these totals (header + frame) put a frame's end exactly at the
		// buffer's end, then leave 1, 3 and 4 bytes of the next header
		// behind a frame, then overshoot the buffer by one byte.
		used := 0
		for _, f := range good {
			used += 4 + len(f)
		}
		for i, total := range []int{readBufSize - used, readBufSize - 1, readBufSize - 3, readBufSize - 4, readBufSize + 1} {
			c := xml
			if i%2 == 1 {
				c = bin
			}
			good = append(good, sizedFrame(t, c, from, to, total-4))
		}
		good = append(good,
			encode(xml, &echoMsg{Text: "between"}),
			sizedFrame(t, bin, from, to, readBufSize),
			encode(bin, route(3*readBufSize+17)),
			encode(xml, &echoMsg{Text: "tail"}),
			encode(bin, route(40)))
	}
	var body []byte
	for _, f := range good {
		body = append(body, framed(f)...)
	}
	over := binary.BigEndian.AppendUint32(nil, maxFrame+1)
	ends := []recvStream{
		{"clean EOF", nil},
		{"zero-size frame", framed(nil)},
		{"over-maxFrame header", append(over, "never read"...)},
		{"truncated body", framed(encode(bin, &echoMsg{Text: "cut short"}))[:20]},
		{"header only", binary.BigEndian.AppendUint32(nil, 64)},
		{"truncated header", []byte{0, 0}},
		{"undecodable frame", append(framed([]byte("neither codec")), framed(encode(xml, &echoMsg{Text: "unreachable"}))...)},
	}
	for i := range ends {
		ends[i].data = append(append([]byte(nil), body...), ends[i].data...)
	}
	return ends
}

// recvAll runs a frame source to its error, decoding as readLoop does.
func recvAll(n *Node, next func() ([]byte, error)) ([]*wire.Envelope, error) {
	var envs []*wire.Envelope
	for {
		frame, err := next()
		if err != nil {
			return envs, err
		}
		env, err := n.decodeFrame(frame)
		if err != nil {
			return envs, err
		}
		envs = append(envs, env)
	}
}

// errText renders a receive error for comparison. Where a stream ends
// inside a frame the two readers may differ in which of io.EOF and
// io.ErrUnexpectedEOF they report (one counts the bytes of a frame it
// had buffered, the other only those of its last read); nothing tells
// them apart downstream.
func errText(err error) string {
	if err == io.ErrUnexpectedEOF {
		err = io.EOF
	}
	return fmt.Sprint(err)
}

func sameEnvelopes(t *testing.T, what string, got, want []*wire.Envelope, gotErr, wantErr error) {
	t.Helper()
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("%s: stopped with %v, oracle with %v", what, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d envelopes before the error, oracle %d", what, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: envelope %d is %+v (%T), oracle %+v", what, i, got[i], got[i].Msg, want[i])
		}
	}
}

// TestFrameReaderMatchesReadFrame is the receive path's differential
// test: on every stream of the corpus, however the connection cuts it
// up, frameReader yields the envelopes, the order and the error of the
// one-read-per-frame oracle, and nothing it handed out points into its
// read buffer.
func TestFrameReaderMatchesReadFrame(t *testing.T) {
	n := newNode(t, "recv-diff", testReg())
	for _, seed := range []int64{1, 2} {
		for _, s := range recvCorpus(t, n, seed, false) {
			oracleConn := &chunkConn{data: s.data}
			want, wantErr := recvAll(n, func() ([]byte, error) { return readFrame(oracleConn) })
			if len(want) < 25 {
				t.Fatalf("%s: the oracle decoded only %d envelopes; the corpus is broken", s.name, len(want))
			}
			rng := rand.New(rand.NewSource(seed))
			cuts := map[string]func() int{
				"all at once":   nil,
				"byte by byte":  func() int { return 1 },
				"random chunks": func() int { return 1 + rng.Intn(3*readBufSize/2) },
				"small chunks":  func() int { return 1 + rng.Intn(9) },
			}
			for cut, chunk := range cuts {
				conn := &chunkConn{data: s.data, chunk: chunk}
				fr := &frameReader{r: conn, buf: make([]byte, readBufSize)}
				got, gotErr := recvAll(n, fr.next)
				// Whatever still points into the read buffer changes now.
				for i := range fr.buf {
					fr.buf[i] ^= 0xFF
				}
				sameEnvelopes(t, fmt.Sprintf("seed %d, %s, %s", seed, s.name, cut), got, want, gotErr, wantErr)
				if cut == "all at once" && conn.reads >= oracleConn.reads/2 {
					t.Fatalf("%s: %d reads for %d frames (oracle %d): bursts are not read whole",
						s.name, conn.reads, len(got), oracleConn.reads)
				}
			}
		}
	}
}

// TestFrameReaderEverySplit cuts a stream of small frames in two at
// every byte boundary: a header or body split across two reads is put
// together like one that arrived whole. Frames are compared as bytes;
// decoding them is the test above's.
func TestFrameReaderEverySplit(t *testing.T) {
	n := newNode(t, "recv-split", testReg())
	frames := func(next func() ([]byte, error)) (out [][]byte, err error) {
		for {
			frame, err := next()
			if err != nil {
				return out, err
			}
			out = append(out, frame)
		}
	}
	buf := make([]byte, readBufSize)
	for _, s := range recvCorpus(t, n, 3, true) {
		oracleConn := &chunkConn{data: s.data}
		want, wantErr := frames(func() ([]byte, error) { return readFrame(oracleConn) })
		for at := 1; at < len(s.data); at++ {
			first := true
			conn := &chunkConn{data: s.data, chunk: func() int {
				if first {
					first = false
					return at
				}
				return len(s.data)
			}}
			got, gotErr := frames((&frameReader{r: conn, buf: buf}).next)
			if errText(gotErr) != errText(wantErr) || len(got) != len(want) {
				t.Fatalf("%s, split at %d: %d frames then %v, oracle %d then %v", s.name, at, len(got), gotErr, len(want), wantErr)
			}
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("%s, split at %d: frame %d differs from the oracle's", s.name, at, i)
				}
			}
		}
	}
}

// TestFrameReaderBuffered pins what makes a burst: after a frame,
// buffered says whether the next one can be taken without reading.
func TestFrameReaderBuffered(t *testing.T) {
	a, b := framed([]byte("first")), framed([]byte("second frame"))
	stream := append(append(append([]byte(nil), a...), b...), b[:7]...)
	fr := &frameReader{r: &chunkConn{data: stream}, buf: make([]byte, readBufSize)}
	if fr.buffered() {
		t.Fatal("buffered before anything was read")
	}
	for i, want := range []bool{true, false} {
		if _, err := fr.next(); err != nil {
			t.Fatal(err)
		}
		if got := fr.buffered(); got != want {
			t.Fatalf("after frame %d buffered() = %v, want %v", i, got, want)
		}
	}
	if _, err := fr.next(); errText(err) != errText(io.EOF) {
		t.Fatalf("truncated third frame: %v, want an EOF", err)
	}
}

// TestReadLoopMatchesReadFrame runs the corpus through the whole receive
// side — readLoop, the burst hand-off, the actor loop — and requires the
// handlers to see the oracle's messages, in order, up to the same frame,
// with the mid-burst hello merged and not dispatched.
func TestReadLoopMatchesReadFrame(t *testing.T) {
	reg := testReg()
	for i, s := range recvCorpus(t, newNode(t, "recv-loop-corpus", reg), 4, false) {
		n := newNode(t, fmt.Sprintf("recv-loop-%d", i), reg)
		oracleConn := &chunkConn{data: s.data}
		all, _ := recvAll(n, func() ([]byte, error) { return readFrame(oracleConn) })
		var want []*wire.Envelope
		for _, env := range all {
			if _, hello := env.Msg.(*HelloMsg); !hello {
				want = append(want, env)
			}
		}
		rng := rand.New(rand.NewSource(int64(i)))
		for cut, chunk := range map[string]func() int{
			"all at once":   nil,
			"random chunks": func() int { return 1 + rng.Intn(2*readBufSize) },
		} {
			var mu sync.Mutex
			var got []*wire.Envelope
			record := func(_ netapi.Ctx, from ids.ID, msg wire.Message) {
				mu.Lock()
				got = append(got, &wire.Envelope{From: from, Msg: msg})
				mu.Unlock()
			}
			n.Handle("test.echo", record)
			n.Handle("plaxton.route", record)
			n.wg.Add(1)
			n.readLoop(&chunkConn{data: s.data, chunk: chunk}, readBufSize)
			n.Stats() // one trip through the actor loop: every posted burst has run
			mu.Lock()
			if len(got) != len(want) {
				t.Fatalf("%s, %s: handlers saw %d messages, oracle %d", s.name, cut, len(got), len(want))
			}
			for j := range got {
				if got[j].From != want[j].From || !reflect.DeepEqual(got[j].Msg, want[j].Msg) {
					t.Fatalf("%s, %s: message %d is %+v, oracle %+v", s.name, cut, j, got[j].Msg, want[j].Msg)
				}
			}
			mu.Unlock()
			if _, addr, binOK := n.lookupPeer(ids.FromString("recv-peer")); addr != "127.0.0.1:9" || !binOK {
				t.Fatalf("%s, %s: the hello in mid-burst was not merged (addr %q, binary %v)", s.name, cut, addr, binOK)
			}
		}
	}
}

// TestDeliverLocalRunsAfterCallbackBeforeInbox pins the local run queue:
// a message queued from a callback reaches its handler once that
// callback has returned (run to completion), before anything already
// waiting in the inbox, in queueing order — including what handlers
// queue in turn — and its Ctx answers nothing.
func TestDeliverLocalRunsAfterCallbackBeforeInbox(t *testing.T) {
	n := newNode(t, "local-queue", testReg())
	if netapi.Capabilities(n).Local == nil {
		t.Fatal("transport.Node must advertise netapi.Caps.Local")
	}
	var order []string
	n.Handle("test.echo", func(ctx netapi.Ctx, from ids.ID, msg wire.Message) {
		text := msg.(*echoMsg).Text
		order = append(order, text)
		if from != n.ID() {
			t.Errorf("local delivery from %s, want the node itself", from.Short())
		}
		ctx.Reply(&echoMsg{Text: "ignored"})
		if text == "one" {
			n.DeliverLocal(&echoMsg{Text: "three, queued by one's handler"})
		}
	})
	parked, release := make(chan struct{}), make(chan struct{})
	n.Do(func() {
		close(parked)
		<-release
		n.DeliverLocal(&echoMsg{Text: "one"})
		n.DeliverLocal(&echoMsg{Text: "two"})
		order = append(order, "callback done")
	})
	<-parked
	n.Do(func() { order = append(order, "inbox") })
	close(release)
	n.Stats()
	want := []string{"callback done", "one", "two", "three, queued by one's handler", "inbox"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order %q, want %q", order, want)
	}
}

// FuzzFrameReader holds frameReader to readFrame on arbitrary bytes cut
// into arbitrary reads: same frames, same error. Seeded with the
// receive-path corpus. Run it with -fuzzminimizetime 1x: a forged header
// under maxFrame makes both readers allocate that much before they find
// the stream short, and the minimiser's byte-wise passes over a stream of
// frames are full of such headers — it spends its minute per input on
// them, silently.
func FuzzFrameReader(f *testing.F) {
	n, err := Listen(ids.FromString("recv-fuzz"), testReg(), Options{Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = n.Close() })
	for _, s := range recvCorpus(f, n, 5, true) {
		f.Add(s.data, int64(1))
		f.Add(s.data, int64(7))
	}
	buf := make([]byte, readBufSize) // a worker runs one input at a time
	f.Fuzz(func(t *testing.T, data []byte, cut int64) {
		oracleConn := &chunkConn{data: data}
		rng := rand.New(rand.NewSource(cut))
		conn := &chunkConn{data: data, chunk: func() int { return 1 + rng.Intn(int(cut&0xFF)+1) }}
		fr := &frameReader{r: conn, buf: buf}
		for {
			want, wantErr := readFrame(oracleConn)
			got, gotErr := fr.next()
			if errText(gotErr) != errText(wantErr) {
				t.Fatalf("error %v, oracle %v", gotErr, wantErr)
			}
			if gotErr != nil {
				return
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("frame of %d bytes differs from the oracle's of %d", len(got), len(want))
			}
		}
	})
}
