package store

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/plaxton"
	"github.com/gloss/active/internal/transport"
	"github.com/gloss/active/internal/wire"
)

// chunkStream cuts body into the manifest and chunk frames a peer with
// the given chunk size sends for a replica push; each chunk's bytes are a
// separate allocation, as a received frame's are.
func chunkStream(guid ids.ID, body []byte, chunk int) (*ManifestMsg, []*ChunkMsg) {
	mm := &ManifestMsg{Xfer: 1, GUID: guid.String(), Purpose: xferReplicate, TotalLen: len(body), Chunk: chunk, Hash: hash64(body)}
	var cms []*ChunkMsg
	for off := 0; off < len(body); off += chunk {
		cms = append(cms, &ChunkMsg{Xfer: 1, Off: off, Data: bytes.Clone(body[off:min(off+chunk, len(body))])})
	}
	return mm, cms
}

// TestChunkedReceiveKeepsFrames: a 512 KiB replica received as eight
// chunk frames is stored as those frames' bytes — no second buffer of
// the object's size — and pushing it on re-sends the same bytes.
func TestChunkedReceiveKeepsFrames(t *testing.T) {
	c := buildCluster(t, 91, 3, Options{RepairInterval: -1})
	recv, from, next := c.stores[0], c.stores[1].ep.ID(), c.stores[2]
	body := make([]byte, 512<<10)
	rand.New(rand.NewSource(91)).Read(body)
	guid := ids.FromString("kept-frames")
	mm, cms := chunkStream(guid, body, 64<<10)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	recv.handleManifest(nil, from, mm)
	for _, cm := range cms {
		recv.handleChunk(nil, from, cm)
	}
	runtime.ReadMemStats(&m1)

	b, ok := recv.objects[guid]
	if !ok {
		t.Fatal("the replica was not stored")
	}
	if len(b.pieces) != len(cms) {
		t.Fatalf("stored %d pieces, want the %d frames", len(b.pieces), len(cms))
	}
	for i, p := range b.pieces {
		if &p[0] != &cms[i].Data[0] {
			t.Fatalf("piece %d is a copy, not the received frame's bytes", i)
		}
	}
	if rise := m1.TotalAlloc - m0.TotalAlloc; rise >= 16<<10 && !raceEnabled {
		t.Fatalf("receiving a 512 KiB replica allocated %d B, want < 16 KiB", rise)
	}

	recv.pushReplica(next.ep.ID(), guid, b)
	c.world.RunFor(5 * time.Second)
	nb, ok := next.objects[guid]
	if !ok || len(nb.pieces) != len(cms) {
		t.Fatalf("the pushed replica did not arrive as %d pieces", len(cms))
	}
	for i, p := range nb.pieces {
		if &p[0] != &cms[i].Data[0] {
			t.Fatalf("pushed piece %d was cut from a flattened copy", i)
		}
	}
	if !bytes.Equal(nb.bytes(), body) || !bytes.Equal(b.bytes(), body) {
		t.Fatal("a held body reads back wrong")
	}
}

// TestPaddedChunkIsCopied: a chunk whose slice has storage running far
// past it — a frame padded behind its chunk — is copied out rather than
// kept, whether it lands in an open transfer or ahead of its manifest,
// so a held piece pins only about the bytes it counts.
func TestPaddedChunkIsCopied(t *testing.T) {
	c := buildCluster(t, 96, 2, Options{RepairInterval: -1})
	recv, from := c.stores[0], c.stores[1].ep.ID()
	body := []byte("sixteen bytes!!!")
	guid := ids.FromString("padded")
	mm, _ := chunkStream(guid, body, 4)
	padded := func(off int) []byte {
		frame := make([]byte, 1<<20)
		return append(frame[:0], body[off:off+4]...)
	}
	recv.handleChunk(nil, from, &ChunkMsg{Xfer: 1, Off: 0, Data: padded(0)}) // ahead of the manifest
	recv.handleManifest(nil, from, mm)
	for off := 4; off < len(body); off += 4 {
		recv.handleChunk(nil, from, &ChunkMsg{Xfer: 1, Off: off, Data: padded(off)})
	}
	b, ok := recv.objects[guid]
	if !ok || len(b.pieces) != len(body)/4 {
		t.Fatal("the padded transfer was not stored in pieces")
	}
	for i, p := range b.pieces {
		if cap(p) > 2*len(p) {
			t.Fatalf("piece %d keeps %d bytes in %d bytes of storage", i, len(p), cap(p))
		}
	}
	if !bytes.Equal(b.bytes(), body) {
		t.Fatal("the padded transfer reads back wrong")
	}
}

// TestPaddedChunkFramesOverTCP: a peer that pads its chunk frames on a
// binary link — bytes behind the chunk, or an error text ahead of it —
// cannot make a node hold those frames: once the transfer is stored,
// the heap keeps about the chunks, not the padding.
func TestPaddedChunkFramesOverTCP(t *testing.T) {
	reg := wire.NewRegistry()
	transport.RegisterMessages(reg)
	plaxton.RegisterMessages(reg)
	RegisterMessages(reg)
	node, err := transport.Listen(ids.FromString("padded-tcp"), reg, transport.Options{Region: "test", Seed: 1, Codec: wire.CodecBinary})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { _ = node.Close() })
	ov := plaxton.New(node, reg, wire.CodecBinary, plaxton.Options{HeartbeatInterval: -1, LeafHalf: 4})
	s := New(node, ov, Options{RepairInterval: -1})
	node.Do(ov.CreateNetwork)
	conn, err := net.Dial("tcp", node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	codec := wire.NewBinaryCodec(reg)
	send := func(msg wire.Message, errText string, trailing int) {
		frame, err := codec.Encode(&wire.Envelope{From: ids.FromString("padding-peer"), To: node.ID(), Err: errText, Msg: msg})
		if err != nil {
			t.Fatal(err)
		}
		frame = append(binary.BigEndian.AppendUint32(nil, uint32(len(frame)+trailing)), frame...)
		if _, err := conn.Write(append(frame, make([]byte, trailing)...)); err != nil {
			t.Fatal(err)
		}
	}

	const chunks, pad = 16, 1 << 20
	body := make([]byte, chunks)
	rand.New(rand.NewSource(97)).Read(body)
	for i, how := range []string{"behind the chunk", "as an error text"} {
		guid, xfer := ids.FromString("padded "+how), uint64(i+1)
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		send(&ManifestMsg{Xfer: xfer, GUID: guid.String(), Purpose: xferReplicate, TotalLen: chunks, Chunk: 1, Hash: hash64(body)}, "", 0)
		for off := range chunks {
			cm := &ChunkMsg{Xfer: xfer, Off: off, Data: body[off : off+1]}
			if i == 0 {
				send(cm, "", pad)
			} else {
				send(cm, string(make([]byte, pad)), 0)
			}
		}
		stored := make(chan bool, 1)
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			node.Do(func() { _, ok := s.objects[guid]; stored <- ok })
			if <-stored {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("the transfer padded %s was never stored", how)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&m1)
		held := int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
		if held > chunks*pad/4 {
			t.Errorf("%d chunk bytes padded %s hold %d B of heap", chunks, how, held)
		}
		t.Logf("%d chunk bytes padded %s: heap grew %d B", chunks, how, held)
	}
}

// TestPiecedBodyReadsAndResends covers the pieced blob's other uses: a
// repair round sniffs it without flattening; a push under a different
// chunk size re-cuts it; a local Get flattens it once and keeps the
// flat copy.
func TestPiecedBodyReadsAndResends(t *testing.T) {
	c := buildCluster(t, 92, 3, Options{RepairInterval: -1, ChunkBytes: 48 << 10})
	guid := ids.FromString("pieced-reads")
	// The object's root receives it: fragCheck looks only at rooted objects.
	for i, s := range c.stores {
		if s.isRoot(guid) {
			c.stores[0], c.stores[i] = s, c.stores[0]
		}
	}
	recv, from, next := c.stores[0], c.stores[1].ep.ID(), c.stores[2]
	body := make([]byte, 300<<10)
	rand.New(rand.NewSource(92)).Read(body)
	mm, cms := chunkStream(guid, body, 64<<10)
	recv.handleManifest(nil, from, mm)
	for _, cm := range cms {
		recv.handleChunk(nil, from, cm)
	}
	b := recv.objects[guid]
	recv.repair()
	if b.pieces == nil {
		t.Fatal("a repair round flattened a held body")
	}

	recv.pushReplica(next.ep.ID(), guid, b)
	c.world.RunFor(5 * time.Second)
	nb, ok := next.objects[guid]
	if !ok || len(nb.pieces) != (len(body)+48<<10-1)/(48<<10) {
		t.Fatalf("the push did not arrive in this node's 48 KiB chunks")
	}
	if !bytes.Equal(nb.bytes(), body) {
		t.Fatal("the re-cut replica reads back wrong")
	}

	var got []byte
	recv.Get(guid, func(d []byte, err error) { got = d })
	if !bytes.Equal(got, body) || b.pieces != nil || &b.data[0] != &got[0] {
		t.Fatal("a local Get did not flatten the held body once and keep it")
	}
}

// TestManifestBoundsPieces: a manifest asking for more than maxChunks
// pieces opens no transfer and allocates nothing of its size; a sender
// widens its chunks to stay under the bound.
func TestManifestBoundsPieces(t *testing.T) {
	c := buildCluster(t, 93, 2, Options{RepairInterval: -1})
	recv, from := c.stores[0], c.stores[1].ep.ID()
	mm := &ManifestMsg{Xfer: 9, GUID: ids.FromString("bomb").String(), Purpose: xferReplicate, TotalLen: 64 << 20, Chunk: 1}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	recv.handleManifest(nil, from, mm)
	runtime.ReadMemStats(&m1)
	if len(recv.xfers) != 0 {
		t.Fatalf("a %d-piece manifest opened a transfer", mm.TotalLen)
	}
	if rise := m1.TotalAlloc - m0.TotalAlloc; rise >= 64<<10 {
		t.Fatalf("refusing the manifest allocated %d B", rise)
	}

	// A sender configured for 1-byte chunks cuts a 64 KiB body into
	// maxChunks pieces of 4 bytes, which the receiver accepts.
	sender := c.stores[1]
	sender.opts.ChunkBytes = 1
	sent := &sendLog{Endpoint: sender.ep}
	sender.ep = sent
	body := make([]byte, 64<<10)
	rand.New(rand.NewSource(94)).Read(body)
	guid := ids.FromString("widened")
	sender.pushReplica(recv.ep.ID(), guid, &blob{data: body})
	for _, msg := range sent.msgs {
		switch m := msg.(type) {
		case *ManifestMsg:
			recv.handleManifest(nil, from, m)
		case *ChunkMsg:
			recv.handleChunk(nil, from, m)
		}
	}
	got, ok := recv.objects[guid]
	if !ok || len(got.pieces) != maxChunks || !bytes.Equal(got.bytes(), body) {
		t.Fatalf("a widened transfer did not arrive intact in %d pieces", maxChunks)
	}
}

// sendLog records what a store sends instead of sending it.
type sendLog struct {
	netapi.Endpoint
	msgs []wire.Message
}

func (l *sendLog) Send(_ ids.ID, msg wire.Message) { l.msgs = append(l.msgs, msg) }

// TestEarlyChunksBoundedAcrossTransfers: chunks held ahead of their
// manifest are capped in total bytes, not only per transfer, so naming
// fresh transfer IDs pins no more than MaxObjectBytes.
func TestEarlyChunksBoundedAcrossTransfers(t *testing.T) {
	const limit = 64 << 10
	c := buildCluster(t, 95, 2, Options{RepairInterval: -1, MaxObjectBytes: limit, ChunkTimeout: time.Second})
	recv, from := c.stores[0], c.stores[1].ep.ID()
	for i := 0; i < 1000; i++ {
		recv.handleChunk(nil, from, &ChunkMsg{Xfer: uint64(1000 + i), Off: 0, Data: make([]byte, 1<<10)})
	}
	held := 0
	for _, buf := range recv.early {
		for _, cm := range buf {
			held += len(cm.Data) + earlyChunkOverhead
		}
	}
	if held > limit || held != recv.earlyBytes {
		t.Fatalf("early chunks hold %d B (counted %d), want at most %d", held, recv.earlyBytes, limit)
	}
	c.world.RunFor(3 * time.Second)
	if len(recv.early) != 0 || recv.earlyBytes != 0 {
		t.Fatalf("after the timeout %d early transfers and %d B remain", len(recv.early), recv.earlyBytes)
	}
}

// TestEmptyEarlyChunksBounded: an empty chunk held ahead of its manifest
// is charged its entry's overhead, so a flood of them under fresh
// transfer IDs holds at most MaxObjectBytes/earlyChunkOverhead entries.
func TestEmptyEarlyChunksBounded(t *testing.T) {
	const limit = 64 << 10
	c := buildCluster(t, 96, 2, Options{RepairInterval: -1, MaxObjectBytes: limit, ChunkTimeout: time.Second})
	recv, from := c.stores[0], c.stores[1].ep.ID()
	for i := 0; i < 20000; i++ {
		recv.handleChunk(nil, from, &ChunkMsg{Xfer: uint64(1000 + i), Off: 0})
	}
	entries := 0
	for _, buf := range recv.early {
		entries += len(buf)
	}
	if want := limit / earlyChunkOverhead; entries > want {
		t.Fatalf("%d empty early chunks held, want at most %d", entries, want)
	}
	c.world.RunFor(3 * time.Second)
	if len(recv.early) != 0 || recv.earlyBytes != 0 {
		t.Fatalf("after the timeout %d early transfers and %d B remain", len(recv.early), recv.earlyBytes)
	}
}
