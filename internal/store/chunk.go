package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"

	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/wire"
)

// Node-to-node transfer: every body a node sends a peer — a replica, a
// cache fill, a found get's answer, a pulled put — is one ManifestMsg. A
// body of at most Options.ChunkBytes rides inside it; a larger one
// streams as offset-addressed ChunkMsg frames behind it, so a 10 MiB
// object never serialises as a single frame through the byte-budgeted
// outbox. Chunks are data, not control — a saturated link sheds them and
// the transfer times out; repair retries next round. Either way the
// receiver checks the body against the manifest's hash before land hands
// it to the transfer's purpose.

// Transfer purposes: what the receiver does with the body.
const (
	xferReplicate = 1 + iota // store a replica
	xferCacheFill            // seed the promiscuous cache
	xferGetReply             // complete a pending get
	xferPut                  // root pulled a large put from its origin
)

// XXH64 primes.
const (
	p1 uint64 = 11400714785074694791
	p2 uint64 = 14029467366897019727
	p3 uint64 = 1609587929392839161
	p4 uint64 = 9650029242287828579
	p5 uint64 = 2870177450012600261
)

func round(acc, in uint64) uint64 { return bits.RotateLeft64(acc+in*p2, 31) * p1 }

// hash64 is XXH64 (seed 0) over the object body: the shared 64-bit
// integrity/staleness check of transfers (ManifestMsg.Hash) and
// digests (DigestEntry.Hash).
func hash64(b []byte) uint64 {
	h := newHasher()
	return h.finish(len(b), h.stripes(b))
}

// hasher is hash64 fed in pieces of any length. Word-at-a-time — four
// independent lanes over 32-byte stripes — because it runs over every
// transferred byte; carry holds a stripe a write left incomplete.
type hasher struct {
	v1, v2, v3, v4 uint64
	n              int
	carry          [32]byte // carry[:n%32] is the incomplete stripe
}

func newHasher() hasher {
	p := p1 // a variable, so that the sums wrap instead of overflowing at compile time
	return hasher{v1: p + p2, v2: p2, v4: -p}
}

func (h *hasher) write(b []byte) {
	c := h.n % 32
	h.n += len(b)
	if c > 0 {
		k := copy(h.carry[c:], b)
		if c+k < 32 {
			return
		}
		h.stripes(h.carry[:])
		b = b[k:]
	}
	copy(h.carry[:], h.stripes(b))
}

// stripes absorbs every whole 32-byte stripe of b and returns the rest.
func (h *hasher) stripes(b []byte) []byte {
	v1, v2, v3, v4 := h.v1, h.v2, h.v3, h.v4
	for ; len(b) >= 32; b = b[32:] {
		v1 = round(v1, binary.LittleEndian.Uint64(b))
		v2 = round(v2, binary.LittleEndian.Uint64(b[8:]))
		v3 = round(v3, binary.LittleEndian.Uint64(b[16:]))
		v4 = round(v4, binary.LittleEndian.Uint64(b[24:]))
	}
	h.v1, h.v2, h.v3, h.v4 = v1, v2, v3, v4
	return b
}

func (h *hasher) sum() uint64 { return h.finish(h.n, h.carry[:h.n%32]) }

// finish folds the lanes (used once the total length n reaches a
// stripe) and the < 32-byte tail b into the sum.
func (h *hasher) finish(n int, b []byte) uint64 {
	x := p5
	if n >= 32 {
		x = bits.RotateLeft64(h.v1, 1) + bits.RotateLeft64(h.v2, 7) + bits.RotateLeft64(h.v3, 12) + bits.RotateLeft64(h.v4, 18)
		for _, v := range [4]uint64{h.v1, h.v2, h.v3, h.v4} {
			x = (x^round(0, v))*p1 + p4
		}
	}
	x += uint64(n)
	for ; len(b) >= 8; b = b[8:] {
		x = bits.RotateLeft64(x^round(0, binary.LittleEndian.Uint64(b)), 27)*p1 + p4
	}
	if len(b) >= 4 {
		x = bits.RotateLeft64(x^uint64(binary.LittleEndian.Uint32(b))*p1, 23)*p2 + p3
		b = b[4:]
	}
	for _, c := range b {
		x = bits.RotateLeft64(x^uint64(c)*p5, 11) * p1
	}
	x = (x ^ x>>33) * p2
	x = (x ^ x>>29) * p3
	return x ^ x>>32
}

// maxChunks bounds the pieces one transfer may be cut into, so that a
// manifest cannot make the receiver allocate a piece table out of
// proportion to its bytes. Senders widen their chunks to stay under it.
const maxChunks = 1 << 14

// reassembly is the pure chunk-reassembly state machine: fixed-size
// chunks kept as the slices they arrived in, hashed as the prefix from
// offset 0 completes. Pure so the fuzzer can drive it directly against
// hostile geometry (truncated totals, misaligned offsets, wrong lengths).
type reassembly struct {
	total  int
	chunk  int
	hash   uint64
	pieces [][]byte // by chunk index; nil until received
	hashed int      // pieces[:hashed] are absorbed into h: all of them once complete
	h      hasher
}

func newReassembly(totalLen, chunk, maxObject int, hash uint64) (*reassembly, error) {
	if totalLen <= 0 || totalLen > maxObject {
		return nil, fmt.Errorf("store: transfer length %d out of range (max %d)", totalLen, maxObject)
	}
	if chunk <= 0 || chunk > maxObject {
		return nil, fmt.Errorf("store: chunk size %d out of range", chunk)
	}
	n := (totalLen + chunk - 1) / chunk
	if n > maxChunks {
		return nil, fmt.Errorf("store: transfer of %d bytes in %d-byte chunks needs %d pieces (max %d)", totalLen, chunk, n, maxChunks)
	}
	return &reassembly{
		total:  totalLen,
		chunk:  chunk,
		hash:   hash,
		pieces: make([][]byte, n),
		h:      newHasher(),
	}, nil
}

// add takes one chunk in; the reassembly keeps data itself, which must
// not change afterwards. done reports the body is complete and
// hash-verified; a non-nil error poisons the whole transfer (corrupt or
// hostile geometry — the caller must drop the state).
func (ra *reassembly) add(off int, data []byte) (done bool, err error) {
	if off < 0 || off >= ra.total || off%ra.chunk != 0 {
		return false, fmt.Errorf("store: chunk offset %d invalid for %d-byte transfer", off, ra.total)
	}
	want := ra.chunk
	if off+want > ra.total {
		want = ra.total - off
	}
	if len(data) != want {
		return false, fmt.Errorf("store: chunk at %d has %d bytes, want %d", off, len(data), want)
	}
	idx := off / ra.chunk
	if ra.pieces[idx] != nil {
		return false, nil // duplicate delivery: benign, ignore
	}
	ra.pieces[idx] = data
	for ; ra.hashed < len(ra.pieces) && ra.pieces[ra.hashed] != nil; ra.hashed++ {
		ra.h.write(ra.pieces[ra.hashed])
	}
	if ra.hashed < len(ra.pieces) {
		return false, nil
	}
	if ra.h.sum() != ra.hash {
		return false, fmt.Errorf("store: reassembled transfer fails hash check")
	}
	return true, nil
}

// xferKey identifies one inbound transfer: sender-scoped so transfer IDs
// from different nodes cannot collide.
type xferKey struct {
	from ids.ID
	id   uint64
}

// xfer is one inbound chunked transfer's reassembly state and the
// manifest that opened it, which says what the body is for.
type xfer struct {
	ra   *reassembly
	guid ids.ID
	mm   *ManifestMsg
	// progress vs sweptAt implement the timeout GC: a sweep that finds no
	// progress since the last one drops the state.
	progress uint64
	sweptAt  uint64
}

// fits reports whether an n-byte body travels inside one frame — its
// routed put or its transfer's manifest — rather than pulled or chunked.
func (s *Store) fits(n int) bool { return n <= s.opts.ChunkBytes }

// send moves b to a peer as one transfer. mm names the object and what
// the receiver does with it; send fills in the body's length and hash,
// and carries the body inside mm when it fits, else streams it behind mm
// as chunk frames: the pieces it arrived in if they are this node's
// chunks, else cuts of one slice.
func (s *Store) send(to ids.ID, mm *ManifestMsg, b *blob) {
	size := b.size()
	mm.TotalLen, mm.Hash = size, b.hash()
	if s.fits(size) {
		mm.Data = b.bytes()
		s.ep.Send(to, mm)
		return
	}
	chunk := max(s.opts.ChunkBytes, (size+maxChunks-1)/maxChunks)
	var data []byte
	if len(b.pieces) < 2 || len(b.pieces[0]) != chunk {
		data = b.bytes()
	}
	s.nextXfer++
	mm.Xfer, mm.Chunk = s.nextXfer, chunk
	s.ep.Send(to, mm)
	for off := 0; off < size; off += chunk {
		var piece []byte
		if data != nil {
			end := min(off+chunk, size)
			piece = data[off:end:end] // capped, so a receiver sharing the bytes keeps it (handleChunk)
		} else {
			piece = b.pieces[off/chunk]
		}
		s.stats.ChunkFramesSent++
		s.ep.Send(to, &ChunkMsg{Xfer: mm.Xfer, Off: off, Data: piece})
	}
}

// handleManifest takes a transfer in: a body that rode inside is checked
// and landed now, a chunked one opens reassembly state.
func (s *Store) handleManifest(_ netapi.Ctx, from ids.ID, msg wire.Message) {
	mm := msg.(*ManifestMsg)
	guid, err := ids.Parse(mm.GUID)
	if err != nil {
		return
	}
	switch mm.Purpose {
	case xferReplicate, xferCacheFill, xferGetReply, xferPut:
	default:
		return
	}
	if len(mm.Data) == mm.TotalLen {
		// The whole body rode inside: it passes the check a reassembled
		// one does.
		if hash64(mm.Data) != mm.Hash {
			s.stats.ChunkCorrupt++
			return
		}
		s.land(from, guid, mm, &blob{data: mm.Data, sum: mm.Hash, summed: true})
		return
	}
	ra, err := newReassembly(mm.TotalLen, mm.Chunk, s.opts.maxObjectBytes, mm.Hash)
	if err != nil {
		return
	}
	key := xferKey{from: from, id: mm.Xfer}
	// A repeated manifest (sender restarted the transfer) replaces any
	// half-built state under the same key.
	s.xfers[key] = &xfer{ra: ra, guid: guid, mm: mm}
	s.sweepXfer(key)
}

// sweepXfer schedules the transfer's timeout GC: every chunkTimeout the
// sweep either observes progress and re-arms, or drops the state.
func (s *Store) sweepXfer(key xferKey) {
	s.ep.Clock().After(s.opts.chunkTimeout, func() {
		x, ok := s.xfers[key]
		if !ok {
			return
		}
		if x.progress == x.sweptAt {
			delete(s.xfers, key)
			s.stats.ChunkTimeouts++
			return
		}
		x.sweptAt = x.progress
		s.sweepXfer(key)
	})
}

func (s *Store) handleChunk(_ netapi.Ctx, from ids.ID, msg wire.Message) {
	cm := msg.(*ChunkMsg)
	key := xferKey{from: from, id: cm.Xfer}
	x, ok := s.xfers[key]
	if !ok {
		// A sender queues a manifest and its chunks back to back on one
		// link, and both substrates keep a link's order, so a chunk with
		// no open transfer belongs to one that completed, failed, timed
		// out or lost its manifest: nothing would ever take it.
		return
	}
	data := cm.Data
	if cap(data)-len(data) > len(data)/8 {
		// The piece is kept as the slice it came in, so that slice's storage
		// must not run far past it: a frame padded behind its chunk would
		// stay alive under a byte count that leaves the padding out.
		data = bytes.Clone(data)
	}
	done, err := x.ra.add(cm.Off, data)
	if err != nil {
		delete(s.xfers, key)
		s.stats.ChunkCorrupt++
		return
	}
	s.stats.ChunkFramesRecv++
	x.progress++
	if !done {
		return
	}
	delete(s.xfers, key)
	s.land(from, x.guid, x.mm, &blob{pieces: x.ra.pieces, sum: x.ra.hash, summed: true})
}

// land hands a transfer's body, checked against its manifest's hash, to
// the manifest's purpose. The blob carries the verified sum: nobody
// derives it again.
func (s *Store) land(from, guid ids.ID, mm *ManifestMsg, b *blob) {
	switch mm.Purpose {
	case xferReplicate:
		s.setObject(guid, b)
		if mm.Pin {
			s.pinned[guid] = true
		}
	case xferCacheFill:
		if !s.opts.DisableCache {
			s.cache.put(guid, b)
		}
	case xferGetReply:
		s.completeGet(mm.ReqID, guid, b)
	case xferPut:
		s.storeAndReplicate(guid, b)
		s.ep.Send(from, &AckMsg{ReqID: mm.ReqID, OK: true})
	}
}

// handlePull runs at a large put's origin: the root asks for the bytes.
func (s *Store) handlePull(_ netapi.Ctx, from ids.ID, msg wire.Message) {
	pm := msg.(*PullMsg)
	p, ok := s.pendingPuts[pm.ReqID]
	if !ok || p.content == nil {
		return // put already timed out (or bogus pull): nothing to stream
	}
	s.send(from, &ManifestMsg{GUID: pm.GUID, Purpose: xferPut, ReqID: pm.ReqID}, p.content)
}
