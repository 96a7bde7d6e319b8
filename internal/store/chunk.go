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

// Chunked node-to-node transfer: bodies larger than Options.ChunkBytes
// stream as offset-addressed ChunkMsg frames behind a ManifestMsg, so a
// 10 MiB object never serialises as a single frame through the
// byte-budgeted outbox. Chunks are data, not control — a saturated link
// sheds them and the transfer times out; repair retries next round.

// Transfer purposes: what the receiver does with the reassembled body.
const (
	xferReplicate = 1 + iota // store a replica (ReplicateMsg equivalent)
	xferCacheFill            // seed the promiscuous cache (CacheFillMsg)
	xferGetReply             // complete a pending get (GetReplyMsg)
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
// integrity/staleness check of chunk transfers (ManifestMsg.Hash) and
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

// maxEarlyChunks bounds how many chunks delivered ahead of their
// manifest (network reordering) are buffered per transfer.
const maxEarlyChunks = 256

// earlyChunkOverhead is what holding an early chunk costs beyond its
// bytes (the message, its slot, for a fresh transfer the map entry and
// sweep timer), so that empty chunks cannot be held without bound.
const earlyChunkOverhead = 256

// xfer is one inbound transfer's reassembly state plus completion context.
type xfer struct {
	ra        *reassembly
	guid      ids.ID
	purpose   int
	reqID     uint64
	hops      int
	fromCache bool
	pin       bool
	// progress vs sweptAt implement the timeout GC: a sweep that finds no
	// progress since the last one drops the state.
	progress uint64
	sweptAt  uint64
}

// chunkBytes returns the effective chunk threshold: 0 means chunking is
// off (ChunkBytes < 0).
func (s *Store) chunkBytes() int {
	return max(s.opts.ChunkBytes, 0)
}

// sendChunked streams a body to a peer as manifest + chunk frames: the
// pieces it arrived in if they are this node's chunks, else cuts of one slice.
func (s *Store) sendChunked(to ids.ID, purpose int, guid ids.ID, b *blob, reqID uint64, hops int, fromCache, pin bool) {
	size := b.size()
	chunk := max(s.chunkBytes(), (size+maxChunks-1)/maxChunks)
	var data []byte
	if len(b.pieces) < 2 || len(b.pieces[0]) != chunk {
		data = b.bytes()
	}
	s.nextXfer++
	s.ep.Send(to, &ManifestMsg{
		Xfer:      s.nextXfer,
		GUID:      guid.String(),
		Purpose:   purpose,
		TotalLen:  size,
		Chunk:     chunk,
		Hash:      b.hash(),
		ReqID:     reqID,
		Hops:      hops,
		FromCache: fromCache,
		Pin:       pin,
	})
	for off := 0; off < size; off += chunk {
		var piece []byte
		if data != nil {
			end := min(off+chunk, size)
			piece = data[off:end:end] // capped, so a receiver sharing the bytes keeps it (handleChunk)
		} else {
			piece = b.pieces[off/chunk]
		}
		s.stats.ChunkFramesSent++
		s.ep.Send(to, &ChunkMsg{Xfer: s.nextXfer, Off: off, Data: piece})
	}
}

// sendObject delivers a replica or cache fill, chunked when the body
// exceeds the threshold.
func (s *Store) sendObject(to ids.ID, purpose int, guid ids.ID, b *blob) {
	s.sendObjectPinned(to, purpose, guid, b, false)
}

func (s *Store) sendObjectPinned(to ids.ID, purpose int, guid ids.ID, b *blob, pin bool) {
	if cb := s.chunkBytes(); cb > 0 && b.size() > cb {
		s.sendChunked(to, purpose, guid, b, 0, 0, false, pin)
		return
	}
	switch purpose {
	case xferReplicate:
		s.ep.Send(to, &ReplicateMsg{GUID: guid.String(), Pin: pin, Data: b.bytes()})
	case xferCacheFill:
		s.ep.Send(to, &CacheFillMsg{GUID: guid.String(), Data: b.bytes()})
	}
}

// sendGetReply answers a remote get with b (nil: not found), chunking
// large bodies.
func (s *Store) sendGetReply(to ids.ID, reply *GetReplyMsg, b *blob) {
	if b != nil {
		reply.Found = true
		if cb := s.chunkBytes(); cb > 0 && b.size() > cb {
			guid, err := ids.Parse(reply.GUID)
			if err != nil {
				return
			}
			s.sendChunked(to, xferGetReply, guid, b, reply.ReqID, reply.Hops, reply.FromCache, false)
			return
		}
		reply.Data = b.bytes()
	}
	s.ep.Send(to, reply)
}

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
	ra, err := newReassembly(mm.TotalLen, mm.Chunk, s.opts.MaxObjectBytes, mm.Hash)
	if err != nil {
		return
	}
	key := xferKey{from: from, id: mm.Xfer}
	// A repeated manifest (sender restarted the transfer) replaces any
	// half-built state under the same key.
	s.xfers[key] = &xfer{
		ra:        ra,
		guid:      guid,
		purpose:   mm.Purpose,
		reqID:     mm.ReqID,
		hops:      mm.Hops,
		fromCache: mm.FromCache,
		pin:       mm.Pin,
	}
	s.sweepXfer(key)
	for _, cm := range s.takeEarly(key) {
		s.applyChunk(key, from, cm)
	}
}

// takeEarly removes and returns the chunks held for key.
func (s *Store) takeEarly(key xferKey) []*ChunkMsg {
	buf := s.early[key]
	delete(s.early, key)
	for _, cm := range buf {
		s.earlyBytes -= len(cm.Data) + earlyChunkOverhead
	}
	return buf
}

// sweepXfer schedules the transfer's timeout GC: every ChunkTimeout the
// sweep either observes progress and re-arms, or drops the state.
func (s *Store) sweepXfer(key xferKey) {
	s.ep.Clock().After(s.opts.ChunkTimeout, func() {
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

// sweepEarly drops an early-chunk buffer whose manifest never showed up.
func (s *Store) sweepEarly(key xferKey) {
	s.ep.Clock().After(s.opts.ChunkTimeout, func() {
		if s.takeEarly(key) != nil {
			s.stats.ChunkTimeouts++
		}
	})
}

func (s *Store) handleChunk(_ netapi.Ctx, from ids.ID, msg wire.Message) {
	cm := msg.(*ChunkMsg)
	if cap(cm.Data)-len(cm.Data) > len(cm.Data)/8 {
		// The piece is kept as the slice it came in, so that slice's storage
		// must not run far past it: a frame padded behind its chunk would
		// stay alive under a byte count that leaves the padding out.
		cm = &ChunkMsg{Xfer: cm.Xfer, Off: cm.Off, Data: bytes.Clone(cm.Data)}
	}
	key := xferKey{from: from, id: cm.Xfer}
	if _, ok := s.xfers[key]; !ok {
		// Reordering can deliver chunks ahead of their manifest: hold a
		// bounded few per transfer, and no more than one object's worth
		// across all of them, until it arrives (sweepEarly drops orphans,
		// so a completed or timed-out transfer's stragglers die here too).
		buf := s.early[key]
		cost := len(cm.Data) + earlyChunkOverhead
		if len(buf) >= maxEarlyChunks || s.earlyBytes+cost > s.opts.MaxObjectBytes {
			return
		}
		if len(buf) == 0 {
			s.sweepEarly(key)
		}
		s.early[key] = append(buf, cm)
		s.earlyBytes += cost
		return
	}
	s.applyChunk(key, from, cm)
}

// applyChunk feeds one chunk into an open transfer's reassembly.
func (s *Store) applyChunk(key xferKey, from ids.ID, cm *ChunkMsg) {
	x, ok := s.xfers[key]
	if !ok {
		return
	}
	done, err := x.ra.add(cm.Off, cm.Data)
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
	s.completeXfer(from, x)
}

// completeXfer dispatches a fully reassembled body to its purpose.
func (s *Store) completeXfer(from ids.ID, x *xfer) {
	// The reassembly has just checked the body against the manifest hash:
	// the blob carries that sum, nobody derives it again.
	b := &blob{pieces: x.ra.pieces, sum: x.ra.hash, summed: true}
	switch x.purpose {
	case xferReplicate:
		s.setObject(x.guid, b)
		if x.pin {
			s.pinned[x.guid] = true
		}
	case xferCacheFill:
		if !s.opts.DisableCache {
			s.cache.put(x.guid, b)
		}
	case xferGetReply:
		s.completeGet(x.reqID, x.guid.String(), b)
	case xferPut:
		s.storeAndReplicate(x.guid, b)
		s.ep.Send(from, &AckMsg{ReqID: x.reqID, OK: true})
	}
}

// handlePull runs at a large put's origin: the root asks for the bytes.
func (s *Store) handlePull(_ netapi.Ctx, from ids.ID, msg wire.Message) {
	pm := msg.(*PullMsg)
	p, ok := s.pendingPuts[pm.ReqID]
	if !ok || p.content == nil {
		return // put already timed out (or bogus pull): nothing to stream
	}
	guid, err := ids.Parse(pm.GUID)
	if err != nil {
		return
	}
	s.sendChunked(from, xferPut, guid, p.content, pm.ReqID, 0, false, false)
}
