package store

import (
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

// hash64 is XXH64 (seed 0) over the object body: the shared 64-bit
// integrity/staleness check of chunk transfers (ManifestMsg.Hash) and
// digests (DigestEntry.Hash). Word-at-a-time — four independent lanes
// over 32-byte stripes — because it runs over every transferred byte.
func hash64(b []byte) uint64 {
	const (
		p1 uint64 = 11400714785074694791
		p2 uint64 = 14029467366897019727
		p3 uint64 = 1609587929392839161
		p4 uint64 = 9650029242287828579
		p5 uint64 = 2870177450012600261
	)
	round := func(acc, in uint64) uint64 { return bits.RotateLeft64(acc+in*p2, 31) * p1 }
	h, n := p5, uint64(len(b))
	if n >= 32 {
		v1, v2, v3, v4 := p1, p2, uint64(0), uint64(0)
		v1 += p2
		v4 -= p1
		for ; len(b) >= 32; b = b[32:] {
			v1 = round(v1, binary.LittleEndian.Uint64(b))
			v2 = round(v2, binary.LittleEndian.Uint64(b[8:]))
			v3 = round(v3, binary.LittleEndian.Uint64(b[16:]))
			v4 = round(v4, binary.LittleEndian.Uint64(b[24:]))
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) + bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		for _, v := range [4]uint64{v1, v2, v3, v4} {
			h = (h^round(0, v))*p1 + p4
		}
	}
	h += n
	for ; len(b) >= 8; b = b[8:] {
		h = bits.RotateLeft64(h^round(0, binary.LittleEndian.Uint64(b)), 27)*p1 + p4
	}
	if len(b) >= 4 {
		h = bits.RotateLeft64(h^uint64(binary.LittleEndian.Uint32(b))*p1, 23)*p2 + p3
		b = b[4:]
	}
	for _, c := range b {
		h = bits.RotateLeft64(h^uint64(c)*p5, 11) * p1
	}
	h = (h ^ h>>33) * p2
	h = (h ^ h>>29) * p3
	return h ^ h>>32
}

// reassembly is the pure chunk-reassembly state machine: fixed-size
// chunks copied into a preallocated buffer, tracked by a per-chunk
// bitmap. Pure so the fuzzer can drive it directly against hostile
// geometry (truncated totals, misaligned offsets, wrong lengths).
type reassembly struct {
	total     int
	chunk     int
	hash      uint64
	buf       []byte
	got       []bool
	remaining int
}

func newReassembly(totalLen, chunk, maxObject int, hash uint64) (*reassembly, error) {
	if totalLen <= 0 || totalLen > maxObject {
		return nil, fmt.Errorf("store: transfer length %d out of range (max %d)", totalLen, maxObject)
	}
	if chunk <= 0 || chunk > maxObject {
		return nil, fmt.Errorf("store: chunk size %d out of range", chunk)
	}
	n := (totalLen + chunk - 1) / chunk
	return &reassembly{
		total:     totalLen,
		chunk:     chunk,
		hash:      hash,
		buf:       make([]byte, totalLen),
		got:       make([]bool, n),
		remaining: n,
	}, nil
}

// add copies one chunk in. done reports the body is complete and
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
	if ra.got[idx] {
		return false, nil // duplicate delivery: benign, ignore
	}
	copy(ra.buf[off:], data)
	ra.got[idx] = true
	ra.remaining--
	if ra.remaining > 0 {
		return false, nil
	}
	if hash64(ra.buf) != ra.hash {
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

// sendChunked streams a body to a peer as manifest + chunk frames.
func (s *Store) sendChunked(to ids.ID, purpose int, guid ids.ID, b *blob, reqID uint64, hops int, fromCache, pin bool) {
	chunk, data := s.chunkBytes(), b.data
	s.nextXfer++
	s.ep.Send(to, &ManifestMsg{
		Xfer:      s.nextXfer,
		GUID:      guid.String(),
		Purpose:   purpose,
		TotalLen:  len(data),
		Chunk:     chunk,
		Hash:      b.hash(),
		ReqID:     reqID,
		Hops:      hops,
		FromCache: fromCache,
		Pin:       pin,
	})
	for off := 0; off < len(data); off += chunk {
		end := off + chunk
		if end > len(data) {
			end = len(data)
		}
		s.stats.ChunkFramesSent++
		s.ep.Send(to, &ChunkMsg{Xfer: s.nextXfer, Off: off, Data: data[off:end]})
	}
}

// sendObject delivers a replica or cache fill, chunked when the body
// exceeds the threshold.
func (s *Store) sendObject(to ids.ID, purpose int, guid ids.ID, b *blob) {
	s.sendObjectPinned(to, purpose, guid, b, false)
}

func (s *Store) sendObjectPinned(to ids.ID, purpose int, guid ids.ID, b *blob, pin bool) {
	if cb := s.chunkBytes(); cb > 0 && len(b.data) > cb {
		s.sendChunked(to, purpose, guid, b, 0, 0, false, pin)
		return
	}
	switch purpose {
	case xferReplicate:
		s.ep.Send(to, &ReplicateMsg{GUID: guid.String(), Pin: pin, Data: b.data})
	case xferCacheFill:
		s.ep.Send(to, &CacheFillMsg{GUID: guid.String(), Data: b.data})
	}
}

// sendGetReply answers a remote get with b (nil: not found), chunking
// large bodies.
func (s *Store) sendGetReply(to ids.ID, reply *GetReplyMsg, b *blob) {
	if b != nil {
		reply.Found = true
		if cb := s.chunkBytes(); cb > 0 && len(b.data) > cb {
			guid, err := ids.Parse(reply.GUID)
			if err != nil {
				return
			}
			s.sendChunked(to, xferGetReply, guid, b, reply.ReqID, reply.Hops, reply.FromCache, false)
			return
		}
		reply.Data = b.data
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
	if buf, ok := s.early[key]; ok {
		delete(s.early, key)
		for _, cm := range buf {
			s.applyChunk(key, from, cm)
		}
	}
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
		if _, ok := s.early[key]; ok {
			delete(s.early, key)
			s.stats.ChunkTimeouts++
		}
	})
}

func (s *Store) handleChunk(_ netapi.Ctx, from ids.ID, msg wire.Message) {
	cm := msg.(*ChunkMsg)
	key := xferKey{from: from, id: cm.Xfer}
	if _, ok := s.xfers[key]; !ok {
		// Reordering can deliver chunks ahead of their manifest: hold a
		// bounded few until it arrives (sweepEarly drops orphans, so a
		// completed or timed-out transfer's stragglers die here too).
		buf := s.early[key]
		if len(buf) >= maxEarlyChunks {
			return
		}
		if len(buf) == 0 {
			s.sweepEarly(key)
		}
		s.early[key] = append(buf, cm)
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
	// the copy carries that sum, nobody derives it again.
	b := &blob{data: x.ra.buf, sum: x.ra.hash, summed: true}
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
