// Package store implements the paper's P2P storage architecture (§4.5):
// PAST-like replicated object storage over Plaxton routing, with
// content-hash GUIDs, k-replica placement on the numerically closest
// nodes, RAID-like self-healing re-replication under churn (§4.6), and
// promiscuous caching — "data is free to be cached anywhere at any time
// … crucial to the performance of the system if the fetching of remote
// data at every access is to be avoided".
//
// Erasure-coded storage (storeCoded/fetchCoded) reconstitutes objects
// from any m of m+r fragments, per the schemes the paper cites.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/gloss/active/internal/erasure"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/plaxton"
	"github.com/gloss/active/internal/wire"
)

// ErrNotFound reports that no live replica of the object was reachable.
var ErrNotFound = errors.New("store: object not found")

// Options configure a storage node.
type Options struct {
	// Replicas is the target copy count k (including the root). Default 3.
	Replicas int
	// DisableCache turns promiscuous caching off (E-T3 ablation).
	DisableCache bool
	// RepairInterval is the period of replica maintenance. Default 5s;
	// negative disables maintenance.
	RepairInterval time.Duration
	// RequestTimeout bounds put/get operations. Default 5s.
	RequestTimeout time.Duration
	// ErasureData/ErasureParity configure coded storage (m, r) used by
	// PutCoded/GetCoded. Defaults 4 and 2.
	ErasureData   int
	ErasureParity int
	// ChunkBytes caps the payload of one data-carrying frame: bodies
	// larger than this stream as offset-addressed store.chunk frames
	// behind a store.manifest instead of one giant frame through the
	// byte-budgeted outbox. Default 64 KiB; negative disables chunking.
	ChunkBytes int
	// DisableFragRepair turns off erasure-coded fragment reconstruction
	// (the E-T16 whole-object re-copy ablation).
	DisableFragRepair bool

	// The fields below are not options: only this package's tests move
	// them off their defaults.
	//
	// retries is the number of times a timed-out get/put is re-issued.
	// Default 1.
	retries int
	// chunkTimeout bounds how long a partly-received transfer may sit
	// without progress before its reassembly state is dropped. Default 30s.
	chunkTimeout time.Duration
	// maxObjectBytes rejects transfer manifests announcing bodies larger
	// than this (hostile-manifest allocation bound). Default 64 MiB.
	maxObjectBytes int
}

// cacheBytes budgets the promiscuous cache.
const cacheBytes = 1 << 20

func (o *Options) applyDefaults() {
	if o.Replicas == 0 {
		o.Replicas = 3
	}
	if o.RepairInterval == 0 {
		o.RepairInterval = 5 * time.Second
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 5 * time.Second
	}
	if o.retries == 0 {
		o.retries = 1
	}
	if o.ErasureData == 0 {
		o.ErasureData = 4
	}
	if o.ErasureParity == 0 {
		o.ErasureParity = 2
	}
	if o.ChunkBytes == 0 {
		o.ChunkBytes = 64 << 10
	}
	if o.chunkTimeout == 0 {
		o.chunkTimeout = 30 * time.Second
	}
	if o.maxObjectBytes == 0 {
		o.maxObjectBytes = 64 << 20
	}
}

// Stats counts storage activity.
type Stats struct {
	Puts         uint64
	Gets         uint64
	LocalHits    uint64 // answered before touching the network
	CacheHits    uint64 // answered from a path node's cache
	ReplicaHits  uint64 // answered from a path node's replica set
	RootAnswers  uint64 // answered by the object's root
	NotFound     uint64
	Timeouts     uint64
	Retries      uint64
	CacheFills   uint64
	RepairPushes uint64
	// RepairSkipped counts replicas a digest round proved present and
	// current, so no bytes moved; RepairBytes counts payload bytes that
	// did move in replica pushes.
	RepairSkipped uint64
	RepairBytes   uint64
	// ReplicaEvictions counts out-of-range replicas GC'd during repair.
	ReplicaEvictions uint64
	// FragRepairs counts erasure-coded fragments reconstructed from
	// surviving siblings.
	FragRepairs uint64
	// Chunked-transfer accounting.
	ChunkFramesSent uint64
	ChunkFramesRecv uint64
	ChunkTimeouts   uint64
	ChunkCorrupt    uint64
	StoredObjects   int
	StoredBytes     int64
	CacheObjects    int
	CacheBytes      int64
}

type pendingPut struct {
	cb    func(error)
	timer interface{ Stop() bool }
	// content pins a large put's body at the origin until the root pulls
	// it (or the put times out).
	content *blob
}

type pendingGet struct {
	guid    ids.ID
	cb      func([]byte, error)
	timer   interface{ Stop() bool }
	retries int
}

// blob is one held body and, once known, its hash64: taken from the
// manifest hash a reassembly has just verified, else computed on first
// need. The body is one slice or the chunk frames it arrived in, which
// writer goroutines may be borrowing. Bodies are immutable and an
// overwrite or eviction replaces the whole blob, so a sum never outlives
// the bytes it describes.
type blob struct {
	data   []byte
	pieces [][]byte // when non-nil, the body in order, and data is nil
	sum    uint64
	summed bool
	key    string // the GUID it is held under as a digest entry spells it, rendered on first need
}

// hexKey returns guid, the key b is held under, as a digest entry spells
// it: rendered once, then read by every digest round.
func (b *blob) hexKey(guid ids.ID) string {
	if b.key == "" {
		b.key = guid.String()
	}
	return b.key
}

func (b *blob) size() int {
	n := len(b.data)
	for _, p := range b.pieces {
		n += len(p)
	}
	return n
}

// bytes returns the body as one slice, read-only. A pieced body is copied
// out once and held flat from then on; no piece is ever written.
func (b *blob) bytes() []byte {
	if b.pieces != nil {
		b.data, b.pieces = slices.Concat(b.pieces...), nil
	}
	return b.data
}

// head returns the body's first n bytes (fewer if it is shorter),
// without flattening a body whose first piece holds them.
func (b *blob) head(n int) []byte {
	if b.pieces != nil && len(b.pieces[0]) >= n {
		return b.pieces[0][:n]
	}
	d := b.bytes()
	return d[:min(n, len(d))]
}

// hash returns the body's sum. A pieced body always arrives with its
// verified sum, so this never flattens one.
func (b *blob) hash() uint64 {
	if !b.summed {
		b.sum, b.summed = hash64(b.bytes()), true
	}
	return b.sum
}

// Store is one storage node ("storelet" host).
type Store struct {
	ep      netapi.Endpoint
	overlay *plaxton.Overlay
	opts    Options
	code    *erasure.Code

	objects     map[ids.ID]*blob
	keys        []ids.ID // the keys of objects in ids.Cmp order, kept by setObject/dropObject
	storedBytes int64    // incremental sum of objects[*].size(), kept by setObject/dropObject
	// pinned marks policy-placed copies (deliverPush) that replica GC
	// must leave alone even though this node is outside the k-closest
	// range for them.
	pinned map[ids.ID]bool
	cache  *lruCache

	nextReq     uint64
	pendingPuts map[uint64]*pendingPut
	pendingGets map[uint64]*pendingGet

	// Chunked-transfer reassembly, keyed per sender.
	nextXfer uint64
	xfers    map[xferKey]*xfer

	// Digest repair round state: what the current round asked each
	// replica target to confirm.
	digestRound uint64
	digestWant  map[ids.ID][]ids.ID

	// Erasure reconstruction state.
	pendingStats map[uint64]*statProbe
	fragBusy     map[ids.ID]bool

	stats Stats
}

// New builds a storage node on top of an overlay and registers handlers.
func New(ep netapi.Endpoint, overlay *plaxton.Overlay, opts Options) *Store {
	opts.applyDefaults()
	code, err := erasure.NewCode(opts.ErasureData, opts.ErasureParity)
	if err != nil {
		panic(fmt.Sprintf("store: bad erasure parameters: %v", err)) // programmer error at wiring time
	}
	s := &Store{
		ep:           ep,
		overlay:      overlay,
		opts:         opts,
		code:         code,
		objects:      make(map[ids.ID]*blob),
		pinned:       make(map[ids.ID]bool),
		cache:        newLRU(cacheBytes),
		pendingPuts:  make(map[uint64]*pendingPut),
		pendingGets:  make(map[uint64]*pendingGet),
		xfers:        make(map[xferKey]*xfer),
		digestWant:   make(map[ids.ID][]ids.ID),
		pendingStats: make(map[uint64]*statProbe),
		fragBusy:     make(map[ids.ID]bool),
	}
	overlay.OnDeliver("store.put", s.deliverPut)
	overlay.OnDeliver("store.get", s.deliverGet)
	overlay.OnDeliver("store.push", s.deliverPush)
	overlay.OnDeliver("store.stat", s.deliverStat)
	overlay.SetForwardHook("store.get", s.forwardHook)
	ep.Handle("store.ack", s.handleAck)
	ep.Handle("store.getReply", s.handleGetReply)
	ep.Handle("store.replicate", s.handleReplicate)
	ep.Handle("store.cacheFill", s.handleCacheFill)
	ep.Handle("store.pull", s.handlePull)
	ep.Handle("store.manifest", s.handleManifest)
	ep.Handle("store.chunk", s.handleChunk)
	ep.Handle("store.digestReq", s.handleDigestReq)
	ep.Handle("store.digest", s.handleDigest)
	ep.Handle("store.statReply", s.handleStatReply)
	// RepairInterval < 0 disables maintenance entirely, including the
	// leaf-set-change trigger (the E-T2 no-healing ablation).
	if opts.RepairInterval > 0 {
		overlay.OnLeavesChanged(func() { s.repair() })
		s.startRepair()
	}
	return s
}

// GUIDFor returns the content-hash GUID an object will be stored under.
func GUIDFor(content []byte) ids.ID { return ids.FromBytes(content) }

// Endpoint returns the endpoint the store is bound to, for subsystems
// (e.g. the knowledge syncer's gossip) that share its node identity,
// clock and message plane.
func (s *Store) Endpoint() netapi.Endpoint { return s.ep }

// Overlay returns the routing overlay the store is built on.
func (s *Store) Overlay() *plaxton.Overlay { return s.overlay }

// Stats returns a snapshot of counters and occupancy. O(1): stored
// occupancy is maintained incrementally on store/overwrite/evict rather
// than recomputed by iterating every object. Must run on the store's
// owning goroutine: all state is confined to the endpoint's delivery
// loop.
//
//vetactive:ignore atomicstats actor-confined to the endpoint delivery goroutine
func (s *Store) Stats() Stats {
	st := s.stats
	st.StoredObjects = len(s.objects)
	st.StoredBytes = s.storedBytes
	st.CacheObjects = s.cache.len()
	st.CacheBytes = s.cache.used()
	return st
}

// setObject stores or overwrites a primary/replica copy, keeping the
// incremental occupancy counters exact.
func (s *Store) setObject(guid ids.ID, b *blob) {
	if old, ok := s.objects[guid]; ok {
		s.storedBytes -= int64(old.size())
	} else {
		i, _ := slices.BinarySearchFunc(s.keys, guid, ids.Cmp)
		s.keys = slices.Insert(s.keys, i, guid)
	}
	s.objects[guid] = b
	s.storedBytes += int64(b.size())
}

// dropObject removes a stored copy, keeping the occupancy counters exact.
func (s *Store) dropObject(guid ids.ID) {
	if old, ok := s.objects[guid]; ok {
		s.storedBytes -= int64(old.size())
		i, _ := slices.BinarySearchFunc(s.keys, guid, ids.Cmp)
		s.keys = slices.Delete(s.keys, i, i+1)
		delete(s.objects, guid)
		delete(s.pinned, guid)
	}
}

// Holds reports whether this node stores a primary/replica copy.
func (s *Store) Holds(guid ids.ID) bool {
	_, ok := s.objects[guid]
	return ok
}

// Cached reports whether this node's promiscuous cache holds a copy.
func (s *Store) Cached(guid ids.ID) bool {
	_, ok := s.cache.items[guid]
	return ok
}

// --- client API ------------------------------------------------------------

// Put stores content under its content-hash GUID; cb receives the GUID
// once the root acknowledges, or an error. The store takes ownership of
// content (see PutAs).
func (s *Store) Put(content []byte, cb func(ids.ID, error)) {
	guid := GUIDFor(content)
	s.PutAs(guid, content, func(err error) { cb(guid, err) })
}

// PutAs stores content under an explicit GUID (used for mutable keys such
// as fact-base entries and matchlet directories). Bodies above the chunk
// threshold are announced by size only: the routed frame stays small and
// the root pulls the bytes directly from this node (piri-style — routing
// decides placement, data travels point-to-point).
//
// The store takes ownership of content: a large body stays pinned here
// until the root has pulled it, and when this node is the object's root
// the slice itself becomes the stored copy, whose checksum is computed
// once and kept. The caller must not modify it after the call.
func (s *Store) PutAs(guid ids.ID, content []byte, cb func(error)) {
	s.stats.Puts++
	s.nextReq++
	req := s.nextReq
	p := &pendingPut{cb: cb}
	big := false
	if cbytes := s.chunkBytes(); cbytes > 0 && len(content) > cbytes {
		big = true
		p.content = &blob{data: content}
	}
	p.timer = s.ep.Clock().After(s.opts.RequestTimeout, func() {
		if _, ok := s.pendingPuts[req]; ok {
			delete(s.pendingPuts, req)
			s.stats.Timeouts++
			cb(fmt.Errorf("store: put %s timed out", guid.Short()))
		}
	})
	s.pendingPuts[req] = p
	msg := &PutMsg{GUID: guid.String(), ReqID: req, Origin: s.ep.ID().String()}
	if big {
		msg.Size = len(content)
	} else {
		msg.Data = content
	}
	if err := s.overlay.Route(guid, msg); err != nil {
		p.timer.Stop()
		delete(s.pendingPuts, req)
		cb(err)
	}
}

// Get fetches the object stored under guid. cb's bytes are read-only: a
// local hit passes the stored copy itself (made contiguous once if held in
// pieces), which a frame on a writer goroutine may be borrowing.
func (s *Store) Get(guid ids.ID, cb func([]byte, error)) {
	s.stats.Gets++
	// Local copies answer immediately (the cheapest promiscuous hit).
	if b, ok := s.objects[guid]; ok {
		s.stats.LocalHits++
		cb(b.bytes(), nil)
		return
	}
	if !s.opts.DisableCache {
		if b, ok := s.cache.get(guid); ok {
			s.stats.LocalHits++
			cb(b.bytes(), nil)
			return
		}
	}
	s.issueGet(guid, cb, s.opts.retries)
}

func (s *Store) issueGet(guid ids.ID, cb func([]byte, error), retries int) {
	s.nextReq++
	req := s.nextReq
	g := &pendingGet{guid: guid, cb: cb, retries: retries}
	g.timer = s.ep.Clock().After(s.opts.RequestTimeout, func() {
		if _, ok := s.pendingGets[req]; !ok {
			return
		}
		delete(s.pendingGets, req)
		if g.retries > 0 {
			s.stats.Retries++
			s.issueGet(guid, cb, g.retries-1)
			return
		}
		s.stats.Timeouts++
		cb(nil, fmt.Errorf("store: get %s timed out", guid.Short()))
	})
	s.pendingGets[req] = g
	msg := &GetMsg{GUID: guid.String(), ReqID: req}
	if err := s.overlay.RouteTraced(guid, msg); err != nil {
		g.timer.Stop()
		delete(s.pendingGets, req)
		cb(nil, err)
	}
}

// --- coded storage -----------------------------------------------------------

// fragGUID derives the storage key of fragment i of a coded object.
func fragGUID(guid ids.ID, i int) ids.ID {
	return ids.FromString(fmt.Sprintf("%s/frag/%d", guid, i))
}

// FragmentGUID returns the storage key of fragment i of a coded object —
// exported so experiments can observe fragment placement and loss.
func FragmentGUID(guid ids.ID, i int) ids.ID { return fragGUID(guid, i) }

// Fragment storage format: a magic pair, the parent object's GUID and
// the full code geometry, so that ANY holder of any fragment knows how
// to check and reconstruct its siblings (the basis of erasure-coded
// repair — the seed format carried only index+length, so nobody but the
// original writer could rebuild a lost fragment).
const (
	fragMagic0 = 0xF5
	fragMagic1 = 0x9A
)

// fragMeta is the self-describing header of a stored fragment.
type fragMeta struct {
	object ids.ID // GUID of the coded object the fragment belongs to
	data   int    // m: fragments needed to reconstruct
	parity int    // r: redundant fragments
}

// packFragment serialises a fragment with its geometry header.
func packFragment(object ids.ID, data, parity int, f erasure.Fragment) []byte {
	out := make([]byte, 0, 2+ids.Size+4*binary.MaxVarintLen32+len(f.Shard))
	out = append(out, fragMagic0, fragMagic1)
	out = append(out, object[:]...)
	out = binary.AppendUvarint(out, uint64(data))
	out = binary.AppendUvarint(out, uint64(parity))
	out = binary.AppendUvarint(out, uint64(f.Index))
	out = binary.AppendUvarint(out, uint64(f.OrigLen))
	return append(out, f.Shard...)
}

func unpackFragment(b []byte) (erasure.Fragment, fragMeta, error) {
	var meta fragMeta
	if len(b) < 2+ids.Size || b[0] != fragMagic0 || b[1] != fragMagic1 {
		return erasure.Fragment{}, meta, fmt.Errorf("store: not a coded fragment (%d bytes)", len(b))
	}
	copy(meta.object[:], b[2:2+ids.Size])
	rest := b[2+ids.Size:]
	var fields [4]uint64
	for i := range fields {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return erasure.Fragment{}, meta, fmt.Errorf("store: truncated fragment header")
		}
		fields[i] = v
		rest = rest[n:]
	}
	meta.data, meta.parity = int(fields[0]), int(fields[1])
	index, origLen := int(fields[2]), int(fields[3])
	if meta.data < 1 || meta.parity < 0 || meta.data+meta.parity > 255 {
		return erasure.Fragment{}, meta, fmt.Errorf("store: fragment geometry m=%d r=%d invalid", meta.data, meta.parity)
	}
	if index < 0 || index >= meta.data+meta.parity {
		return erasure.Fragment{}, meta, fmt.Errorf("store: fragment index %d out of range", index)
	}
	if origLen < 0 || origLen > meta.data*len(rest) {
		return erasure.Fragment{}, meta, fmt.Errorf("store: fragment claims %d original bytes with %d-byte shards", origLen, len(rest))
	}
	return erasure.Fragment{Index: index, OrigLen: origLen, Shard: rest}, meta, nil
}

// PutCoded stores content as m+r erasure-coded fragments spread over the
// ring; cb fires once at least m fragment roots acknowledged (the object
// is then reconstructible).
func (s *Store) PutCoded(content []byte, cb func(ids.ID, error)) {
	guid := GUIDFor(content)
	frags := s.code.Encode(content)
	need := s.code.Data()
	acked, failed, done := 0, 0, false
	total := len(frags)
	for i, f := range frags {
		s.PutAs(fragGUID(guid, i), packFragment(guid, s.code.Data(), total-s.code.Data(), f), func(err error) {
			if done {
				return
			}
			if err != nil {
				failed++
			} else {
				acked++
			}
			if acked >= need {
				done = true
				cb(guid, nil)
				return
			}
			if failed > total-need {
				done = true
				cb(guid, fmt.Errorf("store: coded put failed: only %d/%d fragments stored", acked, total))
			}
		})
	}
}

// GetCoded fetches any m fragments of a coded object and reconstructs it.
// cb's bytes are read-only, as Get's are.
func (s *Store) GetCoded(guid ids.ID, cb func([]byte, error)) {
	total := s.code.Total()
	need := s.code.Data()
	frags := make([]erasure.Fragment, 0, need)
	failed, done := 0, false
	for i := 0; i < total; i++ {
		s.Get(fragGUID(guid, i), func(data []byte, err error) {
			if done {
				return
			}
			if err != nil {
				failed++
				if failed > total-need {
					done = true
					cb(nil, fmt.Errorf("store: coded get %s: %w (lost %d fragments)", guid.Short(), ErrNotFound, failed))
				}
				return
			}
			f, _, perr := unpackFragment(data)
			if perr != nil {
				// An unreadable fragment counts as lost: without the
				// threshold re-check here a corrupt final fragment left
				// the callback unfired forever.
				failed++
				if failed > total-need {
					done = true
					cb(nil, fmt.Errorf("store: coded get %s: %w (%d fragments lost or corrupt)", guid.Short(), ErrNotFound, failed))
				}
				return
			}
			frags = append(frags, f)
			if len(frags) == need {
				done = true
				content, derr := s.code.Decode(frags)
				if derr != nil {
					cb(nil, derr)
					return
				}
				cb(content, nil)
			}
		})
	}
}

// --- server side ---------------------------------------------------------------

// deliverPut runs at the object's root.
func (s *Store) deliverPut(_ plaxton.RouteInfo, msg wire.Message) {
	pm := msg.(*PutMsg)
	guid, err := ids.Parse(pm.GUID)
	if err != nil {
		return
	}
	origin, err := ids.Parse(pm.Origin)
	if err != nil {
		return
	}
	if len(pm.Data) == 0 && pm.Size > 0 {
		// Large put: the body did not ride the routed frame. Pull it
		// directly from the origin (manifest + chunk stream); the ack is
		// sent when reassembly completes.
		if origin == s.ep.ID() {
			// We are both origin and root: the body is pinned locally.
			if p, ok := s.pendingPuts[pm.ReqID]; ok && p.content != nil {
				s.storeAndReplicate(guid, p.content)
				s.handleAck(nil, s.ep.ID(), &AckMsg{ReqID: pm.ReqID, OK: true})
			}
			return
		}
		s.ep.Send(origin, &PullMsg{GUID: pm.GUID, ReqID: pm.ReqID})
		return
	}
	s.storeAndReplicate(guid, &blob{data: pm.Data})
	if origin == s.ep.ID() {
		s.handleAck(nil, s.ep.ID(), &AckMsg{ReqID: pm.ReqID, OK: true})
		return
	}
	s.ep.Send(origin, &AckMsg{ReqID: pm.ReqID, OK: true})
}

// storeAndReplicate is the root's store step for a completed put.
func (s *Store) storeAndReplicate(guid ids.ID, b *blob) {
	s.setObject(guid, b)
	s.replicate(s.overlay.Leaves(), guid, b)
}

// replicate pushes copies to the k-1 leaf-set nodes closest to guid.
func (s *Store) replicate(leaves []ids.ID, guid ids.ID, b *blob) {
	for _, n := range s.replicaTargets(leaves, guid) {
		s.pushReplica(n, guid, b)
	}
}

// replicaTargets returns the k-1 members of leaves (distinct IDs)
// numerically closest to guid, closest first. It selects rather than
// sorts: k-1 is a couple, and a repair pass asks once per rooted object.
func (s *Store) replicaTargets(leaves []ids.ID, guid ids.ID) []ids.ID {
	n := min(s.opts.Replicas-1, len(leaves))
	out := make([]ids.ID, 0, max(n, 0))
	for len(out) < n {
		best := -1
		for i, l := range leaves {
			if len(out) > 0 && !ids.Closer(guid, out[len(out)-1], l) {
				continue // chosen already: ids.Closer is a strict total order
			}
			if best < 0 || ids.Closer(guid, l, leaves[best]) {
				best = i
			}
		}
		out = append(out, leaves[best])
	}
	return out
}

// RequestPush asks the object's root to place a replica on target
// (placement-policy primitive; fire-and-forget).
func (s *Store) RequestPush(guid ids.ID, target ids.ID) {
	msg := &PushMsg{GUID: guid.String(), Target: target.String()}
	if err := s.overlay.Route(guid, msg); err != nil {
		s.stats.Timeouts++
	}
}

// deliverPush runs at the object's root.
func (s *Store) deliverPush(_ plaxton.RouteInfo, msg wire.Message) {
	pm := msg.(*PushMsg)
	guid, err := ids.Parse(pm.GUID)
	if err != nil {
		return
	}
	target, err := ids.Parse(pm.Target)
	if err != nil {
		return
	}
	b, ok := s.objects[guid]
	if !ok {
		return
	}
	// Pinned: the policy chose this target deliberately; replica GC must
	// not reclaim the copy for being outside the k-closest range.
	s.pushReplicaPinned(target, guid, b, true)
}

// deliverGet runs at the object's root (if no path copy answered first).
func (s *Store) deliverGet(info plaxton.RouteInfo, msg wire.Message) {
	gm := msg.(*GetMsg)
	guid, err := ids.Parse(gm.GUID)
	if err != nil {
		return
	}
	b, ok := s.objects[guid]
	if !ok && !s.opts.DisableCache {
		b, ok = s.cache.get(guid)
	}
	if ok {
		s.stats.RootAnswers++
		// Promiscuous caching along the lookup path: seed the node just
		// before the root (PAST's scheme).
		s.cacheFillPath(info.Path, guid, b)
	} else {
		s.stats.NotFound++
	}
	if info.Origin == s.ep.ID() {
		s.completeGet(gm.ReqID, gm.GUID, b)
		return
	}
	s.sendGetReply(info.Origin, &GetReplyMsg{ReqID: gm.ReqID, GUID: gm.GUID, Hops: info.Hops}, b)
}

// cacheFillPath seeds the last traversed node's cache.
func (s *Store) cacheFillPath(path []ids.ID, guid ids.ID, b *blob) {
	if s.opts.DisableCache || len(path) == 0 {
		return
	}
	last := path[len(path)-1]
	if last == s.ep.ID() {
		if len(path) < 2 {
			return
		}
		last = path[len(path)-2]
	}
	s.stats.CacheFills++
	s.sendObject(last, xferCacheFill, guid, b)
}

// forwardHook answers gets mid-path from replicas or the promiscuous cache.
func (s *Store) forwardHook(info plaxton.RouteInfo, msg wire.Message) bool {
	gm := msg.(*GetMsg)
	if info.Origin == s.ep.ID() && info.Hops == 0 {
		return false // our own fresh request; Get() already checked locally
	}
	guid, err := ids.Parse(gm.GUID)
	if err != nil {
		return false
	}
	if s.isRoot(guid) {
		return false // let normal delivery answer (counted as RootAnswers)
	}
	reply := &GetReplyMsg{ReqID: gm.ReqID, GUID: gm.GUID, Hops: info.Hops}
	if b, have := s.objects[guid]; have {
		s.stats.ReplicaHits++
		s.sendGetReply(info.Origin, reply, b)
		return true
	}
	if !s.opts.DisableCache {
		if b, have := s.cache.get(guid); have {
			s.stats.CacheHits++
			reply.FromCache = true
			s.sendGetReply(info.Origin, reply, b)
			return true
		}
	}
	return false
}

func (s *Store) handleAck(_ netapi.Ctx, _ ids.ID, msg wire.Message) {
	am := msg.(*AckMsg)
	p, ok := s.pendingPuts[am.ReqID]
	if !ok {
		return
	}
	delete(s.pendingPuts, am.ReqID)
	p.timer.Stop()
	if am.OK {
		p.cb(nil)
		return
	}
	p.cb(errors.New(am.Err))
}

func (s *Store) handleGetReply(_ netapi.Ctx, _ ids.ID, msg wire.Message) {
	rm := msg.(*GetReplyMsg)
	var b *blob
	if rm.Found {
		b = &blob{data: rm.Data}
	}
	s.completeGet(rm.ReqID, rm.GUID, b)
}

// completeGet resolves a pending get — from a whole-frame reply, a
// reassembled chunked transfer or this node's own copy; nil is "not found".
func (s *Store) completeGet(reqID uint64, guidStr string, b *blob) {
	g, ok := s.pendingGets[reqID]
	if !ok {
		return
	}
	delete(s.pendingGets, reqID)
	g.timer.Stop()
	if b == nil {
		g.cb(nil, fmt.Errorf("%w: %s", ErrNotFound, guidStr))
		return
	}
	// Promiscuous caching at the reader, flat, as the callback gets it.
	data := b.bytes()
	if !s.opts.DisableCache {
		s.cache.put(g.guid, b)
	}
	g.cb(data, nil)
}

func (s *Store) handleReplicate(_ netapi.Ctx, _ ids.ID, msg wire.Message) {
	rm := msg.(*ReplicateMsg)
	guid, err := ids.Parse(rm.GUID)
	if err != nil {
		return
	}
	s.setObject(guid, &blob{data: rm.Data})
	if rm.Pin {
		s.pinned[guid] = true
	}
}

func (s *Store) handleCacheFill(_ netapi.Ctx, _ ids.ID, msg wire.Message) {
	cm := msg.(*CacheFillMsg)
	guid, err := ids.Parse(cm.GUID)
	if err != nil {
		return
	}
	if !s.opts.DisableCache {
		s.cache.put(guid, &blob{data: cm.Data})
	}
}

// --- maintenance ---------------------------------------------------------------

func (s *Store) startRepair() {
	if s.opts.RepairInterval <= 0 {
		return
	}
	var tick func()
	tick = func() {
		s.repair()
		s.ep.Clock().After(s.opts.RepairInterval, tick)
	}
	s.ep.Clock().After(s.opts.RepairInterval, tick)
}

// isRoot reports whether this node is numerically closest to guid among
// itself and its leaf set.
func (s *Store) isRoot(guid ids.ID) bool { return s.rootAmong(s.overlay.Leaves(), guid) }

// rootAmong is isRoot against a leaf-set snapshot the caller took once.
func (s *Store) rootAmong(leaves []ids.ID, guid ids.ID) bool {
	self := s.ep.ID()
	for _, l := range leaves {
		if ids.Closer(guid, l, self) {
			return false
		}
	}
	return true
}
