package knowledge

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gloss/active/internal/causal"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/store"
	"github.com/gloss/active/internal/wire"
)

// SubjectKey derives the storage GUID for a subject's fact set.
func SubjectKey(subject string) ids.ID {
	return ids.FromString("kb/subject/" + subject)
}

// GISKey is the storage GUID of the shared GIS document.
func GISKey(region string) ids.ID {
	return ids.FromString("kb/gis/" + region)
}

// Options tunes a Syncer.
type Options struct {
	// Writer is this node's identity in version vectors. Defaults to the
	// store endpoint's ID; it must be unique per writer node.
	Writer string
	// GossipInterval enables periodic anti-entropy with that period.
	// Zero disables gossip (objects still converge via fetch read-repair).
	GossipInterval time.Duration

	// siblingCap bounds concurrent histories per object: beyond it the
	// sibling set is force-merged into one resolved version (default 8).
	// Not an option: only this package's tests move it.
	siblingCap int
}

// gossipFanout is how many partners, drawn from the store overlay's leaf
// set, each anti-entropy round contacts.
const gossipFanout = 2

// SyncStats is a snapshot of syncer counters (see Syncer.Stats).
type SyncStats struct {
	Fetches       uint64 // remote subject/GIS loads issued
	Publishes     uint64 // subject/GIS uploads issued
	GossipRounds  uint64 // anti-entropy rounds initiated
	GossipPushes  uint64 // versioned objects pushed to partners
	Absorbed      uint64 // remote versions that changed local state
	SiblingMerges uint64 // reads that resolved >1 concurrent sibling
	ReadRepairs   uint64 // fetches that wrote newer state back
	Compactions   uint64 // sibling sets force-merged at siblingCap
}

// Syncer moves knowledge between a local KB and the P2P storage
// architecture, implementing §1.2's requirement that "both the events and
// the knowledge base must be delivered to the locations at which the
// matching computation occurs" — the store's promiscuous caching pulls
// hot subjects close to their matchers.
//
// Every stored fact set and GIS document is a version-vectored sibling
// set: concurrent writers are detected rather than silently overwritten,
// fetches read-repair stale replicas, and optional gossip rounds push
// digests + missing versions between brokers until every node converges
// on the merged state. A bare XML body written before versioning decodes
// as a sibling every versioned write dominates.
type Syncer struct {
	store *store.Store
	kb    *KB
	opts  Options

	mu       sync.Mutex
	subjects map[string]*causal.Versioned[[]Fact]
	gisDocs  map[string]*causal.Versioned[[]Place]

	stopped atomic.Bool

	fetches       atomic.Uint64
	publishes     atomic.Uint64
	gossipRounds  atomic.Uint64
	gossipPushes  atomic.Uint64
	absorbed      atomic.Uint64
	siblingMerges atomic.Uint64
	readRepairs   atomic.Uint64
	compactions   atomic.Uint64
}

// NewSyncer binds a syncer to a store and a local KB with default
// (gossip-off) options.
func NewSyncer(st *store.Store, kb *KB) *Syncer {
	return NewSyncerOpts(st, kb, Options{})
}

// NewSyncerOpts binds a syncer with explicit options. At most one Syncer
// may be bound per endpoint (it owns the kb.* message kinds).
func NewSyncerOpts(st *store.Store, kb *KB, opts Options) *Syncer {
	if opts.Writer == "" {
		opts.Writer = st.Endpoint().ID().String()
	}
	if opts.siblingCap <= 0 {
		opts.siblingCap = 8
	}
	sy := &Syncer{
		store:    st,
		kb:       kb,
		opts:     opts,
		subjects: make(map[string]*causal.Versioned[[]Fact]),
		gisDocs:  make(map[string]*causal.Versioned[[]Place]),
	}
	ep := st.Endpoint()
	ep.Handle("kb.digest", sy.handleDigest)
	ep.Handle("kb.push", sy.handlePush)
	if opts.GossipInterval > 0 {
		ep.Clock().After(opts.GossipInterval, sy.gossipTick)
	}
	return sy
}

// Stats returns a snapshot of the syncer counters. Safe to call
// concurrently with syncing.
func (sy *Syncer) Stats() SyncStats {
	return SyncStats{
		Fetches:       sy.fetches.Load(),
		Publishes:     sy.publishes.Load(),
		GossipRounds:  sy.gossipRounds.Load(),
		GossipPushes:  sy.gossipPushes.Load(),
		Absorbed:      sy.absorbed.Load(),
		SiblingMerges: sy.siblingMerges.Load(),
		ReadRepairs:   sy.readRepairs.Load(),
		Compactions:   sy.compactions.Load(),
	}
}

// subjectObj returns (creating if needed) the versioned state of a
// subject. Callers hold sy.mu.
func (sy *Syncer) subjectObj(subject string) *causal.Versioned[[]Fact] {
	v, ok := sy.subjects[subject]
	if !ok {
		v = &causal.Versioned[[]Fact]{}
		sy.subjects[subject] = v
	}
	return v
}

func (sy *Syncer) gisObj(region string) *causal.Versioned[[]Place] {
	v, ok := sy.gisDocs[region]
	if !ok {
		v = &causal.Versioned[[]Place]{}
		sy.gisDocs[region] = v
	}
	return v
}

// PublishSubject uploads the local facts about subject to the store,
// wrapped in a new version descending from everything this node has seen.
func (sy *Syncer) PublishSubject(subject string, cb func(error)) {
	sy.mu.Lock()
	v := sy.subjectObj(subject)
	v.Put(sy.opts.Writer, sy.kb.SubjectFacts(subject))
	data := EncodeVersionedFacts(v)
	sy.mu.Unlock()
	sy.publishes.Add(1)
	sy.store.PutAs(SubjectKey(subject), data, cb)
}

// FetchSubject downloads facts about subject and merges them into the
// local KB: it absorbs the stored sibling set, resolves concurrent
// versions through Options.Merge and — when the local replica knows more
// than the store copy — read-repairs the store.
func (sy *Syncer) FetchSubject(subject string, cb func(error)) {
	sy.fetches.Add(1)
	sy.store.Get(SubjectKey(subject), func(data []byte, err error) {
		if err != nil {
			cb(fmt.Errorf("knowledge: fetch %q: %w", subject, err))
			return
		}
		remote, err := DecodeVersionedFacts(data)
		if err != nil {
			cb(err)
			return
		}
		sy.absorbSubject(subject, remote, data)
		cb(nil)
	})
}

// absorbSubject folds a remote sibling set into the local object, puts
// the resolved facts into the KB, and read-repairs the store when the
// stored bytes lag the local replica. storedData is the store's current
// body (nil when the caller got the envelope from gossip, not the store).
func (sy *Syncer) absorbSubject(subject string, remote *causal.Versioned[[]Fact], storedData []byte) {
	sy.mu.Lock()
	v := sy.subjectObj(subject)
	if v.Absorb(remote) {
		sy.absorbed.Add(1)
	}
	if v.Compact(sy.opts.siblingCap, MergeFactSets) {
		sy.compactions.Add(1)
	}
	if len(v.Sibs) > 1 {
		sy.siblingMerges.Add(1)
	}
	resolved := MergeFactSets(v.Values())
	var repair []byte
	if storedData != nil {
		if enc := EncodeVersionedFacts(v); !bytes.Equal(enc, storedData) {
			repair = enc
		}
	}
	sy.mu.Unlock()
	sy.kb.MergeSubject(subject, resolved)
	if repair != nil {
		sy.readRepairs.Add(1)
		sy.store.PutAs(SubjectKey(subject), repair, func(error) {})
	}
}

// PublishGIS uploads a GIS layer under the given region key.
func (sy *Syncer) PublishGIS(region string, g *GIS, cb func(error)) {
	sy.mu.Lock()
	v := sy.gisObj(region)
	v.Put(sy.opts.Writer, g.Places())
	data := EncodeVersionedGIS(v)
	sy.mu.Unlock()
	sy.publishes.Add(1)
	sy.store.PutAs(GISKey(region), data, cb)
}

// FetchGIS downloads a region's GIS layer.
func (sy *Syncer) FetchGIS(region string, cb func(*GIS, error)) {
	sy.fetches.Add(1)
	sy.store.Get(GISKey(region), func(data []byte, err error) {
		if err != nil {
			cb(nil, fmt.Errorf("knowledge: fetch gis %q: %w", region, err))
			return
		}
		remote, err := DecodeVersionedGIS(data)
		if err != nil {
			cb(nil, err)
			return
		}
		places, repairErr := sy.absorbGIS(region, remote, data)
		g := NewGIS()
		for _, p := range places {
			if err := g.AddPlace(p); err != nil {
				cb(nil, err)
				return
			}
		}
		cb(g, repairErr)
	})
}

func (sy *Syncer) absorbGIS(region string, remote *causal.Versioned[[]Place], storedData []byte) ([]Place, error) {
	sy.mu.Lock()
	v := sy.gisObj(region)
	if v.Absorb(remote) {
		sy.absorbed.Add(1)
	}
	if v.Compact(sy.opts.siblingCap, mergePlaces) {
		sy.compactions.Add(1)
	}
	if len(v.Sibs) > 1 {
		sy.siblingMerges.Add(1)
	}
	resolved := mergePlaces(v.Values())
	var repair []byte
	if storedData != nil {
		if enc := EncodeVersionedGIS(v); !bytes.Equal(enc, storedData) {
			repair = enc
		}
	}
	sy.mu.Unlock()
	if repair != nil {
		sy.readRepairs.Add(1)
		sy.store.PutAs(GISKey(region), repair, func(error) {})
	}
	return resolved, nil
}

// --- gossip anti-entropy ------------------------------------------------------

// gossipTick runs one anti-entropy round and reschedules itself until
// Stop is called.
func (sy *Syncer) gossipTick() {
	if sy.stopped.Load() {
		return
	}
	sy.GossipNow()
	sy.store.Endpoint().Clock().After(sy.opts.GossipInterval, sy.gossipTick)
}

// Stop halts periodic gossip: the current timer fires at most once more
// and does nothing. Explicit GossipNow calls still work, so a stopped
// syncer can be driven manually. Idempotent.
func (sy *Syncer) Stop() { sy.stopped.Store(true) }

// GossipNow initiates one anti-entropy round: the local digest is sent
// to up to gossipFanout random leaf-set peers; each answers with its own digest
// and both sides push only versions the other provably lacks.
func (sy *Syncer) GossipNow() {
	ep := sy.store.Endpoint()
	peers := sy.store.Overlay().Leaves()
	if len(peers) == 0 {
		return
	}
	sy.gossipRounds.Add(1)
	msg := &GossipMsg{Entries: sy.digest()}
	order := ep.Rand().Perm(len(peers))
	n := gossipFanout
	if n > len(peers) {
		n = len(peers)
	}
	for _, i := range order[:n] {
		ep.Send(peers[i], msg)
	}
}

// digest snapshots every tracked object's name and summary vector.
func (sy *Syncer) digest() []DigestEntry {
	sy.mu.Lock()
	defer sy.mu.Unlock()
	entries := make([]DigestEntry, 0, len(sy.subjects)+len(sy.gisDocs))
	for name, v := range sy.subjects {
		entries = append(entries, DigestEntry{Name: name, Vec: v.Vec().AppendWire(nil)})
	}
	for name, v := range sy.gisDocs {
		entries = append(entries, DigestEntry{Name: name, GIS: true, Vec: v.Vec().AppendWire(nil)})
	}
	return entries
}

// handleDigest answers a partner's digest: push every local object the
// partner's vector shows it is missing (ours descends) or conflicted on
// (concurrent), including objects absent from its digest entirely; then
// reply with our own digest (once — replies are not re-answered).
func (sy *Syncer) handleDigest(_ netapi.Ctx, from ids.ID, msg wire.Message) {
	dg, ok := msg.(*GossipMsg)
	if !ok {
		return
	}
	seen := make(map[string]causal.Vec, len(dg.Entries))
	for _, e := range dg.Entries {
		key := digestKey(e.Name, e.GIS)
		seen[key] = causal.ParseVec(wire.NewBinReader(e.Vec))
	}
	ep := sy.store.Endpoint()
	type push struct {
		name string
		gis  bool
		data []byte
	}
	var pushes []push
	sy.mu.Lock()
	for name, v := range sy.subjects {
		remote, known := seen[digestKey(name, false)]
		if !known || needsPush(v.Vec(), remote) {
			pushes = append(pushes, push{name, false, EncodeVersionedFacts(v)})
		}
	}
	for name, v := range sy.gisDocs {
		remote, known := seen[digestKey(name, true)]
		if !known || needsPush(v.Vec(), remote) {
			pushes = append(pushes, push{name, true, EncodeVersionedGIS(v)})
		}
	}
	sy.mu.Unlock()
	for _, p := range pushes {
		sy.gossipPushes.Add(1)
		ep.Send(from, &GossipPushMsg{Name: p.name, GIS: p.gis, Data: p.data})
	}
	if !dg.Reply {
		ep.Send(from, &GossipMsg{Reply: true, Entries: sy.digest()})
	}
}

// needsPush reports whether a local summary vector holds history the
// remote one lacks.
func needsPush(local, remote causal.Vec) bool {
	switch causal.Compare(local, remote) {
	case causal.Descends, causal.Concurrent:
		return true
	}
	return false
}

func digestKey(name string, gis bool) string {
	if gis {
		return "g/" + name
	}
	return "s/" + name
}

// handlePush absorbs a versioned object pushed by a gossip partner.
func (sy *Syncer) handlePush(_ netapi.Ctx, _ ids.ID, msg wire.Message) {
	p, ok := msg.(*GossipPushMsg)
	if !ok {
		return
	}
	if p.GIS {
		remote, err := DecodeVersionedGIS(p.Data)
		if err != nil {
			return
		}
		sy.absorbGIS(p.Name, remote, nil)
		return
	}
	remote, err := DecodeVersionedFacts(p.Data)
	if err != nil {
		return
	}
	sy.absorbSubject(p.Name, remote, nil)
}
