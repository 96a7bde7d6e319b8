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
	Fetches       uint64 // remote subject loads issued
	Publishes     uint64 // subject uploads issued
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
// Every stored fact set is a version-vectored sibling set: concurrent
// writers are detected rather than silently overwritten, fetches
// read-repair stale replicas, and optional gossip rounds push digests +
// missing versions between brokers until every node converges on the
// merged state. Any other body, a bare XML document included,
// fails to decode and changes nothing.
type Syncer struct {
	store *store.Store
	kb    *KB
	opts  Options

	mu       sync.Mutex
	subjects map[string]*causal.Versioned[[]Fact]
	// vecs caches each subject's summary vector in AppendWire form. An
	// entry is dropped before its subject's Put, Absorb or Compact, and
	// cached bytes are never written: digests carry them as they are.
	vecs map[string][]byte

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

// NewSyncer binds a syncer to a store and a local KB. At most one Syncer
// may be bound per endpoint (it owns the kb.* message kinds).
func NewSyncer(st *store.Store, kb *KB, opts Options) *Syncer {
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
		vecs:     make(map[string][]byte),
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

// PublishSubject uploads the local facts about subject to the store,
// wrapped in a new version descending from everything this node has seen.
func (sy *Syncer) PublishSubject(subject string, cb func(error)) {
	sy.mu.Lock()
	v := sy.subjectObj(subject)
	delete(sy.vecs, subject)
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
	delete(sy.vecs, subject)
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
// to up to gossipFanout random leaf-set peers; each pushes what the
// digest shows the initiator lacks and answers with its own digest, so
// the initiator can push in turn. A partner whose digest names exactly
// the initiator's objects, every vector byte-equal, sends nothing back:
// such a reply could not make the initiator push, and a change the
// initiator makes meanwhile travels in its next round.
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

// digest snapshots every tracked subject's name and summary vector.
func (sy *Syncer) digest() []DigestEntry {
	sy.mu.Lock()
	defer sy.mu.Unlock()
	entries := make([]DigestEntry, 0, len(sy.subjects))
	for name, v := range sy.subjects {
		entries = append(entries, DigestEntry{Name: name, Vec: sy.vecBytes(name, v)})
	}
	return entries
}

// vecBytes returns the AppendWire bytes of the summary vector of v, the
// subject's sibling set: cached, or encoded and cached on a miss. Callers
// hold sy.mu and must not write the bytes.
func (sy *Syncer) vecBytes(subject string, v *causal.Versioned[[]Fact]) []byte {
	b, ok := sy.vecs[subject]
	if !ok {
		b = v.Vec().AppendWire(nil)
		sy.vecs[subject] = b
	}
	return b
}

// handleDigest answers a partner's digest: push every local subject the
// partner's vector shows it is missing (ours descends) or conflicted on
// (concurrent), including subjects absent from its digest entirely; then
// reply with our own digest (once — replies are not re-answered), unless
// the partner's digest equals ours: the same subjects, every vector
// byte-equal. The reply's entries are the cached vector bytes the
// comparison read, and a vector is parsed and compared only when its
// bytes differ from the partner's.
func (sy *Syncer) handleDigest(_ netapi.Ctx, from ids.ID, msg wire.Message) {
	dg, ok := msg.(*GossipMsg)
	if !ok {
		return
	}
	seen := make(map[string][]byte, len(dg.Entries))
	for _, e := range dg.Entries {
		seen[e.Name] = e.Vec
	}
	var pushes []*GossipPushMsg
	var reply []DigestEntry
	equal := 0 // local subjects whose vector bytes the partner's digest repeats
	sy.mu.Lock()
	if !dg.Reply {
		reply = make([]DigestEntry, 0, len(sy.subjects))
	}
	for name, v := range sy.subjects {
		mine := sy.vecBytes(name, v)
		if !dg.Reply {
			reply = append(reply, DigestEntry{Name: name, Vec: mine})
		}
		remote, known := seen[name]
		if known && bytes.Equal(mine, remote) {
			equal++
			continue
		}
		if !known || partnerLacks(v.Vec(), mine, remote) {
			pushes = append(pushes, &GossipPushMsg{Name: name, Data: EncodeVersionedFacts(v)})
		}
	}
	objects := len(sy.subjects)
	sy.mu.Unlock()
	ep := sy.store.Endpoint()
	for _, p := range pushes {
		sy.gossipPushes.Add(1)
		ep.Send(from, p)
	}
	if !dg.Reply && (equal != objects || len(seen) != objects) {
		ep.Send(from, &GossipMsg{Reply: true, Entries: reply})
	}
}

// partnerLacks reports whether local, whose AppendWire bytes are mine,
// holds history the partner's digest vector, in its AppendWire bytes,
// lacks. AppendWire is canonical, so equal bytes are an Equal vector: a
// converged subject costs no parse.
func partnerLacks(local causal.Vec, mine, remote []byte) bool {
	if bytes.Equal(mine, remote) {
		return false
	}
	switch causal.Compare(local, causal.ParseVec(wire.NewBinReader(remote))) {
	case causal.Descends, causal.Concurrent:
		return true
	}
	return false
}

// handlePush absorbs a versioned fact set pushed by a gossip partner.
func (sy *Syncer) handlePush(_ netapi.Ctx, _ ids.ID, msg wire.Message) {
	p, ok := msg.(*GossipPushMsg)
	if !ok {
		return
	}
	remote, err := DecodeVersionedFacts(p.Data)
	if err != nil {
		return
	}
	sy.absorbSubject(p.Name, remote, nil)
}
