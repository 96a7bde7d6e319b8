package store

import (
	"slices"

	"github.com/gloss/active/internal/erasure"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/plaxton"
	"github.com/gloss/active/internal/wire"
)

// Digest-driven replica maintenance and erasure-coded reconstruction.
//
// Each interval the root asks its replica targets for a
// GUID+length+hash summary of what they hold and pushes only missing or
// stale replicas (Stats.RepairSkipped / RepairBytes count the saving over
// re-pushing k-1 full copies of every rooted object). For erasure-coded
// objects, a fragment root that finds its successor fragment missing
// reconstructs it from any m surviving siblings via erasure.Code instead
// of someone re-copying the whole object — loss recovery traffic drops
// from O(object x hops) to O(fragment).

// repair is the periodic maintenance pass (and the leaf-set-change
// trigger): GC replicas this node is no longer responsible for, then
// restore replication degree for rooted objects.
func (s *Store) repair() {
	// One snapshot of the held keys and of the leaf set serves the whole pass.
	guids, leaves := s.sortedGUIDs(), s.overlay.Leaves()
	// Replica GC: churn shifts the k-closest window, and nothing else
	// removes a replica a node stopped being responsible for, so without
	// this pass storage grows without bound.
	for _, guid := range guids {
		if s.pinned[guid] || s.rootAmong(leaves, guid) || s.inReplicaRange(leaves, guid) {
			continue
		}
		s.dropObject(guid)
		s.stats.ReplicaEvictions++
	}
	s.digestRepair(guids, leaves)
	if !s.opts.DisableFragRepair {
		s.fragCheck(guids, leaves)
	}
}

// sortedGUIDs snapshots the stored object keys in deterministic order.
func (s *Store) sortedGUIDs() []ids.ID { return slices.Clone(s.keys) }

// inReplicaRange reports whether this node is one of the k nodes
// numerically closest to guid among itself and its leaf set — i.e. still
// a legitimate replica holder.
func (s *Store) inReplicaRange(leaves []ids.ID, guid ids.ID) bool {
	self := s.ep.ID()
	closer := 0
	for _, l := range leaves {
		if ids.Closer(guid, l, self) {
			closer++
			if closer >= s.opts.Replicas {
				return false
			}
		}
	}
	return true
}

// digestRepair opens a digest round: ask every current replica target
// for its holdings summary; pushes happen in handleDigest.
func (s *Store) digestRepair(guids, leaves []ids.ID) {
	want := make(map[ids.ID][]ids.ID)
	for _, guid := range guids {
		if _, ok := s.objects[guid]; !ok || !s.rootAmong(leaves, guid) {
			continue
		}
		for _, t := range s.replicaTargets(leaves, guid) {
			want[t] = append(want[t], guid)
		}
	}
	if len(want) == 0 {
		return
	}
	s.digestRound++
	s.digestWant = want
	targets := make([]ids.ID, 0, len(want))
	for t := range want {
		targets = append(targets, t)
	}
	slices.SortFunc(targets, ids.Cmp)
	for _, t := range targets {
		s.ep.Send(t, &DigestReqMsg{Round: s.digestRound})
	}
}

// handleDigestReq runs at a replica holder: summarise everything held.
// Each copy carries its sum, so a round costs O(objects), not O(bytes).
func (s *Store) handleDigestReq(_ netapi.Ctx, from ids.ID, msg wire.Message) {
	rq := msg.(*DigestReqMsg)
	reply := &DigestMsg{Round: rq.Round, Entries: make([]DigestEntry, 0, len(s.keys))}
	for _, guid := range s.keys {
		b := s.objects[guid]
		reply.Entries = append(reply.Entries, DigestEntry{
			GUID: b.hexKey(guid),
			Len:  b.size(),
			Hash: b.hash(),
		})
	}
	s.ep.Send(from, reply)
}

// handleDigest runs at the root: compare the holder's summary against
// what it should replicate for us and push only the gaps.
func (s *Store) handleDigest(_ netapi.Ctx, from ids.ID, msg wire.Message) {
	dm := msg.(*DigestMsg)
	if dm.Round != s.digestRound {
		return // stale round: a fresh one is already in flight
	}
	want := s.digestWant[from]
	if len(want) == 0 {
		return
	}
	delete(s.digestWant, from)
	held := make(map[string]DigestEntry, len(dm.Entries))
	for _, e := range dm.Entries {
		held[e.GUID] = e
	}
	leaves := s.overlay.Leaves()
	for _, guid := range want {
		b, ok := s.objects[guid]
		if !ok || !s.rootAmong(leaves, guid) {
			continue // dropped or re-rooted since the round opened
		}
		if e, ok := held[b.hexKey(guid)]; ok && e.Len == b.size() && e.Hash == b.hash() {
			s.stats.RepairSkipped++
			continue
		}
		s.pushReplica(from, guid, b, false)
	}
}

// pushReplica sends one replica copy and accounts it. pin marks a copy a
// placement policy chose, which replica GC must leave alone.
func (s *Store) pushReplica(to, guid ids.ID, b *blob, pin bool) {
	s.stats.RepairPushes++
	s.stats.RepairBytes += uint64(b.size())
	s.send(to, &ManifestMsg{GUID: guid.String(), Purpose: xferReplicate, Pin: pin}, b)
}

// --- erasure-coded reconstruction ------------------------------------------

// statProbe is one in-flight fragment existence check.
type statProbe struct {
	missing ids.ID // storage key of the fragment being probed
	meta    fragMeta
	index   int    // fragment index under probe
	root    ids.ID // node that answered the stat — the missing key's root
	timer   interface{ Stop() bool }
}

// fragCheck runs at fragment roots: each checks its successor sibling
// (i+1 mod total), so every fragment of a coded object has exactly one
// designated checker and a single loss triggers a single repair. A run
// of adjacent losses heals over successive rounds as each repaired
// fragment starts checking its own successor.
func (s *Store) fragCheck(guids, leaves []ids.ID) {
	for _, guid := range guids {
		b, ok := s.objects[guid]
		if !ok || !s.rootAmong(leaves, guid) {
			continue
		}
		// Sniff before parsing, which would flatten a pieced body every round.
		if h := b.head(2); len(h) < 2 || h[0] != fragMagic0 || h[1] != fragMagic1 {
			continue // not a coded fragment
		}
		f, meta, err := unpackFragment(b.bytes())
		if err != nil {
			continue
		}
		total := meta.data + meta.parity
		if total < 2 || f.Index >= total {
			continue
		}
		next := (f.Index + 1) % total
		missing := fragGUID(meta.object, next)
		if _, held := s.objects[missing]; held {
			continue // we root both: trivially present
		}
		if s.fragBusy[missing] {
			continue // probe or repair already in flight
		}
		s.statFragment(missing, meta, next)
	}
}

// statFragment probes whether a sibling fragment still exists anywhere,
// via a routed stat (no body transfer).
func (s *Store) statFragment(missing ids.ID, meta fragMeta, index int) {
	s.fragBusy[missing] = true
	s.nextReq++
	req := s.nextReq
	p := &statProbe{missing: missing, meta: meta, index: index}
	p.timer = s.ep.Clock().After(s.opts.RequestTimeout, func() {
		if _, ok := s.pendingStats[req]; !ok {
			return
		}
		delete(s.pendingStats, req)
		delete(s.fragBusy, missing) // unknown: retry next repair round
	})
	s.pendingStats[req] = p
	if err := s.overlay.Route(missing, &StatMsg{GUID: missing.String(), ReqID: req}); err != nil {
		p.timer.Stop()
		delete(s.pendingStats, req)
		delete(s.fragBusy, missing)
	}
}

// deliverStat runs at the probed key's root.
func (s *Store) deliverStat(info plaxton.RouteInfo, msg wire.Message) {
	sm := msg.(*StatMsg)
	guid, err := ids.Parse(sm.GUID)
	if err != nil {
		return
	}
	b, ok := s.objects[guid]
	reply := &StatReplyMsg{ReqID: sm.ReqID, Found: ok}
	if ok {
		reply.Len = b.size()
	}
	if info.Origin == s.ep.ID() {
		s.handleStatReply(nil, s.ep.ID(), reply)
		return
	}
	s.ep.Send(info.Origin, reply)
}

func (s *Store) handleStatReply(_ netapi.Ctx, from ids.ID, msg wire.Message) {
	rm := msg.(*StatReplyMsg)
	p, ok := s.pendingStats[rm.ReqID]
	if !ok {
		return
	}
	delete(s.pendingStats, rm.ReqID)
	p.timer.Stop()
	if rm.Found {
		delete(s.fragBusy, p.missing)
		return
	}
	// The stat was routed to the missing key's root, so the replier IS
	// the node responsible for the rebuilt fragment — remember it and
	// push direct rather than routing a second time.
	p.root = from
	s.repairFragment(p)
}

// repairFragment gathers any m surviving sibling fragments (locally held
// ones first — those cost nothing) and rebuilds the missing one.
func (s *Store) repairFragment(p *statProbe) {
	total := p.meta.data + p.meta.parity
	need := p.meta.data
	// Candidate siblings, locally held ones first (those cost nothing).
	candidates := make([]int, 0, total-1)
	for i := 0; i < total; i++ {
		if i == p.index {
			continue
		}
		if _, held := s.objects[fragGUID(p.meta.object, i)]; held {
			candidates = append(candidates, i)
		}
	}
	for i := 0; i < total; i++ {
		if i == p.index {
			continue
		}
		if _, held := s.objects[fragGUID(p.meta.object, i)]; !held {
			candidates = append(candidates, i)
		}
	}

	var (
		frags    []erasure.Fragment
		seen     = make(map[int]bool, need)
		next     int
		inflight int
		done     bool
		launch   func()
	)
	onFrag := func(data []byte, err error) {
		inflight--
		if done {
			return
		}
		if err == nil {
			if f, meta, perr := unpackFragment(data); perr == nil && meta.object == p.meta.object && !seen[f.Index] {
				seen[f.Index] = true
				frags = append(frags, f)
				if len(frags) == need {
					done = true
					s.rebuildFragment(p, frags)
					return
				}
			}
		}
		launch()
	}
	launch = func() {
		// Fetch only as many siblings as reconstruction still needs;
		// failures pull the next candidate in.
		for !done && len(frags)+inflight < need && next < len(candidates) {
			idx := candidates[next]
			next++
			inflight++
			s.Get(fragGUID(p.meta.object, idx), onFrag)
		}
		if !done && inflight == 0 && len(frags) < need {
			done = true
			delete(s.fragBusy, p.missing) // too few survivors; retry later
		}
	}
	launch()
}

// rebuildFragment decodes the object from the gathered fragments,
// re-encodes, and stores the missing fragment back under its own key.
func (s *Store) rebuildFragment(p *statProbe, frags []erasure.Fragment) {
	code, err := erasure.NewCode(p.meta.data, p.meta.parity)
	if err != nil {
		delete(s.fragBusy, p.missing)
		return
	}
	content, err := code.Decode(frags)
	if err != nil {
		delete(s.fragBusy, p.missing)
		return
	}
	rebuilt := code.Encode(content)
	if p.index >= len(rebuilt) {
		delete(s.fragBusy, p.missing)
		return
	}
	s.stats.FragRepairs++
	packed := packFragment(p.meta.object, p.meta.data, p.meta.parity, rebuilt[p.index])
	if p.root != (ids.ID{}) && p.root != s.ep.ID() {
		// The stat reply identified the fragment's root: hand the rebuilt
		// fragment straight to it (one hop, O(fragment) traffic) instead
		// of routing a put through the overlay. Loss is safe — the next
		// repair round re-probes and re-pushes.
		s.pushReplica(p.root, p.missing, &blob{data: packed}, false)
		delete(s.fragBusy, p.missing)
		return
	}
	s.PutAs(p.missing, packed, func(error) { delete(s.fragBusy, p.missing) })
}
