package knowledge

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/gloss/active/internal/causal"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/plaxton"
	"github.com/gloss/active/internal/simnet"
	"github.com/gloss/active/internal/store"
	"github.com/gloss/active/internal/wire"
)

// convergedSyncer is a one-node syncer holding objects subjects (each
// written by three writers in turn), with the answering digest of a partner that holds exactly the same versions,
// and the world it runs in.
func convergedSyncer(tb testing.TB, objects int) (*Syncer, *GossipMsg, *simnet.World) {
	tb.Helper()
	w := simnet.NewWorld(simnet.Config{Seed: 5})
	reg := wire.NewRegistry()
	plaxton.RegisterMessages(reg)
	store.RegisterMessages(reg)
	RegisterMessages(reg)
	node := w.NewNode(ids.Random(rand.New(rand.NewSource(5))), "r", netapi.Coord{})
	ov := plaxton.New(node, reg, wire.CodecBinary, plaxton.Options{HeartbeatInterval: -1})
	st := store.New(node, ov, store.Options{RepairInterval: -1})
	ov.CreateNetwork()
	sy := NewSyncer(st, NewKB(), Options{})
	for i := 0; i < objects; i++ {
		subj := fmt.Sprintf("user-%04d", i)
		v := &causal.Versioned[[]Fact]{}
		for wr := 0; wr < 3; wr++ {
			v.Put(fmt.Sprintf("writer-%d", wr), []Fact{{S: subj, P: "likes", O: fmt.Sprint(wr)}})
		}
		sy.subjects[subj] = v
	}
	return sy, &GossipMsg{Reply: true, Entries: sy.digest()}, w
}

// TestConvergedDigestAllocs pins the cost of answering a digest that
// matches every local version: no push, and at most three allocations
// however many objects the digest names (the map of the partner's
// entries), not a vector merge, an encoding and a parse per object.
func TestConvergedDigestAllocs(t *testing.T) {
	for _, objects := range []int{10, 100} {
		sy, dg, _ := convergedSyncer(t, objects)
		allocs := testing.AllocsPerRun(50, func() { sy.handleDigest(nil, ids.Zero, dg) })
		if pushes := sy.Stats().GossipPushes; pushes != 0 {
			t.Fatalf("%d objects: a converged digest pushed %d objects", objects, pushes)
		}
		t.Logf("%d objects: %.0f allocs per converged digest", objects, allocs)
		if raceEnabled {
			continue
		}
		if allocs > 3 {
			t.Errorf("%d objects: %.0f allocs per converged digest, want at most 3", objects, allocs)
		}
	}
}

// TestDigestReplyIsTheDigest holds the reply handleDigest builds as it
// compares to the digest a gossip round sends: the same entries, byte for
// byte, objects of several siblings included.
func TestDigestReplyIsTheDigest(t *testing.T) {
	sy, dg, w := convergedSyncer(t, 20)
	ep := sy.store.Endpoint()
	var reply *GossipMsg
	ep.Handle("kb.digest", func(_ netapi.Ctx, _ ids.ID, msg wire.Message) { reply = msg.(*GossipMsg) })
	sy.handleDigest(nil, ep.ID(), &GossipMsg{Entries: dg.Entries[:10]}) // the rest is pushed
	w.RunFor(time.Second)
	if reply == nil || !reply.Reply {
		t.Fatalf("no reply to a digest: %+v", reply)
	}
	byName := func(es []DigestEntry) []DigestEntry {
		return slices.SortedFunc(slices.Values(es), func(a, b DigestEntry) int { return cmp.Compare(a.Name, b.Name) })
	}
	if got, want := byName(reply.Entries), byName(sy.digest()); !reflect.DeepEqual(got, want) {
		t.Fatalf("reply entries\n %v\nwant the digest's\n %v", got, want)
	}
	if pushes := sy.Stats().GossipPushes; pushes != uint64(len(dg.Entries)-10) {
		t.Fatalf("%d objects pushed, want the %d the partner's digest left out", pushes, len(dg.Entries)-10)
	}
}

// answers runs handleDigest on dg, sent by the syncer's own node, and
// returns the digest reply and the number of pushes it sent.
func answers(t *testing.T, sy *Syncer, w *simnet.World, dg *GossipMsg) (reply *GossipMsg, pushes int) {
	t.Helper()
	ep := sy.store.Endpoint()
	ep.Handle("kb.digest", func(_ netapi.Ctx, _ ids.ID, msg wire.Message) { reply = msg.(*GossipMsg) })
	ep.Handle("kb.push", func(netapi.Ctx, ids.ID, wire.Message) { pushes++ })
	sy.handleDigest(nil, ep.ID(), dg)
	w.RunFor(time.Second)
	return reply, pushes
}

// TestEqualDigestGetsNoReply: a digest that is not a reply and names
// exactly this node's objects, every vector byte-equal, is answered by
// nothing: no push and no reply digest.
func TestEqualDigestGetsNoReply(t *testing.T) {
	sy, dg, w := convergedSyncer(t, 20)
	reply, pushes := answers(t, sy, w, &GossipMsg{Entries: dg.Entries})
	if reply != nil || pushes != 0 {
		t.Fatalf("an equal digest got reply %v and %d pushes, want neither", reply, pushes)
	}
}

// TestUnequalDigestGetsTheFullReply: a digest that differs from ours in
// one entry — a stale vector, a newer one, a missing object or an object
// we lack — still gets our whole digest back, and a push exactly when
// the partner lacks history we hold.
func TestUnequalDigestGetsTheFullReply(t *testing.T) {
	byName := func(es []DigestEntry) []DigestEntry {
		return slices.SortedFunc(slices.Values(es), func(a, b DigestEntry) int { return cmp.Compare(a.Name, b.Name) })
	}
	older := causal.Vec{"writer-0": 1}.AppendWire(nil)
	newer := causal.Vec{"writer-0": 1, "writer-1": 1, "writer-2": 1, "writer-9": 1}.AppendWire(nil)
	for _, tc := range []struct {
		name   string
		edit   func([]DigestEntry) []DigestEntry
		pushes int
	}{
		{"stale entry", func(es []DigestEntry) []DigestEntry { es[3].Vec = older; return es }, 1},
		{"newer entry", func(es []DigestEntry) []DigestEntry { es[3].Vec = newer; return es }, 0},
		{"missing entry", func(es []DigestEntry) []DigestEntry { return slices.Delete(es, 3, 4) }, 1},
		{"extra entry", func(es []DigestEntry) []DigestEntry { return append(es, DigestEntry{Name: "user-new", Vec: older}) }, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sy, dg, w := convergedSyncer(t, 20)
			reply, pushes := answers(t, sy, w, &GossipMsg{Entries: tc.edit(slices.Clone(dg.Entries))})
			if reply == nil || !reply.Reply {
				t.Fatalf("no reply digest: %+v", reply)
			}
			if got, want := byName(reply.Entries), byName(sy.digest()); !reflect.DeepEqual(got, want) {
				t.Fatalf("reply entries\n %v\nwant the digest's\n %v", got, want)
			}
			if pushes != tc.pushes {
				t.Fatalf("%d pushes, want %d", pushes, tc.pushes)
			}
		})
	}
}

// TestCachedDigestMatchesRecomputed runs random programs of publishes,
// fetch-absorbs (with read repair), gossip pushes and digests on one
// syncer, with a sibling cap low enough to compact, and after every step
// holds digest(), served from the vector cache, to the vectors encoded
// afresh from every object.
func TestCachedDigestMatchesRecomputed(t *testing.T) {
	byName := func(es []DigestEntry) []DigestEntry {
		return slices.SortedFunc(slices.Values(es), func(a, b DigestEntry) int { return cmp.Compare(a.Name, b.Name) })
	}
	fresh := func(sy *Syncer) []DigestEntry {
		var es []DigestEntry
		for name, v := range sy.subjects {
			es = append(es, DigestEntry{Name: name, Vec: v.Vec().AppendWire(nil)})
		}
		return es
	}
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sy, _, w := convergedSyncer(t, 3)
		sy.opts.siblingCap = 3
		names := []string{"user-0000", "user-0001", "user-0007"}
		remoteFacts := map[string]*causal.Versioned[[]Fact]{}
		writer := func() string { return fmt.Sprintf("remote-%d", rng.Intn(4)) }
		for step := 0; step < 60; step++ {
			subj := names[rng.Intn(len(names))]
			if remoteFacts[subj] == nil {
				remoteFacts[subj] = &causal.Versioned[[]Fact]{}
			}
			op := rng.Intn(5)
			switch op {
			case 0: // publish a subject
				sy.kb.AddSPO(subj, "step", fmt.Sprint(step))
				sy.PublishSubject(subj, func(error) {})
			case 1: // a fetch absorbs the stored copy and may read-repair it
				remoteFacts[subj].Put(writer(), []Fact{{S: subj, P: "r", O: fmt.Sprint(step)}})
				data := EncodeVersionedFacts(remoteFacts[subj])
				dec, err := DecodeVersionedFacts(data)
				if err != nil {
					t.Fatal(err)
				}
				sy.absorbSubject(subj, dec, data)
			case 2: // a gossip push
				remoteFacts[subj].Put(writer(), []Fact{{S: subj, P: "g", O: fmt.Sprint(step)}})
				sy.handlePush(nil, ids.Zero, &GossipPushMsg{Name: subj, Data: EncodeVersionedFacts(remoteFacts[subj])})
			case 3: // a partner's digest is answered from the cache
				sy.handleDigest(nil, ids.Zero, &GossipMsg{Entries: fresh(sy)[:rng.Intn(3)]})
			case 4:
				w.RunFor(100 * time.Millisecond)
			}
			if got, want := byName(sy.digest()), byName(fresh(sy)); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d (op %d): digest\n %v\nrecomputed\n %v", seed, step, op, got, want)
			}
		}
	}
}

// TestPartnerLacksMatchesCompare holds the byte shortcut to the causal
// order: a push exactly when the local vector descends from or is
// concurrent with the partner's, also for an encoding that is not
// canonical (an explicit zero counter) and so differs in bytes only.
func TestPartnerLacksMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	writers := []string{"a", "b", "c"}
	rvec := func() causal.Vec {
		var v causal.Vec
		for i := rng.Intn(4); i > 0; i-- {
			v = v.Increment(writers[rng.Intn(len(writers))])
		}
		return v
	}
	for i := 0; i < 2000; i++ {
		local, remote := rvec(), rvec()
		if i%3 == 0 {
			remote = local.Clone()
		}
		o := causal.Compare(local, remote)
		want := o == causal.Descends || o == causal.Concurrent
		if got := partnerLacks(local, local.AppendWire(nil), remote.AppendWire(nil)); got != want {
			t.Fatalf("partnerLacks(%v, %v) = %v, want %v (%v)", local, remote, got, want, o)
		}
	}
	local := causal.Vec{"a": 2}
	padded := wire.AppendUvarint(nil, 2)
	padded = wire.AppendUvarint(wire.AppendString(padded, "a"), 2)
	padded = wire.AppendUvarint(wire.AppendString(padded, "b"), 0)
	if partnerLacks(local, local.AppendWire(nil), padded) {
		t.Fatalf("{a:2 b:0} from the partner is Equal to %v: no push", local)
	}
}

func BenchmarkGossipDigestConverged(b *testing.B) {
	sy, dg, _ := convergedSyncer(b, 100)
	b.ReportAllocs()
	for b.Loop() {
		sy.handleDigest(nil, ids.Zero, dg)
	}
}
