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
// written by three writers in turn) and one GIS document, with the
// answering digest of a partner that holds exactly the same versions,
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
	sy := NewSyncer(st, NewKB())
	for i := 0; i < objects; i++ {
		subj := fmt.Sprintf("user-%04d", i)
		v := &causal.Versioned[[]Fact]{}
		for wr := 0; wr < 3; wr++ {
			v.Put(fmt.Sprintf("writer-%d", wr), []Fact{{S: subj, P: "likes", O: fmt.Sprint(wr)}})
		}
		sy.subjects[subj] = v
	}
	g := &causal.Versioned[[]Place]{}
	g.Put("writer-0", []Place{{Name: "cafe"}})
	sy.gisDocs["world"] = g
	return sy, &GossipMsg{Reply: true, Entries: sy.digest()}, w
}

// TestConvergedDigestAllocs pins the cost of answering a digest that
// matches every local version: no push, and at most six allocations
// however many objects the digest names (the map of the partner's
// entries and the growth of the one scratch encoding buffer), not a
// vector clone, a sort buffer and a parse per object.
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
		if allocs > 6 {
			t.Errorf("%d objects: %.0f allocs per converged digest, want at most 6", objects, allocs)
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
