package knowledge

import (
	"fmt"
	"math/rand"
	"testing"

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
// answering digest of a partner that holds exactly the same versions.
func convergedSyncer(tb testing.TB, objects int) (*Syncer, *GossipMsg) {
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
	return sy, &GossipMsg{Reply: true, Entries: sy.digest()}
}

// TestConvergedDigestAllocs pins the cost of answering a digest that
// matches every local version: no push, and at most six allocations
// however many objects the digest names (the map of the partner's
// entries and the growth of the one scratch encoding buffer), not a
// vector clone, a sort buffer and a parse per object.
func TestConvergedDigestAllocs(t *testing.T) {
	for _, objects := range []int{10, 100} {
		sy, dg := convergedSyncer(t, objects)
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
	var scratch []byte
	for i := 0; i < 2000; i++ {
		local, remote := rvec(), rvec()
		if i%3 == 0 {
			remote = local.Clone()
		}
		o := causal.Compare(local, remote)
		want := o == causal.Descends || o == causal.Concurrent
		if got := partnerLacks(local, remote.AppendWire(nil), &scratch); got != want {
			t.Fatalf("partnerLacks(%v, %v) = %v, want %v (%v)", local, remote, got, want, o)
		}
	}
	local := causal.Vec{"a": 2}
	padded := wire.AppendUvarint(nil, 2)
	padded = wire.AppendUvarint(wire.AppendString(padded, "a"), 2)
	padded = wire.AppendUvarint(wire.AppendString(padded, "b"), 0)
	if partnerLacks(local, padded, &scratch) {
		t.Fatalf("{a:2 b:0} from the partner is Equal to %v: no push", local)
	}
}

func BenchmarkGossipDigestConverged(b *testing.B) {
	sy, dg := convergedSyncer(b, 100)
	b.ReportAllocs()
	for b.Loop() {
		sy.handleDigest(nil, ids.Zero, dg)
	}
}
