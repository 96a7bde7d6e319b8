package knowledge

import (
	"math/rand"
	"testing"
	"time"

	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/plaxton"
	"github.com/gloss/active/internal/simnet"
	"github.com/gloss/active/internal/store"
	"github.com/gloss/active/internal/wire"
)

// buildStores creates a small joined overlay with a store on each node.
func buildStores(t *testing.T, n int) (*simnet.World, []*store.Store) {
	t.Helper()
	w := simnet.NewWorld(simnet.Config{Seed: 5})
	reg := wire.NewRegistry()
	plaxton.RegisterMessages(reg)
	store.RegisterMessages(reg)
	RegisterMessages(reg)
	rng := rand.New(rand.NewSource(5))
	var overlays []*plaxton.Overlay
	var stores []*store.Store
	for i := 0; i < n; i++ {
		node := w.NewNode(ids.Random(rng), "r", netapi.Coord{X: rng.Float64() * 1000})
		ov := plaxton.New(node, reg, wire.CodecXML, plaxton.Options{HeartbeatInterval: -1, LeafHalf: 4})
		stores = append(stores, store.New(node, ov, store.Options{RepairInterval: -1}))
		overlays = append(overlays, ov)
	}
	overlays[0].CreateNetwork()
	for i := 1; i < n; i++ {
		overlays[i].Join(overlays[0].ID(), nil)
		w.RunFor(2 * time.Second)
	}
	w.RunFor(3 * time.Second)
	return w, stores
}

func TestSyncerSubjectRoundTrip(t *testing.T) {
	w, stores := buildStores(t, 10)

	// Node 0 knows about bob and publishes.
	kb0 := NewKB()
	kb0.AddSPO("bob", "likes", "ice cream")
	kb0.AddSPO("bob", "nationality", "scottish")
	kb0.Add(Fact{S: "bob", P: "on-holiday", O: "true", From: 20 * 24 * time.Hour, To: 27 * 24 * time.Hour})
	sy0 := NewSyncer(stores[0], kb0, Options{})
	var pubErr error
	sy0.PublishSubject("bob", func(err error) { pubErr = err })
	w.RunFor(5 * time.Second)
	if pubErr != nil {
		t.Fatalf("publish: %v", pubErr)
	}

	// A matcher node elsewhere fetches bob's profile on demand.
	kb7 := NewKB()
	sy7 := NewSyncer(stores[7], kb7, Options{})
	var fetchErr error
	sy7.FetchSubject("bob", func(err error) { fetchErr = err })
	w.RunFor(5 * time.Second)
	if fetchErr != nil {
		t.Fatalf("fetch: %v", fetchErr)
	}
	if !kb7.Ask("bob", "likes", "ice cream", -1) {
		t.Fatalf("fact not synced")
	}
	if !kb7.Ask("bob", "on-holiday", "true", 25*24*time.Hour) {
		t.Fatalf("validity lost in sync")
	}
	if st7, st0 := sy7.Stats(), sy0.Stats(); st7.Fetches != 1 || st0.Publishes != 1 {
		t.Fatalf("counters: fetches=%d publishes=%d", st7.Fetches, st0.Publishes)
	}
}

func TestSyncerFetchMissingSubject(t *testing.T) {
	w, stores := buildStores(t, 6)
	var gotErr error
	NewSyncer(stores[2], NewKB(), Options{}).FetchSubject("nobody", func(err error) { gotErr = err })
	w.RunFor(10 * time.Second)
	if gotErr == nil {
		t.Fatalf("fetch of missing subject should fail")
	}
}
