package knowledge

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/gloss/active/internal/leakcheck"
	"github.com/gloss/active/internal/store"
)

// bobWriter0/bobWriter1 are the two concurrent broker updates used by
// the multi-writer tests: disjoint always-valid facts plus one contested
// timed "location" slot with a deterministic newest-validity winner.
func bobWriter0(kb *KB) {
	kb.AddSPO("bob", "likes", "ice cream")
	kb.Add(Fact{S: "bob", P: "location", O: "home", From: 9 * time.Hour, To: 12 * time.Hour})
}

func bobWriter1(kb *KB) {
	kb.AddSPO("bob", "nationality", "scottish")
	kb.Add(Fact{S: "bob", P: "location", O: "office", From: 14 * time.Hour, To: 18 * time.Hour})
}

// unionFacts is what zero-lost-write convergence must produce: both
// writers' always-valid facts plus the newest-validity location.
func wantUnion(t *testing.T, kb *KB, label string) {
	t.Helper()
	if !kb.Ask("bob", "likes", "ice cream", -1) {
		t.Fatalf("%s: lost writer 0's fact", label)
	}
	if !kb.Ask("bob", "nationality", "scottish", -1) {
		t.Fatalf("%s: lost writer 1's fact", label)
	}
	if o, _ := kb.One("bob", "location", -1); o != "office" {
		t.Fatalf("%s: location = %q, want newest-validity winner \"office\"", label, o)
	}
}

// lwwPublish and lwwFetch are the seed's last-writer-wins knowledge sync,
// kept as the reference the Syncer is compared against: the subject's
// facts as a bare XML document, blindly overwritten on publish and blindly
// merged into the local KB on fetch.
func lwwPublish(st *store.Store, kb *KB, subject string, cb func(error)) {
	data, err := MarshalFacts(kb.SubjectFacts(subject))
	if err != nil {
		cb(err)
		return
	}
	st.PutAs(SubjectKey(subject), data, cb)
}

func lwwFetch(st *store.Store, kb *KB, subject string) {
	st.Get(SubjectKey(subject), func(data []byte, err error) {
		if err != nil {
			return
		}
		if facts, err := UnmarshalFacts(data); err == nil {
			kb.MergeSubject(subject, facts)
		}
	})
}

// TestLegacySyncByteIdentical pins the legacy data format: what the
// last-writer-wins writer stores is exactly the XML fact document, byte
// for byte, and the store hands it back untouched.
func TestLegacySyncByteIdentical(t *testing.T) {
	w, stores := buildStores(t, 6)
	kb := NewKB()
	bobWriter0(kb)
	var pubErr error
	lwwPublish(stores[0], kb, "bob", func(err error) { pubErr = err })
	w.RunFor(5 * time.Second)
	if pubErr != nil {
		t.Fatalf("publish: %v", pubErr)
	}
	want, err := MarshalFacts(kb.SubjectFacts("bob"))
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	stores[4].Get(SubjectKey("bob"), func(data []byte, err error) {
		if err != nil {
			t.Errorf("get: %v", err)
			return
		}
		got = data
	})
	w.RunFor(5 * time.Second)
	if !bytes.Equal(got, want) {
		t.Fatalf("legacy stored body not byte-identical to XML reference:\ngot  %q\nwant %q", got, want)
	}
}

// TestLegacySyncLosesConcurrentWrites demonstrates the flaw the Syncer
// fixes: two last-writer-wins brokers updating the same subject overwrite
// each other, and a reader sees exactly one writer's facts.
func TestLegacySyncLosesConcurrentWrites(t *testing.T) {
	w, stores := buildStores(t, 8)
	kb0, kb1 := NewKB(), NewKB()
	bobWriter0(kb0)
	bobWriter1(kb1)
	lwwPublish(stores[0], kb0, "bob", func(error) {})
	lwwPublish(stores[1], kb1, "bob", func(error) {})
	w.RunFor(10 * time.Second)

	kbR := NewKB()
	lwwFetch(stores[5], kbR, "bob")
	w.RunFor(10 * time.Second)

	has0 := kbR.Ask("bob", "likes", "ice cream", -1)
	has1 := kbR.Ask("bob", "nationality", "scottish", -1)
	if has0 == has1 {
		t.Fatalf("legacy last-writer-wins should keep exactly one writer's facts, got writer0=%v writer1=%v", has0, has1)
	}
}

// TestCausalConvergesNoLostWrites is the tentpole acceptance test: two
// brokers update the same subject concurrently; with causal sync and
// gossip anti-entropy EVERY node converges to the merged fact set.
func TestCausalConvergesNoLostWrites(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	w, stores := buildStores(t, 8)
	kbs := make([]*KB, len(stores))
	sys := make([]*Syncer, len(stores))
	for i := range stores {
		kbs[i] = NewKB()
		sys[i] = NewSyncerOpts(stores[i], kbs[i], Options{GossipInterval: time.Second})
	}
	bobWriter0(kbs[0])
	bobWriter1(kbs[1])
	// Published at the same virtual instant: genuinely concurrent.
	sys[0].PublishSubject("bob", func(error) {})
	sys[1].PublishSubject("bob", func(error) {})
	w.RunFor(30 * time.Second)

	for i, kb := range kbs {
		if kb.Len() == 0 {
			t.Fatalf("node %d never received the subject via gossip", i)
		}
		wantUnion(t, kb, "node")
	}
	var pushes, merges uint64
	for _, sy := range sys {
		st := sy.Stats()
		pushes += st.GossipPushes
		merges += st.SiblingMerges
	}
	if pushes == 0 {
		t.Fatalf("gossip never pushed a version")
	}
	if merges == 0 {
		t.Fatalf("concurrent publish never produced a sibling merge")
	}
}

// TestCausalFetchReadRepair checks store-level convergence without
// gossip: after concurrent publishes the second writer's fetch detects
// the sibling split and repairs the stored copy to the merged envelope,
// so later readers see the union from the store alone.
func TestCausalFetchReadRepair(t *testing.T) {
	w, stores := buildStores(t, 8)
	kb0, kb1 := NewKB(), NewKB()
	bobWriter0(kb0)
	bobWriter1(kb1)
	sy0 := NewSyncer(stores[0], kb0)
	sy1 := NewSyncer(stores[1], kb1)
	sy0.PublishSubject("bob", func(error) {})
	sy1.PublishSubject("bob", func(error) {})
	w.RunFor(10 * time.Second)

	// Both writers fetch: whichever one's write lost the store race
	// absorbs the winner's version, detects concurrency, and repairs.
	sy0.FetchSubject("bob", func(error) {})
	sy1.FetchSubject("bob", func(error) {})
	w.RunFor(10 * time.Second)
	if r := sy0.Stats().ReadRepairs + sy1.Stats().ReadRepairs; r == 0 {
		t.Fatalf("no read repair fired after concurrent publishes")
	}

	kbR := NewKB()
	NewSyncer(stores[6], kbR).FetchSubject("bob", func(error) {})
	w.RunFor(10 * time.Second)
	wantUnion(t, kbR, "reader after repair")
}

// TestSyncerDifferentialSingleWriter: with one writer there are no
// concurrent histories, so last-writer-wins and the Syncer must deliver
// the same fact set to a reader (same seed, same topology).
func TestSyncerDifferentialSingleWriter(t *testing.T) {
	run := func(legacy bool) []Fact {
		w, stores := buildStores(t, 8)
		kb := NewKB()
		bobWriter0(kb)
		kb.AddSPO("bob", "works-at", "university")
		kbR := NewKB()
		if legacy {
			lwwPublish(stores[2], kb, "bob", func(error) {})
			w.RunFor(5 * time.Second)
			lwwFetch(stores[6], kbR, "bob")
		} else {
			NewSyncer(stores[2], kb).PublishSubject("bob", func(error) {})
			w.RunFor(5 * time.Second)
			NewSyncer(stores[6], kbR).FetchSubject("bob", func(error) {})
		}
		w.RunFor(5 * time.Second)
		got := kbR.SubjectFacts("bob")
		sortFacts(got)
		return got
	}
	legacy, causal := run(true), run(false)
	if !reflect.DeepEqual(legacy, causal) {
		t.Fatalf("single-writer divergence:\nlegacy %v\ncausal %v", legacy, causal)
	}
}

// TestCausalGISConvergence: concurrent GIS publishes for one region
// union by place name on every reader.
func TestCausalGISConvergence(t *testing.T) {
	w, stores := buildStores(t, 8)
	g0, g1 := NewGIS(), NewGIS()
	if err := g0.AddPlace(janettas()); err != nil {
		t.Fatal(err)
	}
	if err := g1.AddPlace(Place{Name: "luvians", Region: "st-andrews", X: 1.2, Y: 0.4, Sells: []string{"wine"}}); err != nil {
		t.Fatal(err)
	}
	sy0 := NewSyncer(stores[0], NewKB())
	sy1 := NewSyncer(stores[1], NewKB())
	sy0.PublishGIS("st-andrews", g0, func(error) {})
	sy1.PublishGIS("st-andrews", g1, func(error) {})
	w.RunFor(10 * time.Second)
	// Writers fetch (read-repair), then a third node reads.
	sy0.FetchGIS("st-andrews", func(*GIS, error) {})
	sy1.FetchGIS("st-andrews", func(*GIS, error) {})
	w.RunFor(10 * time.Second)
	var got *GIS
	NewSyncer(stores[5], NewKB()).FetchGIS("st-andrews", func(g *GIS, err error) {
		if err != nil {
			t.Errorf("fetch gis: %v", err)
			return
		}
		got = g
	})
	w.RunFor(10 * time.Second)
	if got == nil {
		t.Fatalf("no gis fetched")
	}
	if _, ok := got.Place("janettas"); !ok {
		t.Fatalf("lost writer 0's place")
	}
	if _, ok := got.Place("luvians"); !ok {
		t.Fatalf("lost writer 1's place")
	}
}

// TestSiblingCapCompaction: more concurrent writers than siblingCap
// forces a deterministic merge instead of unbounded sibling growth.
func TestSiblingCapCompaction(t *testing.T) {
	w, stores := buildStores(t, 8)
	kbs := make([]*KB, 4)
	sys := make([]*Syncer, 4)
	for i := 0; i < 4; i++ {
		kbs[i] = NewKB()
		kbs[i].AddSPO("bob", "seen-by", stores[i].Endpoint().ID().Short())
		sys[i] = NewSyncerOpts(stores[i], kbs[i], Options{GossipInterval: time.Second, siblingCap: 2})
	}
	for i := 0; i < 4; i++ {
		sys[i].PublishSubject("bob", func(error) {})
	}
	w.RunFor(20 * time.Second)
	var compactions uint64
	for _, sy := range sys {
		compactions += sy.Stats().Compactions
	}
	if compactions == 0 {
		t.Fatalf("4 concurrent writers over cap 2 never compacted")
	}
	// Compaction must not lose writes: every writer's fact survives.
	for i, kb := range kbs {
		if got := len(kb.Query("bob", "seen-by", "", -1)); got != 4 {
			t.Fatalf("node %d: %d/4 seen-by facts after compaction", i, got)
		}
	}
}

// TestLegacyDataUpgrade: a fetch of a legacy bare-XML body lifts it into
// the empty-vector history, which any versioned write then dominates.
func TestLegacyDataUpgrade(t *testing.T) {
	w, stores := buildStores(t, 6)
	kbL := NewKB()
	bobWriter0(kbL)
	lwwPublish(stores[0], kbL, "bob", func(error) {})
	w.RunFor(5 * time.Second)

	kbC := NewKB()
	syC := NewSyncer(stores[3], kbC)
	var fetchErr error
	syC.FetchSubject("bob", func(err error) { fetchErr = err })
	w.RunFor(5 * time.Second)
	if fetchErr != nil {
		t.Fatalf("causal fetch of legacy body: %v", fetchErr)
	}
	if !kbC.Ask("bob", "likes", "ice cream", -1) {
		t.Fatalf("legacy facts lost in upgrade")
	}
	// The fetch read-repairs the store to the versioned envelope.
	if syC.Stats().ReadRepairs == 0 {
		t.Fatalf("legacy body should be upgraded by read repair")
	}
}

// TestSyncerStatsRace: Stats() snapshots are safe against concurrent
// counter updates from the node's message loop (run with -race).
func TestSyncerStatsRace(t *testing.T) {
	w, stores := buildStores(t, 6)
	kbs := make([]*KB, len(stores))
	sys := make([]*Syncer, len(stores))
	for i := range stores {
		kbs[i] = NewKB()
		sys[i] = NewSyncerOpts(stores[i], kbs[i], Options{GossipInterval: 500 * time.Millisecond})
	}
	kbs[0].AddSPO("bob", "likes", "ice cream")
	sys[0].PublishSubject("bob", func(error) {})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sink SyncStats
			for {
				select {
				case <-stop:
					_ = sink
					return
				default:
					for _, sy := range sys {
						sink = sy.Stats()
					}
				}
			}
		}()
	}
	w.RunFor(10 * time.Second)
	close(stop)
	wg.Wait()
}

// TestKBSubjectCacheInvalidation pins the wildcard-query cache satellite:
// the cached subject list must reflect every mutation path.
func TestKBSubjectCacheInvalidation(t *testing.T) {
	kb := NewKB()
	kb.AddSPO("bob", "likes", "ice cream")
	kb.AddSPO("alice", "likes", "tea")
	if got := kb.Query("", "likes", "", -1); len(got) != 2 {
		t.Fatalf("wildcard query: %d facts", len(got))
	}
	kb.AddSPO("carol", "likes", "coffee")
	if got := kb.Query("", "likes", "", -1); len(got) != 3 {
		t.Fatalf("cache stale after Add: %d facts", len(got))
	}
	kb.Remove("alice", "likes", "tea")
	if got := kb.Query("", "likes", "", -1); len(got) != 2 {
		t.Fatalf("cache stale after Remove: %d facts", len(got))
	}
	kb.MergeSubject("dave", []Fact{{S: "dave", P: "likes", O: "juice"}})
	got := kb.Query("", "likes", "", -1)
	if len(got) != 3 {
		t.Fatalf("cache stale after MergeSubject: %d facts", len(got))
	}
	// Deterministic subject order is preserved.
	if got[0].S != "bob" || got[1].S != "carol" || got[2].S != "dave" {
		t.Fatalf("subject order broken: %v", got)
	}
	if subj := kb.Subjects(); len(subj) != 3 || subj[0] != "bob" {
		t.Fatalf("Subjects() = %v", subj)
	}
}

// TestSyncerStopHaltsGossip: Stop ends the rescheduling chain — rounds
// stop advancing no matter how long the world runs — while explicit
// GossipNow still works for manually driven syncers.
func TestSyncerStopHaltsGossip(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	w, stores := buildStores(t, 4)
	kb := NewKB()
	bobWriter0(kb)
	sy := NewSyncerOpts(stores[0], kb, Options{GossipInterval: time.Second})
	sy.PublishSubject("bob", func(error) {})
	w.RunFor(10 * time.Second)
	if sy.Stats().GossipRounds == 0 {
		t.Fatal("gossip never ran before Stop")
	}
	sy.Stop()
	w.RunFor(2 * time.Second) // the already-armed timer fires as a no-op
	base := sy.Stats().GossipRounds
	w.RunFor(30 * time.Second)
	if got := sy.Stats().GossipRounds; got != base {
		t.Fatalf("gossip kept running after Stop: rounds %d -> %d", base, got)
	}
	sy.Stop() // idempotent
	sy.GossipNow()
	w.RunFor(2 * time.Second)
	if got := sy.Stats().GossipRounds; got != base+1 {
		t.Fatalf("manual GossipNow after Stop: rounds %d, want %d", got, base+1)
	}
}
