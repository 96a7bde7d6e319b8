package store

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/plaxton"
	"github.com/gloss/active/internal/simnet"
	"github.com/gloss/active/internal/wire"
)

// cluster is a joined overlay + store on every node.
type cluster struct {
	world    *simnet.World
	stores   []*Store
	byID     map[ids.ID]*Store
	overlays []*plaxton.Overlay
	reg      *wire.Registry
	rng      *rand.Rand
}

var testCodecs = [2]string{wire.CodecXML, wire.CodecBinary}

func buildCluster(t testing.TB, seed int64, n int, opts Options) *cluster {
	t.Helper()
	w := simnet.NewWorld(simnet.Config{Seed: seed})
	reg := wire.NewRegistry()
	plaxton.RegisterMessages(reg)
	RegisterMessages(reg)
	rng := rand.New(rand.NewSource(seed))
	c := &cluster{world: w, byID: make(map[ids.ID]*Store), reg: reg, rng: rng}
	for i := 0; i < n; i++ {
		id := ids.Random(rng)
		node := w.NewNode(id, "r", netapi.Coord{X: rng.Float64() * 3000, Y: rng.Float64() * 3000})
		// Alternate codecs: every cluster routes XML and binary payloads
		// through each other.
		ov := plaxton.New(node, reg, testCodecs[i%2], plaxton.Options{
			HeartbeatInterval: time.Second,
			ProbeTimeout:      300 * time.Millisecond,
			LeafHalf:          4,
		})
		st := New(node, ov, opts)
		c.overlays = append(c.overlays, ov)
		c.stores = append(c.stores, st)
		c.byID[id] = st
	}
	c.overlays[0].CreateNetwork()
	for i := 1; i < n; i++ {
		ok := false
		c.overlays[i].Join(c.overlays[rng.Intn(i)].ID(), func(err error) {
			if err != nil {
				t.Fatalf("join %d: %v", i, err)
			}
			ok = true
		})
		w.RunFor(2 * time.Second)
		if !ok {
			t.Fatalf("node %d join incomplete", i)
		}
	}
	w.RunFor(5 * time.Second)
	return c
}

// addNode joins one extra node into an already-built cluster.
func (c *cluster) addNode(t testing.TB, opts Options) *Store {
	t.Helper()
	id := ids.Random(c.rng)
	node := c.world.NewNode(id, "r", netapi.Coord{X: c.rng.Float64() * 3000, Y: c.rng.Float64() * 3000})
	ov := plaxton.New(node, c.reg, testCodecs[len(c.overlays)%2], plaxton.Options{
		HeartbeatInterval: time.Second,
		ProbeTimeout:      300 * time.Millisecond,
		LeafHalf:          4,
	})
	st := New(node, ov, opts)
	ok := false
	ov.Join(c.overlays[c.rng.Intn(len(c.overlays))].ID(), func(err error) {
		if err != nil {
			t.Fatalf("late join: %v", err)
		}
		ok = true
	})
	c.world.RunFor(2 * time.Second)
	if !ok {
		t.Fatalf("late join incomplete")
	}
	c.overlays = append(c.overlays, ov)
	c.stores = append(c.stores, st)
	c.byID[id] = st
	return st
}

// copies counts primary/replica holders of guid across the cluster.
func (c *cluster) copies(guid ids.ID) int {
	n := 0
	for _, s := range c.stores {
		if s.Holds(guid) {
			n++
		}
	}
	return n
}

func TestPutGetRoundTrip(t *testing.T) {
	c := buildCluster(t, 1, 16, Options{RepairInterval: -1})
	content := []byte("bob likes ice cream when the weather is hot")
	var guid ids.ID
	var putErr error
	c.stores[0].Put(content, func(g ids.ID, err error) { guid, putErr = g, err })
	c.world.RunFor(5 * time.Second)
	if putErr != nil {
		t.Fatalf("put: %v", putErr)
	}
	if guid != GUIDFor(content) {
		t.Fatalf("guid mismatch")
	}
	var got []byte
	var getErr error
	c.stores[7].Get(guid, func(d []byte, err error) { got, getErr = d, err })
	c.world.RunFor(5 * time.Second)
	if getErr != nil {
		t.Fatalf("get: %v", getErr)
	}
	if string(got) != string(content) {
		t.Fatalf("content mismatch: %q", got)
	}
}

func TestReplicationDegree(t *testing.T) {
	c := buildCluster(t, 2, 20, Options{Replicas: 4, RepairInterval: -1})
	content := []byte("replicate me")
	var guid ids.ID
	c.stores[0].Put(content, func(g ids.ID, _ error) { guid = g })
	c.world.RunFor(5 * time.Second)
	if n := c.copies(guid); n != 4 {
		t.Fatalf("object has %d copies, want 4", n)
	}
}

func TestGetNotFound(t *testing.T) {
	c := buildCluster(t, 3, 8, Options{RepairInterval: -1})
	var gotErr error
	c.stores[0].Get(ids.FromString("never stored"), func(_ []byte, err error) { gotErr = err })
	c.world.RunFor(10 * time.Second)
	if !errors.Is(gotErr, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", gotErr)
	}
}

func TestPromiscuousCachingServesRepeatReads(t *testing.T) {
	c := buildCluster(t, 4, 24, Options{RepairInterval: -1})
	content := []byte("popular object read by everyone")
	var guid ids.ID
	c.stores[0].Put(content, func(g ids.ID, _ error) { guid = g })
	c.world.RunFor(5 * time.Second)

	reader := c.stores[13]
	done := 0
	for i := 0; i < 5; i++ {
		reader.Get(guid, func(d []byte, err error) {
			if err != nil {
				t.Errorf("get %d: %v", i, err)
			}
			done++
		})
		c.world.RunFor(3 * time.Second)
	}
	if done != 5 {
		t.Fatalf("completed %d of 5 gets", done)
	}
	st := reader.Stats()
	// After the first remote fetch the reader's own cache answers.
	if st.LocalHits < 4 {
		t.Fatalf("local cache hits = %d, want ≥ 4", st.LocalHits)
	}
}

func TestCacheDisabledGoesToRootEveryTime(t *testing.T) {
	c := buildCluster(t, 5, 24, Options{RepairInterval: -1, DisableCache: true, Replicas: 1})
	content := []byte("uncached object")
	var guid ids.ID
	c.stores[0].Put(content, func(g ids.ID, _ error) { guid = g })
	c.world.RunFor(5 * time.Second)
	reader := c.stores[13]
	for i := 0; i < 5; i++ {
		reader.Get(guid, func(_ []byte, err error) {
			if err != nil {
				t.Errorf("get: %v", err)
			}
		})
		c.world.RunFor(3 * time.Second)
	}
	var rootAnswers uint64
	for _, s := range c.stores {
		rootAnswers += s.Stats().RootAnswers
	}
	if rootAnswers != 5 {
		t.Fatalf("root answered %d of 5 reads with caching disabled", rootAnswers)
	}
}

func TestSelfHealingRestoresReplicas(t *testing.T) {
	c := buildCluster(t, 6, 24, Options{Replicas: 3, RepairInterval: time.Second})
	content := []byte("survive the churn")
	var guid ids.ID
	c.stores[0].Put(content, func(g ids.ID, _ error) { guid = g })
	c.world.RunFor(5 * time.Second)
	if n := c.copies(guid); n < 3 {
		t.Fatalf("initial copies = %d", n)
	}
	// Kill every current holder except one.
	killed := 0
	for _, s := range c.stores {
		if s.Holds(guid) && killed < 2 {
			c.world.Node(s.ep.ID()).Kill()
			killed++
		}
	}
	// Heartbeats detect the failures; repair re-replicates.
	c.world.RunFor(30 * time.Second)
	live := 0
	for _, s := range c.stores {
		if !c.world.Node(s.ep.ID()).Alive() {
			continue
		}
		if s.Holds(guid) {
			live++
		}
	}
	if live < 3 {
		t.Fatalf("after healing, live copies = %d, want ≥ 3", live)
	}
	// And the object is still readable.
	var got []byte
	c.stores[20].Get(guid, func(d []byte, err error) {
		if err != nil {
			t.Errorf("get after churn: %v", err)
		}
		got = d
	})
	c.world.RunFor(10 * time.Second)
	if string(got) != string(content) {
		t.Fatalf("content lost after churn")
	}
}

func TestRootFailureBeforeRepairStillReadable(t *testing.T) {
	c := buildCluster(t, 7, 24, Options{Replicas: 3, RepairInterval: time.Second})
	content := []byte("root will die")
	var guid ids.ID
	c.stores[0].Put(content, func(g ids.ID, _ error) { guid = g })
	c.world.RunFor(5 * time.Second)
	// Kill the root (numerically closest holder).
	var root *Store
	for _, s := range c.stores {
		if s.Holds(guid) && s.isRoot(guid) {
			root = s
			break
		}
	}
	if root == nil {
		t.Fatalf("no root found")
	}
	c.world.Node(root.ep.ID()).Kill()
	c.world.RunFor(15 * time.Second) // overlay repairs; replicas remain
	var got []byte
	var getErr error
	c.stores[17].Get(guid, func(d []byte, err error) { got, getErr = d, err })
	c.world.RunFor(10 * time.Second)
	if getErr != nil {
		t.Fatalf("get after root failure: %v", getErr)
	}
	if string(got) != string(content) {
		t.Fatalf("bad content after root failure")
	}
}

func TestPutAsExplicitKey(t *testing.T) {
	c := buildCluster(t, 8, 12, Options{RepairInterval: -1})
	key := ids.FromString("facts/user/bob")
	var putErr error
	c.stores[2].PutAs(key, []byte("v1"), func(err error) { putErr = err })
	c.world.RunFor(5 * time.Second)
	if putErr != nil {
		t.Fatalf("putAs: %v", putErr)
	}
	// Overwrite with v2.
	c.stores[3].PutAs(key, []byte("v2"), func(err error) { putErr = err })
	c.world.RunFor(5 * time.Second)
	var got []byte
	c.stores[9].Get(key, func(d []byte, err error) {
		if err != nil {
			t.Errorf("get: %v", err)
		}
		got = d
	})
	c.world.RunFor(5 * time.Second)
	if string(got) != "v2" {
		t.Fatalf("got %q, want v2", got)
	}
}

func TestCodedPutGet(t *testing.T) {
	c := buildCluster(t, 9, 24, Options{RepairInterval: -1, Replicas: 1, ErasureData: 4, ErasureParity: 2})
	content := []byte("erasure coded payload: reconstitute from any 4 of 6 fragments")
	var guid ids.ID
	var putErr error
	c.stores[0].PutCoded(content, func(g ids.ID, err error) { guid, putErr = g, err })
	c.world.RunFor(10 * time.Second)
	if putErr != nil {
		t.Fatalf("coded put: %v", putErr)
	}
	var got []byte
	var getErr error
	c.stores[11].GetCoded(guid, func(d []byte, err error) { got, getErr = d, err })
	c.world.RunFor(10 * time.Second)
	if getErr != nil {
		t.Fatalf("coded get: %v", getErr)
	}
	if string(got) != string(content) {
		t.Fatalf("coded content mismatch")
	}
}

func TestCodedSurvivesFragmentLoss(t *testing.T) {
	c := buildCluster(t, 10, 24, Options{RepairInterval: -1, Replicas: 1, ErasureData: 3, ErasureParity: 2, retries: 0, RequestTimeout: 2 * time.Second})
	content := []byte("lose up to two fragment roots and still decode")
	var guid ids.ID
	c.stores[0].PutCoded(content, func(g ids.ID, err error) { guid = g })
	c.world.RunFor(10 * time.Second)
	// Kill nodes losing at most 2 fragments in total (a node may hold
	// several fragments; count what each kill costs).
	fragsHeld := func(s *Store) int {
		n := 0
		for i := 0; i < 5; i++ {
			if s.Holds(fragGUID(guid, i)) {
				n++
			}
		}
		return n
	}
	killedFrags := 0
	for _, s := range c.stores {
		h := fragsHeld(s)
		if h > 0 && killedFrags+h <= 2 {
			c.world.Node(s.ep.ID()).Kill()
			killedFrags += h
		}
		if killedFrags == 2 {
			break
		}
	}
	if killedFrags == 0 {
		t.Fatalf("setup: no fragment holder killed")
	}
	var got []byte
	var getErr error
	c.stores[15].GetCoded(guid, func(d []byte, err error) { got, getErr = d, err })
	c.world.RunFor(20 * time.Second)
	if getErr != nil {
		t.Fatalf("coded get after loss: %v", getErr)
	}
	if string(got) != string(content) {
		t.Fatalf("coded content mismatch after loss")
	}
}

func TestStatsAccounting(t *testing.T) {
	c := buildCluster(t, 11, 8, Options{RepairInterval: -1})
	var guid ids.ID
	c.stores[0].Put([]byte("stats object"), func(g ids.ID, _ error) { guid = g })
	c.world.RunFor(5 * time.Second)
	c.stores[5].Get(guid, func([]byte, error) {})
	c.world.RunFor(5 * time.Second)
	if c.stores[0].Stats().Puts != 1 {
		t.Errorf("Puts = %d", c.stores[0].Stats().Puts)
	}
	if c.stores[5].Stats().Gets != 1 {
		t.Errorf("Gets = %d", c.stores[5].Stats().Gets)
	}
	total := 0
	for _, s := range c.stores {
		st := s.Stats()
		total += st.StoredObjects
	}
	if total < 3 {
		t.Errorf("stored copies across cluster = %d, want ≥ 3 (k=3)", total)
	}
}

func fmtBytes(n int) []byte { return []byte(fmt.Sprintf("object-%06d", n)) }

func TestManyObjectsSpread(t *testing.T) {
	c := buildCluster(t, 12, 16, Options{Replicas: 2, RepairInterval: -1})
	const objs = 60
	acked := 0
	for i := 0; i < objs; i++ {
		c.stores[i%16].Put(fmtBytes(i), func(_ ids.ID, err error) {
			if err == nil {
				acked++
			}
		})
	}
	c.world.RunFor(20 * time.Second)
	if acked != objs {
		t.Fatalf("acked %d of %d puts", acked, objs)
	}
	// Placement must be spread: no node holds more than half of all copies.
	maxHeld := 0
	for _, s := range c.stores {
		if n := s.Stats().StoredObjects; n > maxHeld {
			maxHeld = n
		}
	}
	if maxHeld > objs {
		t.Fatalf("one node holds %d copies — placement is degenerate", maxHeld)
	}
	// All readable from a single reader.
	okReads := 0
	for i := 0; i < objs; i++ {
		c.stores[3].Get(GUIDFor(fmtBytes(i)), func(_ []byte, err error) {
			if err == nil {
				okReads++
			}
		})
	}
	c.world.RunFor(30 * time.Second)
	if okReads != objs {
		t.Fatalf("read back %d of %d", okReads, objs)
	}
}

// TestKeyListTracksObjects: the sorted key list a digest reply and a
// repair pass walk is exactly the object map's key set after any mix of
// stores, overwrites and drops (including drops of keys never held).
func TestKeyListTracksObjects(t *testing.T) {
	s := buildCluster(t, 5, 1, Options{RepairInterval: -1}).stores[0]
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 2000; step++ {
		guid := ids.FromString(fmt.Sprint("k", rng.Intn(64)))
		if rng.Intn(3) == 0 {
			s.dropObject(guid)
		} else {
			s.setObject(guid, &blob{data: fmtBytes(step)})
		}
		if len(s.keys) != len(s.objects) {
			t.Fatalf("step %d: %d keys for %d objects", step, len(s.keys), len(s.objects))
		}
		for i, k := range s.keys {
			if _, ok := s.objects[k]; !ok || (i > 0 && ids.Cmp(s.keys[i-1], k) >= 0) {
				t.Fatalf("step %d: key %d (%s) stale or out of order", step, i, k)
			}
		}
	}
}

// TestMixedCodecClusterPutGet: buildCluster alternates XML- and
// binary-codec nodes, so routed puts and gets from either kind of origin
// pass through (and are answered by) nodes of the other. Whole-frame and
// pulled (chunked) bodies alike must come back intact from every node.
func TestMixedCodecClusterPutGet(t *testing.T) {
	c := buildCluster(t, 61, 12, Options{Replicas: 3, RepairInterval: -1, ChunkBytes: 2 << 10})
	for origin := 0; origin < 2; origin++ { // one XML-codec origin, one binary
		for _, size := range []int{300, 9 << 10} {
			content := make([]byte, size)
			c.rng.Read(content)
			var guid ids.ID
			putErr := errors.New("put never completed")
			c.stores[origin].Put(content, func(g ids.ID, err error) { guid, putErr = g, err })
			c.world.RunFor(5 * time.Second)
			if putErr != nil {
				t.Fatalf("%d-byte put at node %d: %v", size, origin, putErr)
			}
			for reader, s := range c.stores {
				var got []byte
				s.Get(guid, func(data []byte, err error) {
					if err != nil {
						t.Errorf("get at node %d: %v", reader, err)
					}
					got = data
				})
				c.world.RunFor(5 * time.Second)
				if string(got) != string(content) {
					t.Fatalf("%d-byte object put at node %d reads back wrong at node %d", size, origin, reader)
				}
			}
		}
	}
}
