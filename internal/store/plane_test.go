package store

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/leakcheck"
)

// storedState summarises a node's stored objects (GUID + body hash) in
// deterministic order, for exact cross-cluster comparison.
func storedState(s *Store) string {
	var sb strings.Builder
	for _, g := range s.sortedGUIDs() {
		fmt.Fprintf(&sb, "%s:%016x;", g.String(), hash64(s.objects[g].bytes()))
	}
	return sb.String()
}

// planeBodies is the mixed-size workload shared by the differential
// tests: several bodies straddle the 1 KiB chunk threshold so the
// chunked path genuinely engages.
func planeBodies(seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	sizes := []int{40, 700, 1<<10 + 1, 5 << 10, 24 << 10}
	var bodies [][]byte
	for _, size := range sizes {
		for j := 0; j < 3; j++ {
			b := make([]byte, size)
			rng.Read(b)
			bodies = append(bodies, b)
		}
	}
	return bodies
}

// blindRepair is the seed repair pass, kept as the oracle the digest
// protocol is compared against: the same replica GC, then k-1 full copies
// of every rooted object pushed whether or not the targets hold them.
func blindRepair(s *Store) {
	guids, leaves := s.sortedGUIDs(), s.overlay.Leaves()
	for _, guid := range guids {
		if s.pinned[guid] || s.rootAmong(leaves, guid) || s.inReplicaRange(leaves, guid) {
			continue
		}
		s.dropObject(guid)
		s.stats.ReplicaEvictions++
	}
	for _, guid := range guids {
		if b, ok := s.objects[guid]; ok && s.rootAmong(leaves, guid) {
			s.replicate(leaves, guid, b)
		}
	}
}

// buildBlindCluster is buildCluster on the seed storage plane: every body
// in one frame (a ChunkBytes above every body the tests put through it),
// the store's own maintenance off, and — with a positive interval —
// blindRepair on the triggers the store would have used, every interval
// and on every leaf-set change.
func buildBlindCluster(t testing.TB, seed int64, n int, interval time.Duration) *cluster {
	c := buildCluster(t, seed, n, Options{Replicas: 3, RepairInterval: -1, ChunkBytes: 64 << 10})
	if interval <= 0 {
		return c
	}
	for i, s := range c.stores {
		c.overlays[i].OnLeavesChanged(func() { blindRepair(s) })
		var tick func()
		tick = func() {
			blindRepair(s)
			s.ep.Clock().After(interval, tick)
		}
		s.ep.Clock().After(interval, tick)
	}
	return c
}

// putBodies stores bodies round-robin, one per virtual second, runs the
// world for settle and fails unless every put was acknowledged.
func putBodies(t *testing.T, c *cluster, bodies [][]byte, settle time.Duration) {
	t.Helper()
	acked := 0
	for i, body := range bodies {
		c.stores[i%len(c.stores)].Put(body, func(_ ids.ID, err error) {
			if err == nil {
				acked++
			}
		})
		c.world.RunFor(time.Second)
	}
	c.world.RunFor(settle)
	if acked != len(bodies) {
		t.Fatalf("acked %d of %d puts", acked, len(bodies))
	}
}

// cachedState summarises a node's promiscuous cache (GUID + body hash)
// in key order, as storedState does its stored objects.
func cachedState(s *Store) string {
	var sb strings.Builder
	for _, g := range slices.SortedFunc(maps.Keys(s.cache.items), ids.Cmp) {
		b := s.cache.items[g].Value.(*lruItem).b // not get: reading must not reorder the LRU
		fmt.Fprintf(&sb, "%s:%016x;", g.String(), hash64(b.bytes()))
	}
	return sb.String()
}

// TestDifferentialInlineVsChunkedTransfers proves that how a transfer
// carries its body is a pure transport choice. One workload — puts and
// their replication, cold and warm gets with their answers and cache
// fills, placement pushes, then digest repair after a holder dies — runs
// once with every body inside its manifest and once with every body above
// 1 KiB in chunk frames. Both must end with the same holders, pins, cache
// contents, get results and RepairBytes on every live node; only the
// chunk counters may differ.
func TestDifferentialInlineVsChunkedTransfers(t *testing.T) {
	bodies := planeBodies(770)
	inline := buildCluster(t, 77, 16, Options{Replicas: 3, RepairInterval: -1, ChunkBytes: 64 << 10}) // above every body
	chunked := buildCluster(t, 77, 16, Options{Replicas: 3, RepairInterval: -1, ChunkBytes: 1 << 10})
	var gets [2][]string
	var healed [2]uint64 // RepairBytes the digest rounds after the death moved
	repairBytes := func(c *cluster) (n uint64) {
		for _, s := range c.stores {
			n += s.Stats().RepairBytes
		}
		return n
	}
	for k, c := range []*cluster{inline, chunked} {
		putBodies(t, c, bodies, 20*time.Second)
		gets[k] = make([]string, 2*len(bodies))
		for round := range 2 { // cold reads, then warm ones that caches answer
			for i, body := range bodies {
				at := round*len(bodies) + i
				c.stores[(i*7+3+round)%len(c.stores)].Get(GUIDFor(body), func(d []byte, err error) {
					gets[k][at] = fmt.Sprintf("%016x %v", hash64(d), err)
				})
				c.world.RunFor(time.Second)
			}
		}
		for i, body := range bodies {
			guid := GUIDFor(body)
			for j := range c.stores {
				if target := c.stores[(i+j)%len(c.stores)]; !target.Holds(guid) {
					c.stores[i%len(c.stores)].RequestPush(guid, target.ep.ID())
					break
				}
			}
		}
		c.world.RunFor(10 * time.Second)
		healed[k] = repairBytes(c)
		c.world.Node(c.stores[5].ep.ID()).Kill()
		c.world.RunFor(20 * time.Second) // the dead holder leaves every leaf set
		for _, s := range c.stores {
			if c.world.Node(s.ep.ID()).Alive() {
				s.repair()
			}
		}
		c.world.RunFor(20 * time.Second)
		healed[k] = repairBytes(c) - healed[k]
	}
	if healed[0] != healed[1] || healed[0] == 0 {
		t.Errorf("digest repair after the death moved %d bytes inline, %d chunked; want the same, above 0", healed[0], healed[1])
	}
	for i, g := range gets[0] {
		if g != gets[1][i] {
			t.Errorf("get %d: inline read %s, chunked %s", i, g, gets[1][i])
		}
		if strings.Contains(g, "error") || g == "" {
			t.Errorf("get %d did not read its object: %q", i, g)
		}
	}
	var pins, repaired, framesRecv uint64
	for i := range inline.stores {
		a, b := inline.stores[i], chunked.stores[i]
		if a.ep.ID() != b.ep.ID() {
			t.Fatalf("topologies diverged at node %d", i)
		}
		if !inline.world.Node(a.ep.ID()).Alive() {
			continue
		}
		if sa, sb := storedState(a), storedState(b); sa != sb {
			t.Errorf("node %d stored state differs:\ninline:  %s\nchunked: %s", i, sa, sb)
		}
		if !maps.Equal(a.pinned, b.pinned) {
			t.Errorf("node %d pins differ: inline %v, chunked %v", i, a.pinned, b.pinned)
		}
		if ca, cb := cachedState(a), cachedState(b); ca != cb {
			t.Errorf("node %d cache differs:\ninline:  %s\nchunked: %s", i, ca, cb)
		}
		sa, sb := a.Stats(), b.Stats()
		if sa.RepairPushes != sb.RepairPushes || sa.RepairBytes != sb.RepairBytes || sa.CacheFills != sb.CacheFills {
			t.Errorf("node %d stats diverged: inline=%+v chunked=%+v", i, sa, sb)
		}
		if n := sa.ChunkFramesSent + sa.ChunkFramesRecv; n != 0 {
			t.Errorf("node %d of the inline cluster moved %d chunk frames", i, n)
		}
		pins += uint64(len(a.pinned))
		repaired += sa.RepairPushes
		framesRecv += sb.ChunkFramesRecv
	}
	if pins == 0 || repaired == 0 || framesRecv == 0 {
		t.Fatalf("vacuous: %d pins, %d replica pushes, %d chunk frames received", pins, repaired, framesRecv)
	}
}

// TestDifferentialRepairConvergence kills the same nodes in a blind-repair
// and a digest cluster and checks both converge to identical placement —
// with the digest path pushing strictly fewer replicas.
func TestDifferentialRepairConvergence(t *testing.T) {
	legacy := buildBlindCluster(t, 78, 20, 2*time.Second)
	digest := buildCluster(t, 78, 20, Options{Replicas: 3, RepairInterval: 2 * time.Second, ChunkBytes: 1 << 10})
	for _, c := range []*cluster{legacy, digest} {
		putBodies(t, c, planeBodies(780), 10*time.Second)
		for _, i := range []int{3, 8, 14} {
			c.world.Node(c.stores[i].ep.ID()).Kill()
		}
		c.world.RunFor(40 * time.Second)
	}
	var legacyPushes, digestPushes, skipped uint64
	for i := range legacy.stores {
		if !legacy.world.Node(legacy.stores[i].ep.ID()).Alive() {
			continue // frozen mid-flight state on dead nodes is timing noise
		}
		a, b := storedState(legacy.stores[i]), storedState(digest.stores[i])
		if a != b {
			t.Errorf("live node %d placement differs after healing:\nlegacy: %s\ndigest: %s", i, a, b)
		}
		legacyPushes += legacy.stores[i].Stats().RepairPushes
		digestPushes += digest.stores[i].Stats().RepairPushes
		skipped += digest.stores[i].Stats().RepairSkipped
	}
	if digestPushes >= legacyPushes {
		t.Errorf("digest repair pushed %d replicas, blind repair %d — digests saved nothing", digestPushes, legacyPushes)
	}
	if skipped == 0 {
		t.Errorf("digest repair never skipped a present replica")
	}
}

// TestDigestRepairQuiescesWhenStable: once a stable cluster is fully
// replicated, digest rounds must move zero payload bytes while blind
// repair keeps re-pushing every interval.
func TestDigestRepairQuiescesWhenStable(t *testing.T) {
	repairBytes := func(c *cluster) uint64 {
		var n uint64
		for _, s := range c.stores {
			n += s.Stats().RepairBytes
		}
		return n
	}
	legacy := buildBlindCluster(t, 79, 16, time.Second)
	digest := buildCluster(t, 79, 16, Options{Replicas: 3, RepairInterval: time.Second})
	for _, c := range []*cluster{legacy, digest} {
		acked := 0
		for i := 0; i < 10; i++ {
			c.stores[i%16].Put([]byte(fmt.Sprintf("stable-object-%d", i)), func(_ ids.ID, err error) {
				if err == nil {
					acked++
				}
			})
		}
		c.world.RunFor(15 * time.Second)
		if acked != 10 {
			t.Fatalf("acked %d of 10 puts", acked)
		}
	}
	legacyBase, digestBase := repairBytes(legacy), repairBytes(digest)
	legacy.world.RunFor(10 * time.Second)
	digest.world.RunFor(10 * time.Second)
	if d := repairBytes(digest) - digestBase; d != 0 {
		t.Errorf("digest repair moved %d payload bytes across a stable cluster", d)
	}
	if d := repairBytes(legacy) - legacyBase; d == 0 {
		t.Errorf("blind repair moved no bytes — comparison is vacuous")
	}
	var skipped uint64
	for _, s := range digest.stores {
		skipped += s.Stats().RepairSkipped
	}
	if skipped == 0 {
		t.Errorf("no replicas were digest-verified as present")
	}
}

// TestCodedGetReportsCorruptFragments is the regression test for the
// lost-callback bug: a corrupt (unparseable) fragment pushed the failure
// count past the tolerance without re-checking it, so the final
// callback never fired and the read hung forever.
func TestCodedGetReportsCorruptFragments(t *testing.T) {
	c := buildCluster(t, 80, 20, Options{
		RepairInterval: -1,
		Replicas:       1,
		ErasureData:    3,
		ErasureParity:  1,
		retries:        0,
		RequestTimeout: 2 * time.Second,
	})
	content := []byte("corrupt two of four fragments and the read must fail loudly")
	var guid ids.ID
	var putErr error
	c.stores[0].PutCoded(content, func(g ids.ID, err error) { guid, putErr = g, err })
	c.world.RunFor(10 * time.Second)
	if putErr != nil {
		t.Fatalf("coded put: %v", putErr)
	}
	// Corrupt exactly 2 fragment roots in place (need 3 of 4; only 2
	// intact remain). Both failures GetCoded sees are corrupt fragments,
	// so the threshold is crossed on the corrupt path specifically.
	corrupted := 0
	for i := 0; i < 4 && corrupted < 2; i++ {
		key := fragGUID(guid, i)
		for _, s := range c.stores {
			if b, ok := s.objects[key]; ok {
				b.bytes()[0] ^= 0xFF // break the fragment magic
				corrupted++
				break
			}
		}
	}
	if corrupted != 2 {
		t.Fatalf("setup: corrupted %d fragment roots, want 2", corrupted)
	}
	fired := false
	var getErr error
	c.stores[11].GetCoded(guid, func(_ []byte, err error) { fired, getErr = true, err })
	c.world.RunFor(20 * time.Second)
	if !fired {
		t.Fatalf("coded get callback never fired with corrupt fragments")
	}
	if getErr == nil {
		t.Fatalf("coded get returned data reconstructed from too few intact fragments")
	}
}

// TestStatsStoredBytesTracksObjects checks the O(1) incremental byte
// counter against a full recount after puts, overwrites and drops.
func TestStatsStoredBytesTracksObjects(t *testing.T) {
	c := buildCluster(t, 81, 12, Options{Replicas: 3, RepairInterval: time.Second})
	acked := 0
	for i := 0; i < 8; i++ {
		c.stores[i%12].Put([]byte(fmt.Sprintf("bytes-object-%d-%s", i, strings.Repeat("x", i*13))), func(_ ids.ID, err error) {
			if err == nil {
				acked++
			}
		})
	}
	c.world.RunFor(8 * time.Second)
	key := ids.FromString("facts/bytes/overwritten")
	c.stores[0].PutAs(key, []byte("first version, longer than the second"), func(error) {})
	c.world.RunFor(4 * time.Second)
	c.stores[5].PutAs(key, []byte("v2"), func(error) {})
	c.world.RunFor(8 * time.Second)
	if acked != 8 {
		t.Fatalf("acked %d of 8 puts", acked)
	}
	for i, s := range c.stores {
		var recount int64
		for _, b := range s.objects {
			recount += int64(len(b.bytes()))
		}
		st := s.Stats()
		if st.StoredBytes != recount {
			t.Errorf("node %d: StoredBytes=%d but recount=%d", i, st.StoredBytes, recount)
		}
		if st.StoredObjects != len(s.objects) {
			t.Errorf("node %d: StoredObjects=%d but holds %d", i, st.StoredObjects, len(s.objects))
		}
	}
}

// TestRepairEvictsOutOfRangeReplicas: doubling the cluster shifts the
// k-closest window of most objects; repair must reclaim the replicas the
// old holders are no longer responsible for, and no live node may end up
// holding an unpinned out-of-range copy.
func TestRepairEvictsOutOfRangeReplicas(t *testing.T) {
	opts := Options{Replicas: 3, RepairInterval: time.Second}
	c := buildCluster(t, 82, 10, opts)
	acked := 0
	for i := 0; i < 16; i++ {
		c.stores[i%10].Put([]byte(fmt.Sprintf("gc-object-%d-%s", i, strings.Repeat("y", 150))), func(_ ids.ID, err error) {
			if err == nil {
				acked++
			}
		})
	}
	c.world.RunFor(10 * time.Second)
	if acked != 16 {
		t.Fatalf("acked %d of 16 puts", acked)
	}
	for i := 0; i < 10; i++ {
		c.addNode(t, opts)
	}
	c.world.RunFor(30 * time.Second)
	var evictions uint64
	for _, s := range c.stores {
		evictions += s.Stats().ReplicaEvictions
	}
	if evictions == 0 {
		t.Fatalf("cluster doubled but no out-of-range replica was evicted")
	}
	for i, s := range c.stores {
		for guid := range s.objects {
			if !s.pinned[guid] && !s.isRoot(guid) && !s.inReplicaRange(s.overlay.Leaves(), guid) {
				t.Errorf("node %d still holds out-of-range replica %s", i, guid.Short())
			}
		}
	}
}

// TestChunkedReplicationDelivers pushes a body much larger than
// ChunkBytes end to end: replication degree, read-back fidelity, and the
// chunk counters all have to line up.
func TestChunkedReplicationDelivers(t *testing.T) {
	c := buildCluster(t, 83, 16, Options{Replicas: 3, RepairInterval: -1, ChunkBytes: 512})
	body := make([]byte, 8<<10)
	rand.New(rand.NewSource(83)).Read(body)
	var guid ids.ID
	var putErr error
	c.stores[0].Put(body, func(g ids.ID, err error) { guid, putErr = g, err })
	c.world.RunFor(10 * time.Second)
	if putErr != nil {
		t.Fatalf("chunked put: %v", putErr)
	}
	if n := c.copies(guid); n != 3 {
		t.Fatalf("chunked object has %d copies, want 3", n)
	}
	for i, s := range c.stores {
		if b, ok := s.objects[guid]; ok && string(b.bytes()) != string(body) {
			t.Errorf("node %d holds a corrupted reassembly", i)
		}
	}
	var got []byte
	var getErr error
	c.stores[9].Get(guid, func(d []byte, err error) { got, getErr = d, err })
	c.world.RunFor(10 * time.Second)
	if getErr != nil {
		t.Fatalf("chunked get: %v", getErr)
	}
	if string(got) != string(body) {
		t.Fatalf("chunked get returned %d bytes, mismatch", len(got))
	}
	var sent, recv uint64
	for _, s := range c.stores {
		sent += s.Stats().ChunkFramesSent
		recv += s.Stats().ChunkFramesRecv
	}
	if sent < 16*3 { // 16 chunks × pull + 2 replicas, at minimum
		t.Errorf("only %d chunk frames sent for an 8 KiB body at 512 B chunks", sent)
	}
	if recv == 0 {
		t.Errorf("no chunk frames received")
	}
}

// TestChunkTimeoutDropsStalledTransfer: a manifest whose chunks never
// arrive must be garbage collected after chunkTimeout, not leak
// reassembly buffers forever.
func TestChunkTimeoutDropsStalledTransfer(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	c := buildCluster(t, 84, 2, Options{RepairInterval: -1, chunkTimeout: time.Second})
	recv := c.stores[0]
	recv.handleManifest(nil, c.stores[1].ep.ID(), &ManifestMsg{
		Xfer:     7,
		GUID:     ids.FromString("stalled").String(),
		Purpose:  xferReplicate,
		TotalLen: 4096,
		Chunk:    512,
	})
	if len(recv.xfers) != 1 {
		t.Fatalf("manifest did not open a transfer")
	}
	c.world.RunFor(3 * time.Second)
	if len(recv.xfers) != 0 {
		t.Fatalf("stalled transfer still held after timeout")
	}
	if recv.Stats().ChunkTimeouts != 1 {
		t.Fatalf("ChunkTimeouts = %d, want 1", recv.Stats().ChunkTimeouts)
	}
}

// TestFragmentRepairRebuildsLostFragment kills a single fragment root of
// a coded object and checks a sibling reconstructs the missing fragment
// from m survivors — without any whole-object re-copy.
func TestFragmentRepairRebuildsLostFragment(t *testing.T) {
	c := buildCluster(t, 85, 24, Options{
		Replicas:       1,
		RepairInterval: 2 * time.Second,
		ErasureData:    3,
		ErasureParity:  2,
		RequestTimeout: 2 * time.Second,
	})
	content := make([]byte, 3000)
	rand.New(rand.NewSource(85)).Read(content)
	var guid ids.ID
	var putErr error
	c.stores[0].PutCoded(content, func(g ids.ID, err error) { guid, putErr = g, err })
	c.world.RunFor(10 * time.Second)
	if putErr != nil {
		t.Fatalf("coded put: %v", putErr)
	}
	// Kill one node that roots exactly one fragment.
	var victim *Store
	for _, s := range c.stores {
		held := 0
		for i := 0; i < 5; i++ {
			if s.Holds(fragGUID(guid, i)) {
				held++
			}
		}
		if held == 1 {
			victim = s
			break
		}
	}
	if victim == nil {
		t.Skipf("seed placed no single-fragment holder")
	}
	c.world.Node(victim.ep.ID()).Kill()
	c.world.RunFor(60 * time.Second)
	var repairs uint64
	for _, s := range c.stores {
		if c.world.Node(s.ep.ID()).Alive() {
			repairs += s.Stats().FragRepairs
		}
	}
	if repairs == 0 {
		t.Fatalf("lost fragment was never reconstructed")
	}
	// All 5 fragments live again on live nodes.
	for i := 0; i < 5; i++ {
		held := false
		for _, s := range c.stores {
			if c.world.Node(s.ep.ID()).Alive() && s.Holds(fragGUID(guid, i)) {
				held = true
				break
			}
		}
		if !held {
			t.Errorf("fragment %d still missing after repair", i)
		}
	}
	var got []byte
	var getErr error
	c.stores[15].GetCoded(guid, func(d []byte, err error) { got, getErr = d, err })
	c.world.RunFor(15 * time.Second)
	if getErr != nil {
		t.Fatalf("coded get after repair: %v", getErr)
	}
	if string(got) != string(content) {
		t.Fatalf("coded content mismatch after fragment repair")
	}
}
