package exp

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/plaxton"
	"github.com/gloss/active/internal/store"
)

// T16StoragePlane measures what the streaming storage plane costs to
// heal: for replicated objects, the repair payload and incremental wire
// traffic after losing one replica holder, across object size, chunk
// size and wire codec; for an erasure-coded (m=4, r=2) object, the
// traffic to recover a single lost fragment via in-network reconstruction
// vs the whole-object re-copy ablation. Wire bytes count codec-encoded
// store.* frames only (overlay heartbeats and leaf maintenance excluded),
// baseline-corrected: the steady-state store rate (digest rounds, stat
// probes) measured over a pre-failure window is subtracted from the
// recovery window.
func T16StoragePlane(quick bool) *Table {
	t := &Table{
		ID:     "E-T16",
		Title:  "Storage plane repair traffic: size × chunk × codec × repair mode",
		Header: []string{"object KiB", "chunk KiB", "codec", "repair", "payload KB", "wire KB", "recover ms"},
	}
	type cfg struct {
		objKiB, chunkKiB int
		codec, repair    string
	}
	rows := []cfg{
		{64, 64, "bin", "digest"},
		{256, 64, "bin", "digest"},
		{256, 16, "bin", "digest"},
		{256, 64, "xml", "digest"},
	}
	nodes := 20
	if quick {
		rows = []cfg{
			{16, 16, "bin", "digest"},
			{64, 16, "bin", "digest"},
			{64, 4, "bin", "digest"},
			{64, 16, "xml", "digest"},
		}
		nodes = 14
	}
	for i, r := range rows {
		payloadKB, wireKB, recov, ok := t16Replication(16000+int64(i), nodes,
			r.objKiB<<10, r.chunkKiB<<10, r.codec)
		if !ok {
			t.AddRow(fmt.Sprint(r.objKiB), fmt.Sprint(r.chunkKiB), r.codec, r.repair,
				"setup failed", "-", "-")
			continue
		}
		t.AddRow(fmt.Sprint(r.objKiB), fmt.Sprint(r.chunkKiB), r.codec, r.repair,
			f1(payloadKB), f1(wireKB), ms(recov))
	}
	codedKiB := 256
	codedNodes := 24
	if quick {
		codedKiB = 32
		codedNodes = 16
	}
	for _, erasureRepair := range []bool{true, false} {
		mode := "erasure"
		if !erasureRepair {
			mode = "recopy"
		}
		wireKB, recov, ok := t16Coded(16100, codedNodes, codedKiB<<10, erasureRepair)
		if !ok {
			t.AddRow(fmt.Sprint(codedKiB), "-", "bin", mode, "-", "setup failed", "-")
			continue
		}
		t.AddRow(fmt.Sprint(codedKiB), "-", "bin", mode, "n/a", f1(wireKB), ms(recov))
	}
	t.Notes = append(t.Notes,
		"replication rows: kill one replica holder of 4 objects (k=3), heal to full degree",
		"payload KB = object bytes the repair layer pushed during healing",
		"wire KB = codec-accounted store.* bytes during healing minus the pre-failure baseline rate × healing time",
		"coded rows: kill the root of one fragment of an (m=4, r=2) object; erasure rebuilds from m survivors in-network and hands the fragment direct to its root, recopy is the GetCoded+PutCoded whole-object ablation")
	return t
}

// t16Replication builds a k=3 cluster, kills one replica holder and
// reports what healing back to full replication degree cost.
func t16Replication(seed int64, nodes, objBytes, chunkBytes int, codec string) (payloadKB, wireKB float64, recov time.Duration, ok bool) {
	const k = 3
	c := buildCluster(clusterCfg{
		seed: seed, nodes: nodes, withStores: true,
		overlay: plaxton.Options{HeartbeatInterval: time.Second, ProbeTimeout: 300 * time.Millisecond},
		storeOpts: store.Options{
			Replicas: k, RepairInterval: 2 * time.Second, RequestTimeout: 5 * time.Second,
			ChunkBytes: chunkBytes,
		},
		codec: codec,
	})
	rng := rand.New(rand.NewSource(seed))
	const objects = 4
	guids := make([]ids.ID, objects)
	for i := range guids {
		body := make([]byte, objBytes)
		rng.Read(body)
		guids[i] = store.GUIDFor(body)
		c.stores[i%nodes].Put(body, func(ids.ID, error) {})
		c.world.RunFor(2 * time.Second)
	}
	c.world.RunFor(15 * time.Second)
	if !t16AllReplicated(c, guids, k) {
		return 0, 0, 0, false
	}
	// Baseline: steady-state wire rate before any failure.
	const calib = 10 * time.Second
	b0 := t16StoreBytes(c)
	c.world.RunFor(calib)
	rate := float64(t16StoreBytes(c)-b0) / float64(calib)

	// Victim: a node holding an object with exactly k live copies, so
	// the kill genuinely drops replication degree and repair must act
	// (an object still carrying a not-yet-GC'd extra copy would heal
	// "for free").
	victim := -1
	for i := 1; i < nodes && victim < 0; i++ {
		for _, g := range guids {
			if c.stores[i].Holds(g) && t16LiveHolders(c, g) == k {
				victim = i
				break
			}
		}
	}
	if victim < 0 {
		return 0, 0, 0, false
	}
	pay0 := t16RepairBytes(c, victim)
	w0 := t16StoreBytes(c)
	killAt := c.world.Now()
	c.node(victim).Kill()
	deadline := killAt + 120*time.Second
	for c.world.Now() < deadline && !t16AllReplicated(c, guids, k) {
		c.world.RunFor(500 * time.Millisecond)
	}
	if !t16AllReplicated(c, guids, k) {
		return 0, 0, 0, false
	}
	recov = c.world.Now() - killAt
	payloadKB = float64(t16RepairBytes(c, victim)-pay0) / 1024
	wire := float64(t16StoreBytes(c)-w0) - rate*float64(recov)
	if wire < 0 {
		wire = 0
	}
	return payloadKB, wire / 1024, recov, true
}

// t16Coded builds a coded (m=4, r=2) object, kills a single fragment
// root and reports what restoring full fragment coverage cost — via
// in-network erasure reconstruction or the read-repair re-copy ablation.
func t16Coded(seed int64, nodes, objBytes int, erasureRepair bool) (wireKB float64, recov time.Duration, ok bool) {
	const total = 6 // m=4 data + r=2 parity fragments
	c := buildCluster(clusterCfg{
		seed: seed, nodes: nodes, withStores: true,
		overlay: plaxton.Options{HeartbeatInterval: time.Second, ProbeTimeout: 300 * time.Millisecond},
		storeOpts: store.Options{
			Replicas: 1, RepairInterval: 2 * time.Second, RequestTimeout: 2 * time.Second,
			ErasureData: 4, ErasureParity: 2,
			// Fragments ride whole routed frames and promiscuous caching
			// stays off: chunking and path caching are orthogonal to the
			// repair-traffic comparison this row makes.
			ChunkBytes:        1 << 20,
			DisableCache:      true,
			DisableFragRepair: !erasureRepair,
		},
		codec: "bin",
	})
	rng := rand.New(rand.NewSource(seed))
	body := make([]byte, objBytes)
	rng.Read(body)
	var guid ids.ID
	var putErr error
	c.stores[0].PutCoded(body, func(g ids.ID, err error) { guid, putErr = g, err })
	c.world.RunFor(15 * time.Second)
	if putErr != nil || !t16AllFragments(c, guid, total) {
		return 0, 0, false
	}
	const calib = 10 * time.Second
	b0 := t16StoreBytes(c)
	c.world.RunFor(calib)
	rate := float64(t16StoreBytes(c)-b0) / float64(calib)

	// Victim: a node rooting exactly one fragment, so the kill loses a
	// single fragment and nothing else.
	victim := -1
	for i := 1; i < nodes; i++ {
		held := 0
		for f := 0; f < total; f++ {
			if c.stores[i].Holds(store.FragmentGUID(guid, f)) {
				held++
			}
		}
		if held == 1 {
			victim = i
			break
		}
	}
	if victim < 0 {
		return 0, 0, false
	}
	w0 := t16StoreBytes(c)
	killAt := c.world.Now()
	c.node(victim).Kill()
	if !erasureRepair {
		// Whole-object re-copy ablation: with in-network reconstruction
		// off, the only recovery is the origin re-reading the object and
		// re-putting every fragment. Start it after the same failure
		// detection delay the erasure path pays (heartbeat eviction plus
		// one repair round).
		c.world.RunFor(6 * time.Second)
		c.stores[0].GetCoded(guid, func(data []byte, err error) {
			if err == nil {
				c.stores[0].PutCoded(data, func(ids.ID, error) {})
			}
		})
	}
	deadline := killAt + 120*time.Second
	for c.world.Now() < deadline && !t16AllFragments(c, guid, total) {
		c.world.RunFor(500 * time.Millisecond)
	}
	if !t16AllFragments(c, guid, total) {
		return 0, 0, false
	}
	recov = c.world.Now() - killAt
	wire := float64(t16StoreBytes(c)-w0) - rate*float64(recov)
	if wire < 0 {
		wire = 0
	}
	return wire / 1024, recov, true
}

// t16StoreBytes sums codec-accounted bytes over storage-plane message
// kinds, leaving overlay maintenance traffic out of the measurement.
func t16StoreBytes(c *overlayCluster) uint64 {
	var n uint64
	for kind, b := range c.world.Metrics().BytesByKind {
		if strings.HasPrefix(kind, "store.") {
			n += b
		}
	}
	return n
}

// t16RepairBytes sums the payload bytes the repair layer pushed, over
// live nodes excluding the (future or actual) victim — so the pre-kill
// and post-heal snapshots cover the same population.
func t16RepairBytes(c *overlayCluster, victim int) uint64 {
	var n uint64
	for i, s := range c.stores {
		if i != victim && c.node(i).Alive() {
			n += s.Stats().RepairBytes
		}
	}
	return n
}

// t16LiveHolders counts live nodes holding guid.
func t16LiveHolders(c *overlayCluster, guid ids.ID) int {
	held := 0
	for i, s := range c.stores {
		if c.node(i).Alive() && s.Holds(guid) {
			held++
		}
	}
	return held
}

// t16AllReplicated reports whether every object has at least k live
// holders.
func t16AllReplicated(c *overlayCluster, guids []ids.ID, k int) bool {
	for _, g := range guids {
		held := 0
		for i, s := range c.stores {
			if c.node(i).Alive() && s.Holds(g) {
				held++
			}
		}
		if held < k {
			return false
		}
	}
	return true
}

// t16AllFragments reports whether every fragment of a coded object has a
// live holder.
func t16AllFragments(c *overlayCluster, guid ids.ID, total int) bool {
	for f := 0; f < total; f++ {
		held := false
		for i, s := range c.stores {
			if c.node(i).Alive() && s.Holds(store.FragmentGUID(guid, f)) {
				held = true
				break
			}
		}
		if !held {
			return false
		}
	}
	return true
}
