package core

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/knowledge"
	"github.com/gloss/active/internal/plaxton"
	"github.com/gloss/active/internal/simnet"
	"github.com/gloss/active/internal/wire"
)

var update = flag.Bool("update", false, "rewrite the golden files in testdata")

const (
	fingerprintGolden = "testdata/fingerprint.golden"
	upkeepGolden      = "testdata/upkeep.golden"
)

// TestWorldFingerprint holds the simulated system to the messages it
// sends: a fixed-seed 24-node world runs the Figure-1 service, a store
// put and get, and one kill and revive, and every transmit's virtual
// instant and endpoints, with the per-kind message and byte counts, are
// hashed. The hash must repeat within one process and match
// testdata/fingerprint.golden. A change that means to move a message
// regenerates the golden file with
//
//	go test ./internal/core -run TestWorldFingerprint -update
//
// and says so; a mismatch prints the per-kind counts that moved.
func TestWorldFingerprint(t *testing.T) {
	checkFingerprint(t, fingerprintGolden, worldFingerprint)
}

// TestUpkeepFingerprint holds the overlay's and the knowledge syncer's
// upkeep traffic, which TestWorldFingerprint's world never sends, to
// testdata/upkeep.golden: a fixed-seed 12-node world with heartbeats
// every 2 s and gossip every second, one published subject, and one
// kill and revive, over a virtual minute. Regenerate it like the other.
func TestUpkeepFingerprint(t *testing.T) {
	checkFingerprint(t, upkeepGolden, upkeepFingerprint)
}

// checkFingerprint runs a fingerprinted scenario twice and compares it
// with its golden file, or rewrites that file under -update.
func checkFingerprint(t *testing.T, golden string, run func(*testing.T) string) {
	got := run(t)
	if again := run(t); again != got {
		t.Fatalf("two runs of one seed differ:\n%s", kindDiff(got, again))
	}
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if string(want) != got {
		t.Fatalf("the world's traffic moved from %s (regenerate with -update if that is meant):\n%s",
			golden, kindDiff(string(want), got))
	}
}

// hashTransmits feeds every transmit's virtual instant and endpoints
// from now on to h.
func hashTransmits(w *World, h hash.Hash64) {
	var rec [8 + 2*len(ids.ID{})]byte
	w.Sim.SetLinkFilter(func(from, to ids.ID) bool {
		binary.LittleEndian.PutUint64(rec[:8], uint64(w.Sim.Now()))
		copy(rec[8:], from[:])
		copy(rec[8+len(from):], to[:])
		h.Write(rec[:])
		return true
	})
}

// fingerprintOf returns a run's fingerprint: the hash of the transmit
// stream and the counters, then one line of counters per message kind.
func fingerprintOf(w *World, h hash.Hash64) string {
	m := w.Sim.Metrics()
	kinds := slices.Sorted(maps.Keys(m.ByKind))
	var b strings.Builder
	fmt.Fprintf(&b, "sent %d delivered %d\n", m.Sent, m.Delivered)
	for _, k := range kinds {
		fmt.Fprintf(&b, "%s %d %d\n", k, m.ByKind[k], m.BytesByKind[k])
	}
	h.Write([]byte(b.String()))
	return fmt.Sprintf("fingerprint %016x\n%s", h.Sum64(), b.String())
}

// worldFingerprint runs the Figure-1 scenario and returns its
// fingerprint.
func worldFingerprint(t *testing.T) string {
	t.Helper()
	w, err := NewWorld(WorldConfig{Seed: 41, Nodes: 24, Codec: wire.CodecBinary})
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	h := fnv.New64a()
	hashTransmits(w, h)

	if _, err := w.DeployService(alwaysOpen(IceCreamService(2, "eu")), 0); err != nil {
		t.Fatalf("DeployService: %v", err)
	}
	w.RunFor(20 * time.Second)
	suggestions := bobsDevice(w, w.NodesInRegion("eu")[0])
	publishWeatherAndAnna(w)
	w.RunFor(2 * time.Second)
	publishBob(w, 3)
	w.RunFor(5 * time.Second)
	if len(*suggestions) == 0 {
		t.Fatal("no suggestion reached bob's device")
	}

	var key ids.ID
	w.Node(1).Store.Put([]byte("fingerprint object"), func(k ids.ID, err error) {
		if err != nil {
			t.Errorf("put: %v", err)
		}
		key = k
	})
	w.RunFor(5 * time.Second)
	var body []byte
	w.Node(17).Store.Get(key, func(b []byte, err error) {
		if err != nil {
			t.Errorf("get: %v", err)
		}
		body = b
	})
	w.RunFor(5 * time.Second)
	if string(body) != "fingerprint object" {
		t.Fatalf("get = %q", body)
	}

	victim := w.Node(5).Endpoint().(*simnet.Node)
	victim.Kill()
	w.RunFor(10 * time.Second)
	victim.Revive()
	w.RunFor(10 * time.Second)
	fp := fingerprintOf(w, h)

	// The acknowledged put survived the kill: at least Replicas live
	// nodes (the store's default, 3, which this world keeps) hold it.
	holders := 0
	for _, n := range w.Nodes {
		if n.Endpoint().(*simnet.Node).Alive() && n.Store.Holds(key) {
			holders++
		}
	}
	if holders < 3 {
		t.Errorf("%d live nodes hold the acknowledged put, want at least 3", holders)
	}
	return fp
}

// upkeepFingerprint runs the upkeep scenario and returns its
// fingerprint.
func upkeepFingerprint(t *testing.T) string {
	t.Helper()
	w, err := NewWorld(WorldConfig{Seed: 43, Nodes: 12, Codec: wire.CodecBinary, Node: NodeConfig{
		Overlay:   plaxton.Options{HeartbeatInterval: 2 * time.Second},
		Knowledge: knowledge.Options{GossipInterval: time.Second},
	}})
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	h := fnv.New64a()
	hashTransmits(w, h)
	writer := w.Node(2)
	writer.KB.AddSPO("bob", "likes", "ice cream")
	writer.Sync.PublishSubject("bob", func(err error) {
		if err != nil {
			t.Errorf("publish: %v", err)
		}
	})
	w.RunFor(20 * time.Second)
	victim := w.Node(7).Endpoint().(*simnet.Node)
	victim.Kill()
	w.RunFor(20 * time.Second)
	victim.Revive()
	w.RunFor(20 * time.Second)
	fp := fingerprintOf(w, h)

	// Gossip delivered the published subject to every node, the revived
	// one included.
	for i, n := range w.Nodes {
		if !n.KB.Ask("bob", "likes", "ice cream", -1) {
			t.Errorf("node %d's KB lacks bob likes ice cream after a virtual minute of gossip", i)
		}
	}
	return fp
}

// kindDiff lists the counter lines of two fingerprints that differ.
func kindDiff(want, got string) string {
	index := func(s string) map[string]string {
		m := make(map[string]string)
		for _, line := range strings.Split(strings.TrimSpace(s), "\n") {
			name, rest, _ := strings.Cut(line, " ")
			m[name] = rest
		}
		return m
	}
	w, g := index(want), index(got)
	all := maps.Clone(w)
	maps.Copy(all, g)
	names := slices.Sorted(maps.Keys(all))
	var b strings.Builder
	for _, name := range names {
		if w[name] != g[name] {
			fmt.Fprintf(&b, "  %-24s want %-28q got %q\n", name, w[name], g[name])
		}
	}
	return b.String()
}
