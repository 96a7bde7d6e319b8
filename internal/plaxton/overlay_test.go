package plaxton

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/simnet"
	"github.com/gloss/active/internal/wire"
)

type probeMsg struct {
	Tag string `xml:"tag,attr"`
}

func (probeMsg) Kind() string { return "test.probe" }

func testRegistry() *wire.Registry {
	reg := wire.NewRegistry()
	RegisterMessages(reg)
	reg.Register(&probeMsg{})
	reg.Register(&blobMsg{})
	return reg
}

// ring is a fully joined overlay world for tests.
type ring struct {
	world    *simnet.World
	reg      *wire.Registry
	overlays []*Overlay
	byID     map[ids.ID]*Overlay
}

// buildRing creates n overlay nodes and joins them sequentially.
func buildRing(t testing.TB, seed int64, n int, opts Options) *ring {
	t.Helper()
	return buildRingOn(t, seed, n, opts, func(ep netapi.Endpoint) netapi.Endpoint { return ep })
}

// buildRingOn is buildRing with each overlay bound to wrap(its node).
func buildRingOn(t testing.TB, seed int64, n int, opts Options, wrap func(netapi.Endpoint) netapi.Endpoint) *ring {
	t.Helper()
	w := simnet.NewWorld(simnet.Config{Seed: seed})
	reg := testRegistry()
	r := &ring{world: w, reg: reg, byID: make(map[ids.ID]*Overlay)}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		id := ids.Random(rng)
		node := w.NewNode(id, "r", netapi.Coord{X: rng.Float64() * 5000, Y: rng.Float64() * 5000})
		// Alternate codecs: every ring routes XML and binary payloads
		// through nodes of the other kind.
		o := New(wrap(node), reg, [2]string{wire.CodecXML, wire.CodecBinary}[i%2], opts)
		r.overlays = append(r.overlays, o)
		r.byID[id] = o
	}
	r.overlays[0].CreateNetwork()
	for i := 1; i < n; i++ {
		i := i
		joined := false
		r.overlays[i].Join(r.overlays[rng.Intn(i)].ID(), func(err error) {
			if err != nil {
				t.Errorf("join %d: %v", i, err)
			}
			joined = true
		})
		w.RunFor(2 * time.Second)
		if !joined {
			t.Fatalf("node %d did not join", i)
		}
	}
	// Let announcements settle.
	w.RunFor(5 * time.Second)
	return r
}

// trueRoot returns the node ID numerically closest to key (brute force).
func (r *ring) trueRoot(key ids.ID) ids.ID {
	best := r.overlays[0].ID()
	for _, o := range r.overlays[1:] {
		if ids.Closer(key, o.ID(), best) {
			best = o.ID()
		}
	}
	return best
}

func TestSingleNodeDeliversToSelf(t *testing.T) {
	r := buildRing(t, 1, 1, Options{HeartbeatInterval: -1})
	o := r.overlays[0]
	var gotKey ids.ID
	o.OnDeliver("test.probe", func(info RouteInfo, msg wire.Message) {
		gotKey = info.Key
	})
	key := ids.FromString("anything")
	if err := o.Route(key, &probeMsg{Tag: "x"}); err != nil {
		t.Fatal(err)
	}
	r.world.RunFor(time.Second)
	if gotKey != key {
		t.Fatalf("not delivered locally")
	}
}

func TestRoutingReachesNumericallyClosest(t *testing.T) {
	const n = 48
	r := buildRing(t, 2, n, Options{HeartbeatInterval: -1})
	rng := rand.New(rand.NewSource(77))

	delivered := make(map[ids.ID]ids.ID) // key → node that delivered
	for _, o := range r.overlays {
		o := o
		o.OnDeliver("test.probe", func(info RouteInfo, msg wire.Message) {
			delivered[info.Key] = o.ID()
		})
	}
	const probes = 200
	keys := make([]ids.ID, probes)
	for i := range keys {
		keys[i] = ids.Random(rng)
		src := r.overlays[rng.Intn(n)]
		if err := src.Route(keys[i], &probeMsg{Tag: fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
	}
	r.world.RunFor(30 * time.Second)
	for i, key := range keys {
		got, ok := delivered[key]
		if !ok {
			t.Fatalf("probe %d not delivered", i)
		}
		if want := r.trueRoot(key); got != want {
			t.Fatalf("probe %d delivered at %s, want true root %s", i, got.Short(), want.Short())
		}
	}
}

func TestRoutingHopsLogarithmic(t *testing.T) {
	const n = 64
	r := buildRing(t, 3, n, Options{HeartbeatInterval: -1})
	rng := rand.New(rand.NewSource(5))
	var totalHops, count int
	for _, o := range r.overlays {
		o.OnDeliver("test.probe", func(info RouteInfo, msg wire.Message) {
			totalHops += info.Hops
			count++
		})
	}
	for i := 0; i < 100; i++ {
		src := r.overlays[rng.Intn(n)]
		if err := src.Route(ids.Random(rng), &probeMsg{}); err != nil {
			t.Fatal(err)
		}
	}
	r.world.RunFor(30 * time.Second)
	if count != 100 {
		t.Fatalf("delivered %d of 100", count)
	}
	avg := float64(totalHops) / float64(count)
	// log16(64) ≈ 1.5; allow generous headroom but forbid O(N) flooding.
	if avg > 6 {
		t.Fatalf("average hops %.2f too high for 64 nodes", avg)
	}
}

func TestOriginAndHopsReported(t *testing.T) {
	r := buildRing(t, 4, 16, Options{HeartbeatInterval: -1})
	src := r.overlays[3]
	var gotOrigin ids.ID
	gotHops := -1
	for _, o := range r.overlays {
		o.OnDeliver("test.probe", func(info RouteInfo, msg wire.Message) {
			gotOrigin = info.Origin
			gotHops = info.Hops
		})
	}
	if err := src.Route(ids.FromString("key-x"), &probeMsg{Tag: "t"}); err != nil {
		t.Fatal(err)
	}
	r.world.RunFor(10 * time.Second)
	if gotOrigin != src.ID() {
		t.Fatalf("origin = %v, want %v", gotOrigin.Short(), src.ID().Short())
	}
	if gotHops < 0 {
		t.Fatalf("not delivered")
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	r := buildRing(t, 5, 8, Options{HeartbeatInterval: -1})
	var got string
	for _, o := range r.overlays {
		o.OnDeliver("test.probe", func(_ RouteInfo, msg wire.Message) {
			got = msg.(*probeMsg).Tag
		})
	}
	if err := r.overlays[0].Route(ids.FromString("k"), &probeMsg{Tag: "payload-ok"}); err != nil {
		t.Fatal(err)
	}
	r.world.RunFor(10 * time.Second)
	if got != "payload-ok" {
		t.Fatalf("payload = %q", got)
	}
}

func TestForwardHookIntercepts(t *testing.T) {
	const n = 32
	r := buildRing(t, 6, n, Options{HeartbeatInterval: -1})
	rng := rand.New(rand.NewSource(9))
	delivered := 0
	hooked := 0
	for _, o := range r.overlays {
		o.OnDeliver("test.probe", func(_ RouteInfo, _ wire.Message) { delivered++ })
		o.SetForwardHook("test.probe", func(info RouteInfo, msg wire.Message) bool {
			if info.Hops > 0 { // only intercept in-flight, not at origin
				hooked++
				return true
			}
			return false
		})
	}
	for i := 0; i < 50; i++ {
		src := r.overlays[rng.Intn(n)]
		if err := src.Route(ids.Random(rng), &probeMsg{}); err != nil {
			t.Fatal(err)
		}
	}
	r.world.RunFor(30 * time.Second)
	if hooked == 0 {
		t.Fatalf("hook never intercepted")
	}
	if hooked+delivered != 50 {
		t.Fatalf("hooked %d + delivered %d != 50", hooked, delivered)
	}
}

func TestJoinTimeoutOnDeadBootstrap(t *testing.T) {
	w := simnet.NewWorld(simnet.Config{Seed: 10})
	reg := testRegistry()
	rng := rand.New(rand.NewSource(1))
	deadID := ids.Random(rng)
	n := w.NewNode(ids.Random(rng), "r", netapi.Coord{})
	o := New(n, reg, wire.CodecXML, Options{JoinTimeout: time.Second, HeartbeatInterval: -1})
	var gotErr error
	o.Join(deadID, func(err error) { gotErr = err })
	w.RunFor(5 * time.Second)
	if gotErr == nil {
		t.Fatalf("join to dead bootstrap should fail")
	}
	if o.Joined() {
		t.Fatalf("node claims joined after failed join")
	}
}

func TestFailureDetectionAndRepair(t *testing.T) {
	const n = 24
	r := buildRing(t, 11, n, Options{
		HeartbeatInterval: time.Second,
		ProbeTimeout:      300 * time.Millisecond,
	})
	// Kill a quarter of the nodes.
	killed := map[ids.ID]bool{}
	for i := 0; i < n/4; i++ {
		o := r.overlays[i*3+1]
		killed[o.ID()] = true
		r.world.Node(o.ID()).Kill()
	}
	// Let several heartbeat rounds run.
	r.world.RunFor(30 * time.Second)
	// Survivors must have purged dead nodes from their leaf sets.
	for _, o := range r.overlays {
		if killed[o.ID()] {
			continue
		}
		for _, leaf := range o.Leaves() {
			if killed[leaf] {
				t.Fatalf("node %s still lists dead leaf %s", o.ID().Short(), leaf.Short())
			}
		}
	}
	// Routing still reaches the numerically closest *live* node.
	rng := rand.New(rand.NewSource(123))
	delivered := make(map[ids.ID]ids.ID)
	for _, o := range r.overlays {
		if killed[o.ID()] {
			continue
		}
		o := o
		o.OnDeliver("test.probe", func(info RouteInfo, _ wire.Message) {
			delivered[info.Key] = o.ID()
		})
	}
	liveRoot := func(key ids.ID) ids.ID {
		var best ids.ID
		first := true
		for _, o := range r.overlays {
			if killed[o.ID()] {
				continue
			}
			if first || ids.Closer(key, o.ID(), best) {
				best = o.ID()
				first = false
			}
		}
		return best
	}
	keys := make([]ids.ID, 50)
	for i := range keys {
		keys[i] = ids.Random(rng)
		var src *Overlay
		for {
			src = r.overlays[rng.Intn(n)]
			if !killed[src.ID()] {
				break
			}
		}
		if err := src.Route(keys[i], &probeMsg{}); err != nil {
			t.Fatal(err)
		}
	}
	r.world.RunFor(30 * time.Second)
	ok := 0
	for _, key := range keys {
		if got, found := delivered[key]; found && got == liveRoot(key) {
			ok++
		}
	}
	// After repair, the overwhelming majority must land at the live root.
	if ok < 45 {
		t.Fatalf("only %d/50 probes reached the live root after churn", ok)
	}
}

func TestLeavesChangedCallback(t *testing.T) {
	w := simnet.NewWorld(simnet.Config{Seed: 12})
	reg := testRegistry()
	a := New(w.NewNode(ids.FromString("n-a"), "r", netapi.Coord{}), reg, wire.CodecXML, Options{HeartbeatInterval: -1})
	b := New(w.NewNode(ids.FromString("n-b"), "r", netapi.Coord{}), reg, wire.CodecXML, Options{HeartbeatInterval: -1})
	calls := 0
	a.OnLeavesChanged(func() { calls++ })
	a.CreateNetwork()
	b.Join(a.ID(), nil)
	w.RunFor(5 * time.Second)
	if calls == 0 {
		t.Fatalf("leaf-change callback never fired on join")
	}
}

// TestJoinConvergenceProperty: after sequential joins, every node's leaf
// set must contain its true ring neighbours (the property replica
// placement depends on).
func TestJoinConvergenceProperty(t *testing.T) {
	const n = 40
	r := buildRing(t, 13, n, Options{HeartbeatInterval: -1, LeafHalf: 4})
	// Compute true ring order.
	sorted := make([]ids.ID, n)
	for i, o := range r.overlays {
		sorted[i] = o.ID()
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && ids.Less(sorted[j], sorted[j-1]); j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	idx := make(map[ids.ID]int, n)
	for i, id := range sorted {
		idx[id] = i
	}
	for _, o := range r.overlays {
		i := idx[o.ID()]
		succ := sorted[(i+1)%n]
		pred := sorted[(i-1+n)%n]
		leaves := o.Leaves()
		has := func(want ids.ID) bool {
			for _, l := range leaves {
				if l == want {
					return true
				}
			}
			return false
		}
		if !has(succ) || !has(pred) {
			t.Fatalf("node %s leaf set misses ring neighbour (succ %v pred %v leaves %d)",
				o.ID().Short(), has(succ), has(pred), len(leaves))
		}
	}
}
