package evolve

import (
	"crypto/ed25519"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/gloss/active/internal/bundle"
	"github.com/gloss/active/internal/constraint"
	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/plaxton"
	"github.com/gloss/active/internal/pubsub"
	"github.com/gloss/active/internal/simnet"
	"github.com/gloss/active/internal/store"
	"github.com/gloss/active/internal/wire"
)

var testSecret = []byte("evolve-test-secret")

// world bundles the full substrate for evolution tests.
type world struct {
	sim     *simnet.World
	nodes   []*simnet.Node
	brokers []*pubsub.Broker
	clients []*pubsub.Client
	servers []*bundle.ThinServer
	stores  []*store.Store
	advs    []*Advertiser
	pub     ed25519.PublicKey
	priv    ed25519.PrivateKey
}

// regions cycles node placement across three regions.
var regions = []string{"eu", "us", "ap"}

func buildWorld(t testing.TB, seed int64, n int, withStores bool) *world {
	t.Helper()
	w := &world{sim: simnet.NewWorld(simnet.Config{Seed: seed})}
	rng := rand.New(rand.NewSource(seed))
	seedBuf := make([]byte, ed25519.SeedSize)
	rng.Read(seedBuf)
	w.priv = ed25519.NewKeyFromSeed(seedBuf)
	w.pub = w.priv.Public().(ed25519.PublicKey)

	reg := bundle.NewRegistry()
	reg.Register("replicator", func(map[string]string, []byte) (bundle.Program, error) {
		return nopProgram{}, nil
	})
	reg.Register("probe", func(map[string]string, []byte) (bundle.Program, error) {
		return nopProgram{}, nil
	})

	wreg := wire.NewRegistry()
	plaxton.RegisterMessages(wreg)
	store.RegisterMessages(wreg)

	var overlays []*plaxton.Overlay
	for i := 0; i < n; i++ {
		region := regions[i%len(regions)]
		node := w.sim.NewNode(ids.FromString(fmt.Sprintf("node-%d", i)), region,
			netapi.Coord{X: float64(i%len(regions)) * 4000, Y: float64(i)})
		w.nodes = append(w.nodes, node)
		// Broker chain across all nodes.
		b := pubsub.NewBroker(node, pubsub.Options{})
		w.brokers = append(w.brokers, b)
		if i > 0 {
			pubsub.ConnectBrokers(w.brokers[i-1], b)
		}
		w.clients = append(w.clients, pubsub.NewClient(node, node.ID()))
		ts := bundle.NewThinServer(node, reg, bundle.Options{Secret: testSecret})
		w.servers = append(w.servers, ts)
		i := i
		adv := NewAdvertiser(node, w.clients[i], time.Second)
		adv.Programs = func() []string { return w.servers[i].Domains() }
		w.advs = append(w.advs, adv)
		if withStores {
			ov := plaxton.New(node, wreg, wire.CodecXML, plaxton.Options{HeartbeatInterval: -1, LeafHalf: 4})
			overlays = append(overlays, ov)
			w.stores = append(w.stores, store.New(node, ov, store.Options{RepairInterval: -1, Replicas: 1}))
		}
	}
	if withStores {
		overlays[0].CreateNetwork()
		for i := 1; i < n; i++ {
			overlays[i].Join(overlays[0].ID(), nil)
			w.sim.RunFor(2 * time.Second)
		}
	}
	for _, a := range w.advs {
		a.Start()
	}
	w.sim.RunFor(3 * time.Second)
	return w
}

type nopProgram struct{}

func (nopProgram) Start(*bundle.Domain) error { return nil }
func (nopProgram) Stop()                      {}

// maker returns a BundleMaker signing with the world key and minting
// capabilities with the shared secret.
func (w *world) maker() BundleMaker {
	return func(program string, target ids.ID, instance int) (*bundle.Bundle, error) {
		b := &bundle.Bundle{
			Name:    fmt.Sprintf("%s-%d", program, instance),
			Program: program,
			Capabilities: []bundle.Capability{
				bundle.MintCapability(testSecret, bundle.RightDeploy, uint64(instance)),
			},
		}
		if err := b.Sign(w.pub, w.priv); err != nil {
			return nil, err
		}
		return b, nil
	}
}

func (w *world) installedCount(program string) int {
	count := 0
	for _, ts := range w.servers {
		for _, name := range ts.Domains() {
			var p string
			if _, err := fmt.Sscanf(name, "%s", &p); err == nil {
				// Domain names are "<program>-<n>".
				if len(name) >= len(program) && name[:len(program)] == program {
					count++
				}
			}
		}
	}
	return count
}

func TestAdvertisementsBuildState(t *testing.T) {
	w := buildWorld(t, 1, 6, false)
	eng := NewEngine(w.nodes[0], w.clients[0], EngineOptions{})
	eng.Start()
	w.sim.RunFor(5 * time.Second)
	if got := len(eng.State().Nodes()); got != 6 {
		t.Fatalf("engine knows %d nodes, want 6", got)
	}
	st, ok := eng.State().Node(w.nodes[3].ID())
	if !ok || st.Region != regions[3%3] || !st.Alive {
		t.Fatalf("node 3 state: %+v", st)
	}
	if eng.Stats().AdvertsSeen == 0 {
		t.Fatalf("no adverts seen")
	}
}

func TestMonitorReportsCrashedNode(t *testing.T) {
	w := buildWorld(t, 2, 5, false)
	mon := NewMonitor(w.nodes[0], w.clients[0], time.Second, 3)
	mon.Start()
	w.sim.RunFor(3 * time.Second)
	if mon.Tracked() != 4 {
		t.Fatalf("tracking %d nodes, want 4 (not self)", mon.Tracked())
	}
	// A subscriber watching for downs.
	var downs []string
	w.clients[1].Subscribe(pubsub.NewFilter(pubsub.TypeIs(TypeDown)), func(ev *event.Event) {
		downs = append(downs, ev.GetString("node"))
	})
	w.sim.RunFor(2 * time.Second)
	w.nodes[4].Kill()
	w.sim.RunFor(15 * time.Second)
	if mon.Reported == 0 {
		t.Fatalf("monitor reported nothing")
	}
	found := false
	for _, d := range downs {
		if d == w.nodes[4].ID().String() {
			found = true
		}
	}
	if !found {
		t.Fatalf("down event for crashed node not published: %v", downs)
	}
	// Graceful leave must NOT produce a down event.
	before := mon.Reported
	w.advs[3].Leave()
	w.sim.RunFor(15 * time.Second)
	if mon.Reported != before {
		t.Fatalf("monitor reported a gracefully leaving node")
	}
}

func TestEvolutionDeploysToSatisfyConstraint(t *testing.T) {
	w := buildWorld(t, 3, 9, false)
	cs := constraint.NewSet(&constraint.MinInstances{Program: "replicator", Region: "eu", N: 3})
	eng := NewEngine(w.nodes[0], w.clients[0], EngineOptions{
		Constraints: cs,
		MakeBundle:  w.maker(),
	})
	eng.Start()
	w.sim.RunFor(20 * time.Second)

	// Exactly 3 instances, all in eu (nodes 0,3,6).
	installed := 0
	for i, ts := range w.servers {
		n := len(ts.Domains())
		if n > 0 && w.nodes[i].Info().Region != "eu" {
			t.Fatalf("instance deployed outside eu on node %d (%s)", i, w.nodes[i].Info().Region)
		}
		installed += n
	}
	if installed != 3 {
		t.Fatalf("installed = %d, want exactly 3 (no over-deploy)", installed)
	}
	st := eng.Stats()
	if st.DeploysOK != 3 || st.DeploysFailed != 0 {
		t.Fatalf("deploy stats: %+v", st)
	}
	if st.Repaired == 0 {
		t.Fatalf("violation never recorded as repaired")
	}
}

func TestEvolutionRepairsAfterCrash(t *testing.T) {
	w := buildWorld(t, 4, 9, false)
	cs := constraint.NewSet(&constraint.MinInstances{Program: "replicator", N: 3})
	eng := NewEngine(w.nodes[0], w.clients[0], EngineOptions{
		Constraints: cs,
		MakeBundle:  w.maker(),
	})
	mon := NewMonitor(w.nodes[0], w.clients[0], time.Second, 3)
	eng.Start()
	mon.Start()
	w.sim.RunFor(20 * time.Second)

	// Find a node hosting an instance and crash it.
	victim := -1
	for i, ts := range w.servers {
		if len(ts.Domains()) > 0 && i != 0 {
			victim = i
			break
		}
	}
	if victim == -1 {
		t.Fatalf("no instance deployed away from node 0")
	}
	w.nodes[victim].Kill()
	w.sim.RunFor(30 * time.Second)

	// Live instances must be back to ≥ 3.
	live := 0
	for i, ts := range w.servers {
		if w.nodes[i].Alive() {
			live += len(ts.Domains())
		}
	}
	if live < 3 {
		t.Fatalf("live instances after crash repair = %d, want ≥ 3", live)
	}
	if eng.RepairTimes.Count() < 2 {
		t.Fatalf("repair latency not recorded: %d", eng.RepairTimes.Count())
	}
}

func TestGracefulLeaveRepairsWithoutMonitor(t *testing.T) {
	// A leaving node announces itself; the engine reacts immediately —
	// no heartbeat-miss delay needed.
	w := buildWorld(t, 5, 6, false)
	cs := constraint.NewSet(&constraint.MinInstances{Program: "replicator", N: 2})
	eng := NewEngine(w.nodes[0], w.clients[0], EngineOptions{
		Constraints: cs,
		MakeBundle:  w.maker(),
	})
	eng.Start()
	w.sim.RunFor(15 * time.Second)

	victim := -1
	for i, ts := range w.servers {
		if len(ts.Domains()) > 0 {
			victim = i
			break
		}
	}
	if victim == -1 {
		t.Fatalf("nothing deployed")
	}
	w.advs[victim].Leave()
	// Note: the thin server on the victim still runs (graceful = planned
	// withdrawal), but the engine must already be re-deploying elsewhere.
	w.sim.RunFor(10 * time.Second)
	if eng.Stats().LeavesSeen == 0 {
		t.Fatalf("leave event not seen")
	}
	liveElsewhere := 0
	for i, ts := range w.servers {
		if i != victim {
			liveElsewhere += len(ts.Domains())
		}
	}
	if liveElsewhere < 2 {
		t.Fatalf("instances outside leaving node = %d, want ≥ 2", liveElsewhere)
	}
}

func TestBackupPolicyReplicatesRemotely(t *testing.T) {
	w := buildWorld(t, 6, 9, true)
	eng := NewEngine(w.nodes[0], w.clients[0], EngineOptions{})
	eng.Start()
	w.sim.RunFor(5 * time.Second)

	pol := NewBackupPolicy(w.clients[0], w.stores[0], eng.State())
	pol.Start()
	w.sim.RunFor(2 * time.Second)

	// Node 3 (eu) stores personal data and announces its creation.
	var guid ids.ID
	w.stores[3].Put([]byte("bob's diary"), func(g ids.ID, err error) {
		if err != nil {
			t.Errorf("put: %v", err)
		}
		guid = g
	})
	w.sim.RunFor(5 * time.Second)
	AnnounceCreated(w.clients[3], w.nodes[3].Clock(), guid, "eu", "bob", 1)
	w.sim.RunFor(10 * time.Second)

	if pol.Pushes != 1 {
		t.Fatalf("backup pushes = %d, want 1", pol.Pushes)
	}
	// Some node outside eu must now hold a replica.
	remote := false
	for i, s := range w.stores {
		if w.nodes[i].Info().Region != "eu" && s.Holds(guid) {
			remote = true
		}
	}
	if !remote {
		t.Fatalf("no remote-region replica created")
	}
}

func TestLatencyPolicyProgressiveMigration(t *testing.T) {
	w := buildWorld(t, 7, 9, true)
	eng := NewEngine(w.nodes[0], w.clients[0], EngineOptions{})
	eng.Start()
	w.sim.RunFor(5 * time.Second)

	// Seed 4 chunks of bob's data from an eu node.
	for i := 0; i < 4; i++ {
		w.stores[0].PutAs(UserDataKey("bob", i), []byte(fmt.Sprintf("chunk-%d", i)), func(error) {})
	}
	w.sim.RunFor(5 * time.Second)

	pol := NewLatencyPolicy(w.clients[0], w.stores[0], eng.State(), w.nodes[0].Clock())
	pol.DwellStep = time.Minute
	pol.Chunks = 4
	pol.Start()
	w.sim.RunFor(time.Second)

	// Bob dwells in "ap": publish location events with the region attr.
	loc := func(seq uint64) *event.Event {
		return event.New("gps.location", "gps-bob", w.sim.Now()).
			Set("user", event.S("bob")).
			Set("x", event.F(8000)).Set("y", event.F(2)).
			Set("region", event.S("ap")).
			Stamp(seq)
	}
	for i := 0; i < 10; i++ {
		w.clients[2].Publish(loc(uint64(i + 1)))
		w.sim.RunFor(45 * time.Second)
	}
	// 10 × 45s = 7.5 minutes of dwell → all 4 chunks migrated.
	if pol.Migrations != 4 {
		t.Fatalf("migrations = %d, want 4", pol.Migrations)
	}
	if region, pushed, ok := pol.Dwell("bob"); !ok || region != "ap" || pushed != 4 {
		t.Fatalf("dwell state: %v %v %v", region, pushed, ok)
	}
	// The ap node picked must hold some chunk replicas.
	apHolds := 0
	for i, s := range w.stores {
		if w.nodes[i].Info().Region != "ap" {
			continue
		}
		for c := 0; c < 4; c++ {
			if s.Holds(UserDataKey("bob", c)) {
				apHolds++
			}
		}
	}
	if apHolds < 2 {
		t.Fatalf("ap replicas = %d, want several", apHolds)
	}
	// Moving resets dwell.
	w.clients[2].Publish(event.New("gps.location", "gps-bob", w.sim.Now()).
		Set("user", event.S("bob")).Set("region", event.S("eu")).
		Set("x", event.F(0)).Set("y", event.F(0)).Stamp(99))
	w.sim.RunFor(2 * time.Second)
	if region, pushed, _ := pol.Dwell("bob"); region != "eu" || pushed != 0 {
		t.Fatalf("dwell not reset on move: %v %v", region, pushed)
	}
}
