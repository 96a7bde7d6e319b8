package core

import (
	"crypto/ed25519"
	"fmt"
	"math/rand"
	"time"

	"github.com/gloss/active/internal/bundle"
	"github.com/gloss/active/internal/constraint"
	"github.com/gloss/active/internal/evolve"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/knowledge"
	"github.com/gloss/active/internal/match"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/pubsub"
	"github.com/gloss/active/internal/simnet"
	"github.com/gloss/active/internal/wire"
)

// RegionSpec places a group of nodes geographically.
type RegionSpec struct {
	Name     string
	Center   netapi.Coord
	RadiusKm float64
}

// DefaultRegions models three continents whose centres are 7 000–15 000 km
// apart. A world's nodes are placed in them round-robin (placeNode).
var DefaultRegions = []RegionSpec{
	{Name: "eu", Center: netapi.Coord{X: 0, Y: 0}, RadiusKm: 300},
	{Name: "us", Center: netapi.Coord{X: 7000, Y: 1000}, RadiusKm: 300},
	{Name: "ap", Center: netapi.Coord{X: 15000, Y: -2000}, RadiusKm: 300},
}

// joinStep is the virtual time NewWorld runs between looks at whether
// a join has completed.
const joinStep = 10 * time.Millisecond

// WorldConfig parameterises a simulated deployment.
type WorldConfig struct {
	Seed  int64
	Nodes int
	// Net tunes the simulated network.
	Net simnet.Config
	// Node tunes every node's stack.
	Node NodeConfig
	// Codec selects the wire codec used for the simulator's byte
	// accounting: "" leaves Net.Codec as configured (default: no byte
	// accounting, matching historical tables), wire.CodecXML installs the
	// XML reference codec over the world's registry, wire.CodecBinary the
	// compact fast path. Defaults to Node.Codec when that is set, and is
	// Node.Codec's default when that is not.
	Codec string
}

func (c *WorldConfig) applyDefaults() {
	if c.Nodes == 0 {
		c.Nodes = 8
	}
	c.Net.Seed = c.Seed
	if c.Node.Secret == nil {
		c.Node.Secret = []byte("gloss-active-secret")
	}
	if c.Codec == "" {
		c.Codec = c.Node.Codec
	}
	if c.Node.Codec == "" {
		// The accounting codec models what the fleet speaks, so the nodes
		// encode their routed payloads in it too.
		c.Node.Codec = c.Codec
	}
}

// World is a fully wired simulated deployment of the active architecture.
type World struct {
	Cfg     WorldConfig
	Sim     *simnet.World
	Reg     *wire.Registry
	Nodes   []*ActiveNode
	Secret  []byte
	Pub     ed25519.PublicKey
	Priv    ed25519.PrivateKey
	mintSeq int
	// parents is the broker tree NewWorld built by brokerParents: node
	// i's parent index, -1 for the root.
	parents []int
}

// NewWorld builds and boots a world: nodes placed across regions, each
// joined in turn through ActiveNode.Join via its broker tree parent, and
// advertisers running.
func NewWorld(cfg WorldConfig) (*World, error) {
	cfg.applyDefaults()
	w := &World{
		Cfg:    cfg,
		Sim:    simnet.NewWorld(cfg.Net),
		Reg:    wire.NewRegistry(),
		Secret: cfg.Node.Secret,
	}
	RegisterMessages(w.Reg)
	// The registry is complete now; install the chosen byte-accounting
	// codec (the binary codec interns the registry's kind table, so it
	// must be built after every RegisterMessages call).
	switch cfg.Codec {
	case "":
		// Keep whatever cfg.Net.Codec the caller wired (usually nil).
	case wire.CodecXML:
		w.Sim.SetCodec(w.Reg)
	case wire.CodecBinary:
		w.Sim.SetCodec(wire.NewBinaryCodec(w.Reg))
	default:
		return nil, fmt.Errorf("core: unknown codec %q (want %q or %q)", cfg.Codec, wire.CodecXML, wire.CodecBinary)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	seed := make([]byte, ed25519.SeedSize)
	rng.Read(seed)
	w.Priv = ed25519.NewKeyFromSeed(seed)
	w.Pub = w.Priv.Public().(ed25519.PublicKey)

	infos := make([]netapi.NodeInfo, cfg.Nodes)
	for i := range infos {
		region, coord := placeNode(rng, i)
		ep := w.Sim.NewNode(ids.Random(rng), region, coord)
		w.Nodes = append(w.Nodes, NewActiveNode(ep, w.Reg, cfg.Node))
		infos[i] = ep.Info()
	}
	// Each node joins through the parent brokerParents picks for it, once
	// the node before it has joined; the overlay's JoinTimeout ends a join
	// that cannot complete.
	w.parents = brokerParents(infos)
	for i, n := range w.Nodes {
		var bootstrap ids.ID
		if p := w.parents[i]; p >= 0 {
			bootstrap = infos[p].ID
		}
		var joinErr error
		done := false
		n.Join(bootstrap, func(err error) { joinErr, done = err, true })
		for !done {
			w.Sim.RunFor(joinStep)
		}
		if joinErr != nil {
			return nil, fmt.Errorf("core: node %d failed to join: %w", i, joinErr)
		}
	}
	w.Sim.RunFor(3 * time.Second)
	return w, nil
}

// placeNode draws node i's position: the DefaultRegions region i falls to
// round-robin, uniformly within RadiusKm of its centre on each axis.
func placeNode(rng *rand.Rand, i int) (region string, coord netapi.Coord) {
	r := DefaultRegions[i%len(DefaultRegions)]
	return r.Name, netapi.Coord{
		X: r.Center.X + (rng.Float64()*2-1)*r.RadiusKm,
		Y: r.Center.Y + (rng.Float64()*2-1)*r.RadiusKm,
	}
}

// RunFor advances virtual time.
func (w *World) RunFor(d time.Duration) { w.Sim.RunFor(d) }

// Node returns the i-th node.
func (w *World) Node(i int) *ActiveNode { return w.Nodes[i] }

// NodesInRegion lists node indexes in a region.
func (w *World) NodesInRegion(region string) []int {
	var out []int
	for i, n := range w.Nodes {
		if n.Info().Region == region {
			out = append(out, i)
		}
	}
	return out
}

// RegionOf maps a coordinate to the nearest region.
func (w *World) RegionOf(c netapi.Coord) string {
	best := ""
	bestD := 0.0
	for i, r := range DefaultRegions {
		d := r.Center.DistanceKm(c)
		if i == 0 || d < bestD {
			best, bestD = r.Name, d
		}
	}
	return best
}

// Mint builds a signed bundle for a logical program with the world's keys.
func (w *World) Mint(logical, factory string, payload []byte) (*bundle.Bundle, error) {
	w.mintSeq++
	return MintBundle(w.Secret, w.Pub, w.Priv, logical, factory, w.mintSeq, payload)
}

// BundleMaker adapts Mint for the evolution engine. Logical program names
// of the form "matchlet/<rule>" resolve to the matchlet factory with the
// rule payload from rules; anything else resolves to the same-named
// factory with no payload.
func (w *World) BundleMaker(rules map[string]*match.Rule) evolve.BundleMaker {
	return func(program string, _ ids.ID, instance int) (*bundle.Bundle, error) {
		factory := program
		var payload []byte
		if len(program) > len("matchlet/") && program[:len("matchlet/")] == "matchlet/" {
			ruleName := program[len("matchlet/"):]
			rule, ok := rules[ruleName]
			if !ok {
				return nil, fmt.Errorf("core: no rule %q for %q", ruleName, program)
			}
			data, err := match.MarshalRule(rule)
			if err != nil {
				return nil, err
			}
			factory = "matchlet"
			payload = data
		}
		w.mintSeq++
		return MintBundle(w.Secret, w.Pub, w.Priv, program, factory, w.mintSeq, payload)
	}
}

// ServiceDescriptor is the programming abstraction of §4.8–4.9: "what
// information should be delivered to the user, in what form, and in which
// context" — rules and knowledge — plus declarative placement constraints
// that feed the deployment evolution engine.
type ServiceDescriptor struct {
	Name string
	// Rules are the service's matchlets.
	Rules []*match.Rule
	// Facts seed the knowledge base.
	Facts []knowledge.Fact
	// Places seed the GIS layer.
	Places []knowledge.Place
	// Constraints place the matchlets (and any other components).
	Constraints *constraint.Set
	// PublishDirectory also stores each rule's bundle in the P2P store
	// under its first pattern event type, enabling runtime discovery.
	PublishDirectory bool
}

// Service is a deployed service: its evolution engine and metadata.
type Service struct {
	Desc   *ServiceDescriptor
	Engine *evolve.Engine
}

// DeployService realises a descriptor: knowledge is seeded everywhere and
// an evolution engine started on the given node to place matchlets per the
// constraints. It subscribes nothing: each matchlet's host subscribes to
// the rule's patterns while the matchlet is installed.
func (w *World) DeployService(desc *ServiceDescriptor, engineNode int) (*Service, error) {
	for _, n := range w.Nodes {
		for _, f := range desc.Facts {
			n.KB.Add(f)
		}
		for _, p := range desc.Places {
			if err := n.GIS.AddPlace(p); err != nil {
				return nil, fmt.Errorf("core: seed GIS: %w", err)
			}
		}
	}
	rules := make(map[string]*match.Rule, len(desc.Rules))
	for _, r := range desc.Rules {
		rules[r.Name] = r
	}
	host := w.Nodes[engineNode]
	eng := evolve.NewEngine(host.Endpoint(), host.Client, evolve.EngineOptions{
		Constraints: desc.Constraints,
		MakeBundle:  w.BundleMaker(rules),
	})
	eng.Start()

	if desc.PublishDirectory {
		for _, r := range desc.Rules {
			if len(r.Patterns) == 0 {
				continue
			}
			evType := eventTypeOf(r.Patterns[0].Filter)
			if evType == "" {
				continue
			}
			data, err := match.MarshalRule(r)
			if err != nil {
				return nil, err
			}
			b, err := w.Mint("matchlet/"+r.Name, "matchlet", data)
			if err != nil {
				return nil, err
			}
			match.PublishMatchlet(host.Store, evType, b, func(error) {})
		}
		w.RunFor(5 * time.Second)
	}
	return &Service{Desc: desc, Engine: eng}, nil
}

// eventTypeOf extracts the type-equality constraint from a filter.
func eventTypeOf(f pubsub.Filter) string {
	for _, c := range f.Constraints {
		if c.Attr == "type" && c.Op == pubsub.OpEq {
			return c.Val.S
		}
	}
	return ""
}
