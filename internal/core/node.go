// Package core assembles the active architecture: every node runs the full
// stack the paper's conclusion describes (§5) — "several P2P systems
// overlaid on each other": the Siena-like event system, the Plaxton-based
// storage architecture with promiscuous caching, Cingal-style thin servers
// accepting code bundles (matchlets, storelets, probes, pipelines), the
// contextual matching engine, and the evolution machinery that deploys and
// repairs it all under declarative placement constraints.
package core

import (
	"crypto/ed25519"
	"fmt"
	"time"

	"github.com/gloss/active/internal/bundle"
	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/evolve"
	"github.com/gloss/active/internal/gauges"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/knowledge"
	"github.com/gloss/active/internal/match"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/pipeline"
	"github.com/gloss/active/internal/plaxton"
	"github.com/gloss/active/internal/pubsub"
	"github.com/gloss/active/internal/store"
	"github.com/gloss/active/internal/wire"
)

// NodeConfig parameterises one active node.
type NodeConfig struct {
	// Secret is the capability-minting secret shared by the deployment's
	// thin servers.
	Secret []byte
	// TrustedKeys restricts accepted bundle signers (empty = any
	// well-signed bundle).
	TrustedKeys []wire.Bytes
	// Overlay and Store options tune the substrates.
	Overlay plaxton.Options
	Store   store.Options
	// Knowledge tunes the knowledge syncer.
	Knowledge knowledge.Options
	// AdvertInterval is the resource-advertisement period. Default 2s;
	// negative disables advertising.
	AdvertInterval time.Duration
	// Codec is the node's preferred wire codec: wire.CodecXML (default,
	// the paper's open format) or wire.CodecBinary (compact fast path).
	// It selects the form the overlay encodes routed payloads in, and in
	// simulation it defaults WorldConfig.Codec, selecting the
	// byte-accounting codec. Over TCP the endpoint is built before the
	// node, so callers must also set transport.Options.Codec (which
	// validates the value and drives hello negotiation) — cmd/activenode
	// wires its -codec flag into both.
	Codec string
	// EnableDiscovery routes unknown event types to the discovery
	// matchlet (store lookup + dynamic install).
	EnableDiscovery bool
}

// ActiveNode is one participant: mobile device, server or network
// component — "each node stores information, computes over it, and
// communicates with other nodes" (§4).
type ActiveNode struct {
	ep         netapi.Endpoint
	Overlay    *plaxton.Overlay
	Store      *store.Store
	Broker     *pubsub.Broker
	Client     *pubsub.Client
	Server     *bundle.ThinServer
	Pipelines  *pipeline.Runtime
	Engine     *match.Engine
	Discovery  *match.Discovery
	KB         *knowledge.KB
	GIS        *knowledge.GIS
	Sync       *knowledge.Syncer
	Advertiser *evolve.Advertiser
	Gauges     *gauges.Registry
	Programs   *bundle.Registry
}

// RegisterMessages records every message type the stack uses.
func RegisterMessages(reg *wire.Registry) {
	plaxton.RegisterMessages(reg)
	store.RegisterMessages(reg)
	knowledge.RegisterMessages(reg)
	pubsub.RegisterMessages(reg)
	bundle.RegisterMessages(reg)
	pipeline.RegisterMessages(reg)
}

// NewActiveNode wires the full stack onto one endpoint.
func NewActiveNode(ep netapi.Endpoint, reg *wire.Registry, cfg NodeConfig) *ActiveNode {
	n := &ActiveNode{
		ep:     ep,
		KB:     knowledge.NewKB(),
		GIS:    knowledge.NewGIS(),
		Gauges: gauges.NewRegistry(),
	}
	n.Overlay = plaxton.New(ep, reg, cfg.Codec, cfg.Overlay)
	n.Store = store.New(ep, n.Overlay, cfg.Store)
	n.Sync = knowledge.NewSyncerOpts(n.Store, n.KB, cfg.Knowledge)
	n.Broker = pubsub.NewBroker(ep, pubsub.Options{})
	n.Client = pubsub.NewClient(ep, ep.ID())
	n.Programs = bundle.NewRegistry()
	n.Server = bundle.NewThinServer(ep, n.Programs, bundle.Options{
		Secret:      cfg.Secret,
		TrustedKeys: cfg.TrustedKeys,
	})
	n.Engine = match.NewEngine(ep.Clock(), n.KB, n.GIS, match.Options{
		Source: "engine/" + ep.ID().Short(),
	})
	n.Pipelines = pipeline.NewRuntime(ep)

	// Matchlet results go onto the event bus (§5).
	n.Server.SetEmitter(func(ev *event.Event) { n.Client.Publish(ev) })
	n.Engine.OnEmit(func(ev *event.Event) { n.Client.Publish(ev) })

	if cfg.EnableDiscovery {
		n.Discovery = match.NewDiscovery(n.Store, n.Server, n.Engine)
	}

	n.Advertiser = evolve.NewAdvertiser(ep, n.Client, cfg.AdvertInterval)
	n.Advertiser.Programs = n.Server.LogicalPrograms

	n.registerStandardPrograms()
	return n
}

// Endpoint exposes the node's network endpoint.
func (n *ActiveNode) Endpoint() netapi.Endpoint { return n.ep }

// ID returns the node identifier.
func (n *ActiveNode) ID() ids.ID { return n.ep.ID() }

// Info returns the node's region and coordinates.
func (n *ActiveNode) Info() netapi.NodeInfo { return n.ep.Info() }

// PipelineDeps returns the dependency set pipeline components get on this
// node: clock, endpoint, engine delivery and bus publication.
func (n *ActiveNode) PipelineDeps() pipeline.Deps {
	return pipeline.Deps{
		Clock:    n.ep.Clock(),
		Endpoint: n.ep,
		Deliver:  n.DeliverEvent,
		Publish:  func(ev *event.Event) { n.Client.Publish(ev) },
	}
}

// DeliverEvent hands an event to the node's matching infrastructure: the
// node-level engine and every installed matchlet domain.
func (n *ActiveNode) DeliverEvent(ev *event.Event) {
	n.Engine.Put(ev)
	n.Server.Deliver(ev)
}

// SubscribeMatching routes a bus subscription into the matching
// infrastructure.
func (n *ActiveNode) SubscribeMatching(f pubsub.Filter) {
	n.Client.Subscribe(f, n.DeliverEvent)
}

// registerStandardPrograms loads the bundle programs every node can host.
func (n *ActiveNode) registerStandardPrograms() {
	// matchlet: payload is a declarative rule; runs on a private engine
	// sharing this node's KB/GIS.
	n.Programs.Register("matchlet", match.NewMatchletFactory(n.KB, n.GIS))
	// pipeline: payload is an XML pipeline spec assembled into the local
	// runtime (Figure 3's assembly process).
	n.Programs.Register("pipeline", func(_ map[string]string, data []byte) (bundle.Program, error) {
		spec, err := pipeline.ParseSpec(data)
		if err != nil {
			return nil, err
		}
		return &pipelineProgram{node: n, spec: spec}, nil
	})
	// storelet: marks this node as contributing storage capacity; the
	// store substrate is always present, the marker makes capacity
	// placement constrainable (§5: "provide storage capacity for the
	// storage architecture (storelets)").
	n.Programs.Register("storelet", func(map[string]string, []byte) (bundle.Program, error) {
		return &markerProgram{reg: n.Gauges, name: "storelets"}, nil
	})
	// replicator: the paper's §4.4 example — "at least 5 pipeline
	// components providing a data replication service … within a given
	// geographical region".
	n.Programs.Register("replicator", func(map[string]string, []byte) (bundle.Program, error) {
		return &markerProgram{reg: n.Gauges, name: "replicators"}, nil
	})
	// probe: periodically publishes this node's gauges as meta-events.
	n.Programs.Register("probe", func(params map[string]string, _ []byte) (bundle.Program, error) {
		interval := 10 * time.Second
		if ms, ok := params["intervalMs"]; ok {
			if v, err := time.ParseDuration(ms + "ms"); err == nil {
				interval = v
			}
		}
		return &probeProgram{node: n, interval: interval}, nil
	})
}

// pipelineProgram installs an XML-specified pipeline for its lifetime.
type pipelineProgram struct {
	node *ActiveNode
	spec *pipeline.Spec
	p    *pipeline.Pipeline
}

func (pp *pipelineProgram) Start(d *bundle.Domain) error {
	p, err := pipeline.Assemble(pp.spec, pipeline.NewRegistry(), pp.node.PipelineDeps())
	if err != nil {
		return err
	}
	pp.p = p
	pp.node.Pipelines.Add(p)
	// Events delivered to the domain flow into the pipeline.
	d.OnEvent(p.Put)
	return nil
}

func (pp *pipelineProgram) Stop() {
	if pp.p != nil {
		pp.node.Pipelines.Remove(pp.p.Name())
	}
}

// markerProgram counts capacity-contribution markers in a gauge.
type markerProgram struct {
	reg  *gauges.Registry
	name string
}

func (m *markerProgram) Start(*bundle.Domain) error {
	m.reg.Counter(m.name).Inc()
	return nil
}

func (m *markerProgram) Stop() {}

// probeProgram publishes the node's gauge registry periodically.
type probeProgram struct {
	node     *ActiveNode
	interval time.Duration
	probe    *gauges.Probe
}

func (pp *probeProgram) Start(d *bundle.Domain) error {
	pp.probe = gauges.NewProbe(pp.node.Gauges, d.Clock(), pp.interval,
		"probe/"+pp.node.ID().Short(), func(ev *event.Event) { _ = d.Emit(ev) })
	pp.probe.Start()
	return nil
}

func (pp *probeProgram) Stop() {
	if pp.probe != nil {
		pp.probe.Stop()
	}
}

// MintBundle builds a signed bundle carrying the standard capability set
// for a logical program (name "<logical>#<instance>").
func MintBundle(secret []byte, pub ed25519.PublicKey, priv ed25519.PrivateKey,
	logical, factory string, instance int, payload []byte) (*bundle.Bundle, error) {
	b := &bundle.Bundle{
		Name:    fmt.Sprintf("%s#%d", logical, instance),
		Program: factory,
		Data:    payload,
		Capabilities: []bundle.Capability{
			bundle.MintCapability(secret, bundle.RightDeploy, uint64(instance)*3+1),
			bundle.MintCapability(secret, bundle.RightStore, uint64(instance)*3+2),
			bundle.MintCapability(secret, bundle.RightEmit, uint64(instance)*3+3),
		},
	}
	if err := b.Sign(pub, priv); err != nil {
		return nil, err
	}
	return b, nil
}
