package match

import (
	"fmt"

	"github.com/gloss/active/internal/bundle"
	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/knowledge"
	"github.com/gloss/active/internal/store"
)

// Matchlet is the deployable unit of matching computation (§5): "Matchlets
// are structured as pipeline code that accepts events from the event
// distribution mechanism and performs matching on them. Each matchlet
// writes its results onto the event bus. Thus the primary API offered by
// the host to matchlets is an event delivery source and an event sink."
//
// A matchlet program runs one declarative rule on a private engine that
// shares the host's knowledge base and GIS view; it subscribes its security
// domain to each of the rule's pattern filters, reads events from the
// domain's event source and emits synthesised events through the domain
// (requiring the emit capability).
type Matchlet struct {
	rule   *Rule
	engine *Engine
	kb     *knowledge.KB
	gis    *knowledge.GIS
}

var _ bundle.Program = (*Matchlet)(nil)

// NewMatchletFactory returns a bundle factory producing matchlets bound
// to the host's knowledge base and GIS. Register it under "matchlet".
func NewMatchletFactory(kb *knowledge.KB, gis *knowledge.GIS) bundle.Factory {
	return func(_ map[string]string, data []byte) (bundle.Program, error) {
		rule, err := UnmarshalRule(data)
		if err != nil {
			return nil, fmt.Errorf("match: matchlet payload: %w", err)
		}
		return &Matchlet{rule: rule, kb: kb, gis: gis}, nil
	}
}

// Start implements bundle.Program.
func (m *Matchlet) Start(d *bundle.Domain) error {
	m.engine = NewEngine(d.Clock(), m.kb, m.gis, Options{Source: "matchlet/" + d.Name()})
	if err := m.engine.AddRule(m.rule); err != nil {
		return err
	}
	m.engine.OnEmit(func(ev *event.Event) {
		// Errors here mean the emit capability is missing; the event is
		// dropped — the domain is sandboxed, not trusted.
		_ = d.Emit(ev)
	})
	d.OnEvent(m.engine.Put)
	// The host routes the rule's streams here only while it runs.
	seen := make(map[string]bool, len(m.rule.Patterns))
	for _, p := range m.rule.Patterns {
		if key := p.Filter.Key(); !seen[key] {
			seen[key] = true
			d.Subscribe(p.Filter)
		}
	}
	return nil
}

// Stop implements bundle.Program.
func (m *Matchlet) Stop() {}

// Engine exposes the matchlet's engine (for stats in tests/benches).
func (m *Matchlet) Engine() *Engine { return m.engine }

// MatchletKey derives the storage GUID under which the matchlet bundle
// for an event type is published — the directory discovery matchlets
// consult ("These look for code capable of matching these new events in
// the storage architecture and deploy this code onto the network", §5).
func MatchletKey(eventType string) ids.ID {
	return ids.FromString("matchlet-for/" + eventType)
}

// Discovery reacts to unknown event types by fetching the matching code
// bundle from the P2P store and installing it on the local thin server.
type Discovery struct {
	store  *store.Store
	server *bundle.ThinServer
	engine *Engine

	// Installed counts successful dynamic deployments.
	Installed uint64
	// Failed counts lookups or installs that failed.
	Failed uint64
	// LastError records the most recent failure for diagnostics.
	LastError error
}

// NewDiscovery wires a discovery matchlet: engine's unknown-type hook →
// store lookup → thin-server install.
func NewDiscovery(st *store.Store, ts *bundle.ThinServer, engine *Engine) *Discovery {
	d := &Discovery{store: st, server: ts, engine: engine}
	engine.SetUnknownHandler(d.handleUnknown)
	return d
}

// PublishMatchlet stores a matchlet bundle under the directory key for
// its event type, making it discoverable network-wide.
func PublishMatchlet(st *store.Store, eventType string, b *bundle.Bundle, cb func(error)) {
	data, err := bundle.Marshal(b)
	if err != nil {
		cb(err)
		return
	}
	st.PutAs(MatchletKey(eventType), data, cb)
}

func (d *Discovery) handleUnknown(eventType string) {
	d.store.Get(MatchletKey(eventType), func(data []byte, err error) {
		if err != nil {
			d.Failed++
			d.LastError = err
			d.engine.ForgetUnknown(eventType) // retry on next occurrence
			return
		}
		b, err := bundle.Unmarshal(data)
		if err != nil {
			d.Failed++
			d.LastError = err
			return
		}
		if _, err := d.server.Install(b); err != nil {
			d.Failed++
			d.LastError = err
			return
		}
		d.Installed++
	})
}
