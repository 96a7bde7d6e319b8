package wiregood

import "wire"

// Good carries the full binary pair and a constant Control marker.
type Good struct{ body []byte }

func (g *Good) Kind() string { return "good" }

func (g *Good) AppendWire(b []byte) []byte { return append(b, g.body...) }

func (g *Good) ParseWire(b []byte) error { g.body = b; return nil }

func (g *Good) Control() bool { return true }

// The hand-written XML pair, whole: the encoder on the value, the
// scanner on the pointer, as event.Event and pubsub.Filter have them.
func (g Good) AppendXML(b []byte) []byte { return append(b, g.body...) }

func (g *Good) ParseXML(b []byte) error { g.body = b; return nil }

// The tail pair, whole: Good lends its body to the frame.
func (g *Good) AppendWireHead(b []byte) []byte { return b }

func (g *Good) WireTail() []byte { return g.body }

// Legacy predates the binary codec; its registration declares the
// fallback inline.
type Legacy struct{}

func (l *Legacy) Kind() string { return "legacy" }

// Probe is a debug-only kind registered by an annotated function.
type Probe struct{}

func (p *Probe) Kind() string { return "probe" }

func register(r *wire.Registry) {
	r.Register(&Good{})
	r.Register(&Legacy{}) //vetactive:xmlfallback legacy kind kept XML-only for cross-version replay
}

// registerDebug registers diagnostics-only kinds.
//
//vetactive:xmlfallback debug kinds ride the XML slow path by design
func registerDebug(r *wire.Registry) {
	r.Register(&Probe{})
}
