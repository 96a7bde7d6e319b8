package wirebad

import "wire"

// Full has the complete binary pair, but the package's tests (see
// wirebad_test.go) carry no Fuzz target for the decoder.
type Full struct{ body []byte }

func (f *Full) Kind() string { return "full" }

func (f *Full) AppendWire(b []byte) []byte { return append(b, f.body...) }

func (f *Full) ParseWire(b []byte) error { f.body = b; return nil } // want `defines binary decoders \(ParseWire\) but its tests have no Fuzz\* target`

// AppendXML and ParseXML make Full's hand-written XML pair; its scanner
// is as unfuzzed as its binary decoder.
func (f *Full) AppendXML(b []byte) []byte { return append(b, f.body...) }

func (f *Full) ParseXML(b []byte) error { f.body = b; return nil } // want `defines XML scanners \(ParseXML\) but its tests have no Fuzz\* target`

// Half encodes frames no peer can decode.
type Half struct{}

func (h *Half) Kind() string { return "half" }

func (h *Half) AppendWire(b []byte) []byte { return b }

// AppendXML without ParseXML: frames only the reflection decoder reads.
func (h *Half) AppendXML(b []byte) []byte { return b } // want `Half implements AppendXML but not ParseXML`

// Headless lends a tail without saying where the head ends, and Tailless
// writes a head no tail follows: neither is a tail message.
type Headless struct{ body []byte }

func (h *Headless) WireTail() []byte { return h.body } // want `Headless implements WireTail but not AppendWireHead`

type Tailless struct{}

func (t *Tailless) AppendWireHead(b []byte) []byte { return b } // want `Tailless implements AppendWireHead but not WireTail`

// Plain has no binary codec and no declared XML fallback.
type Plain struct{}

func (p *Plain) Kind() string { return "plain" }

// Flaky marks itself control traffic only sometimes, so the two
// codecs can disagree about its outbox budget exemption.
type Flaky struct {
	urgent bool
	body   []byte
}

func (c *Flaky) Kind() string { return "flaky" }

func (c *Flaky) AppendWire(b []byte) []byte { return append(b, c.body...) }

func (c *Flaky) ParseWire(b []byte) error { c.body = b; return nil }

func (c *Flaky) Control() bool { return c.urgent } // want `Flaky\.Control must return the constant true`

func register(r *wire.Registry) {
	r.Register(&Full{})
	r.Register(&Half{})  // want `registered kind Half implements AppendWire but not ParseWire`
	r.Register(&Plain{}) // want `registered kind Plain has no binary AppendWire/ParseWire pair`
	r.Register(&Flaky{})
}
