package knowledge

import (
	"fmt"
	"time"

	"github.com/gloss/active/internal/causal"
	"github.com/gloss/active/internal/wire"
)

// Versioned binary envelopes for knowledge objects stored in the P2P
// storage plane. A stored fact set or GIS document is a sibling set —
// one or more (version vector, value) pairs — so replicas can tell
// causally stale copies from concurrent ones.
//
// Both formats open with a two-byte magic and a format version; the
// decoders reject any other body, an XML document included.

const (
	factsMagic0 = 'K'
	factsMagic1 = 'F'
	gisMagic1   = 'G'
	wireVersion = 1
)

// appendFact serialises one fact.
func appendFact(b []byte, f Fact) []byte {
	b = wire.AppendString(b, f.S)
	b = wire.AppendString(b, f.P)
	b = wire.AppendString(b, f.O)
	b = wire.AppendVarint(b, int64(f.From))
	return wire.AppendVarint(b, int64(f.To))
}

func parseFact(r *wire.BinReader) Fact {
	var f Fact
	f.S = r.String()
	f.P = r.String()
	f.O = r.String()
	f.From = durationField(r)
	f.To = durationField(r)
	return f
}

func durationField(r *wire.BinReader) time.Duration { return time.Duration(r.Varint()) }

// appendFacts serialises a fact list with a count prefix.
func appendFacts(b []byte, facts []Fact) []byte {
	b = wire.AppendUvarint(b, uint64(len(facts)))
	for _, f := range facts {
		b = appendFact(b, f)
	}
	return b
}

func parseFacts(r *wire.BinReader) []Fact {
	n := r.Count()
	var out []Fact
	for i := 0; i < n && r.Err() == nil; i++ {
		out = append(out, parseFact(r))
	}
	return out
}

// EncodeVersionedFacts serialises a versioned fact set deterministically
// (sibling order is already canonical inside Versioned).
func EncodeVersionedFacts(v *causal.Versioned[[]Fact]) []byte {
	b := []byte{factsMagic0, factsMagic1, wireVersion}
	b = wire.AppendUvarint(b, uint64(len(v.Sibs)))
	for _, s := range v.Sibs {
		b = s.Vec.AppendWire(b)
		b = appendFacts(b, s.Value)
	}
	return b
}

// DecodeVersionedFacts parses a stored fact-set body: the versioned
// binary envelope EncodeVersionedFacts writes, and nothing else.
func DecodeVersionedFacts(data []byte) (*causal.Versioned[[]Fact], error) {
	if len(data) < 3 || data[0] != factsMagic0 || data[1] != factsMagic1 {
		return nil, fmt.Errorf("knowledge: bad versioned facts magic")
	}
	if data[2] != wireVersion {
		return nil, fmt.Errorf("knowledge: versioned facts format %d unsupported", data[2])
	}
	r := wire.NewBinReader(data[3:])
	n := r.Count()
	v := &causal.Versioned[[]Fact]{}
	for i := 0; i < n && r.Err() == nil; i++ {
		vec := causal.ParseVec(r)
		facts := parseFacts(r)
		if r.Err() == nil {
			v.Sibs = append(v.Sibs, causal.Sibling[[]Fact]{Vec: vec, Value: facts})
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("knowledge: parse versioned facts: %w", err)
	}
	return v, nil
}

// appendPlace serialises one GIS place.
func appendPlace(b []byte, p Place) []byte {
	b = wire.AppendString(b, p.Name)
	b = wire.AppendString(b, p.Region)
	b = wire.AppendFloat64(b, p.X)
	b = wire.AppendFloat64(b, p.Y)
	b = wire.AppendVarint(b, int64(p.Hours.Open))
	b = wire.AppendVarint(b, int64(p.Hours.Close))
	b = appendStrings(b, p.Sells)
	return appendStrings(b, p.Tags)
}

func parsePlace(r *wire.BinReader) Place {
	var p Place
	p.Name = r.String()
	p.Region = r.String()
	p.X = r.Float64()
	p.Y = r.Float64()
	p.Hours.Open = durationField(r)
	p.Hours.Close = durationField(r)
	p.Sells = parseStrings(r)
	p.Tags = parseStrings(r)
	return p
}

func appendStrings(b []byte, ss []string) []byte {
	b = wire.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = wire.AppendString(b, s)
	}
	return b
}

func parseStrings(r *wire.BinReader) []string {
	n := r.Count()
	var out []string
	for i := 0; i < n && r.Err() == nil; i++ {
		out = append(out, r.String())
	}
	return out
}

// EncodeVersionedGIS serialises a versioned place list.
func EncodeVersionedGIS(v *causal.Versioned[[]Place]) []byte {
	b := []byte{factsMagic0, gisMagic1, wireVersion}
	b = wire.AppendUvarint(b, uint64(len(v.Sibs)))
	for _, s := range v.Sibs {
		b = s.Vec.AppendWire(b)
		b = wire.AppendUvarint(b, uint64(len(s.Value)))
		for _, p := range s.Value {
			b = appendPlace(b, p)
		}
	}
	return b
}

// DecodeVersionedGIS parses a stored GIS body: the versioned binary
// envelope EncodeVersionedGIS writes, and nothing else.
func DecodeVersionedGIS(data []byte) (*causal.Versioned[[]Place], error) {
	if len(data) < 3 || data[0] != factsMagic0 || data[1] != gisMagic1 {
		return nil, fmt.Errorf("knowledge: bad versioned gis magic")
	}
	if data[2] != wireVersion {
		return nil, fmt.Errorf("knowledge: versioned gis format %d unsupported", data[2])
	}
	r := wire.NewBinReader(data[3:])
	n := r.Count()
	v := &causal.Versioned[[]Place]{}
	for i := 0; i < n && r.Err() == nil; i++ {
		vec := causal.ParseVec(r)
		m := r.Count()
		var places []Place
		for j := 0; j < m && r.Err() == nil; j++ {
			places = append(places, parsePlace(r))
		}
		if r.Err() == nil {
			v.Sibs = append(v.Sibs, causal.Sibling[[]Place]{Vec: vec, Value: places})
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("knowledge: parse versioned gis: %w", err)
	}
	return v, nil
}
