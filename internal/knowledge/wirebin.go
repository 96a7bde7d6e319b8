package knowledge

import (
	"fmt"
	"time"

	"github.com/gloss/active/internal/causal"
	"github.com/gloss/active/internal/wire"
)

// The versioned binary envelope of a subject's fact set in the P2P
// storage plane. A stored fact set is a sibling set — one or more
// (version vector, facts) pairs — so replicas can tell causally stale
// copies from concurrent ones.
//
// The envelope opens with a two-byte magic and a format version; the
// decoder rejects any other body, an XML document included.

const (
	factsMagic0 = 'K'
	factsMagic1 = 'F'
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
