// Package causal provides version-vector causality for the knowledge
// plane: per-writer counters detecting whether two replicas of a mutable
// object descend from one another or have split into concurrent "sibling"
// histories (the Riak pattern — cf. mec-db's vclock package).
//
// It is named causal rather than vclock because internal/vclock is
// already taken by the simulation scheduler: that package orders *events
// in virtual time*, this one orders *versions of replicated state*.
package causal

import (
	"fmt"
	"slices"
	"strings"

	"github.com/gloss/active/internal/wire"
)

// Vec is a version vector: one monotonic counter per writer node.
// The zero value (nil) is the empty history, dominated by every
// non-empty vector.
type Vec map[string]uint64

// Order is the outcome of comparing two vectors under the causal
// partial order.
type Order int

const (
	// Equal: identical histories.
	Equal Order = iota
	// Descends: the first vector strictly dominates the second — it has
	// seen everything the second has, and more.
	Descends
	// Dominated: the second vector strictly dominates the first.
	Dominated
	// Concurrent: each side has writes the other has not seen — the
	// histories split from a common ancestor (a sibling case).
	Concurrent
)

// String renders the order for logs and test failures.
func (o Order) String() string {
	switch o {
	case Equal:
		return "equal"
	case Descends:
		return "descends"
	case Dominated:
		return "dominated"
	case Concurrent:
		return "concurrent"
	}
	return fmt.Sprintf("order(%d)", int(o))
}

// Clone returns an independent copy of v.
func (v Vec) Clone() Vec {
	if v == nil {
		return nil
	}
	out := make(Vec, len(v))
	for w, n := range v {
		out[w] = n
	}
	return out
}

// Increment returns a copy of v with writer's counter bumped by one.
func (v Vec) Increment(writer string) Vec {
	out := v.Clone()
	if out == nil {
		out = make(Vec, 1)
	}
	out[writer]++
	return out
}

// Counter returns writer's counter (zero when absent).
func (v Vec) Counter(writer string) uint64 { return v[writer] }

// Merge returns the pointwise maximum of a and b: the smallest vector
// that descends from both.
func Merge(a, b Vec) Vec {
	if len(a) == 0 {
		return b.Clone()
	}
	out := a.Clone()
	for w, n := range b {
		if n > out[w] {
			out[w] = n
		}
	}
	return out
}

// Compare places a relative to b under the causal partial order.
func Compare(a, b Vec) Order {
	aAhead, bAhead := false, false
	for w, n := range a {
		if n > b[w] {
			aAhead = true
			break
		}
	}
	for w, n := range b {
		if n > a[w] {
			bAhead = true
			break
		}
	}
	switch {
	case aAhead && bAhead:
		return Concurrent
	case aAhead:
		return Descends
	case bAhead:
		return Dominated
	}
	return Equal
}

// writers appends v's writer IDs to ws in sorted order — the basis of
// every deterministic serialisation below.
func (v Vec) writers(ws []string) []string {
	for w := range v {
		ws = append(ws, w)
	}
	slices.Sort(ws)
	return ws
}

// AppendWire serialises v deterministically (writers sorted) using the
// wire binary primitives, so equal vectors always produce equal bytes.
// Up to eight writers are sorted on the stack: a gossip digest encodes
// every object's vector each round.
func (v Vec) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(v)))
	var buf [8]string
	for _, w := range v.writers(buf[:0]) {
		b = wire.AppendString(b, w)
		b = wire.AppendUvarint(b, v[w])
	}
	return b
}

// ParseVec reads a vector serialised by AppendWire. Zero-counter entries
// are dropped so the parsed vector compares Equal to its source even if
// a hand-built input carried explicit zeros.
func ParseVec(r *wire.BinReader) Vec {
	n := r.Count()
	var v Vec
	for i := 0; i < n && r.Err() == nil; i++ {
		w := r.String()
		c := r.Uvarint()
		if r.Err() != nil {
			break
		}
		if c == 0 {
			continue
		}
		if v == nil {
			v = make(Vec, n)
		}
		v[w] = c
	}
	return v
}

// Key returns the deterministic serialised form as a string — usable as
// a map key and as a total tie-break order over vectors.
func (v Vec) Key() string { return string(v.AppendWire(nil)) }

// String renders the vector for logs: {a:2 b:1}.
func (v Vec) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, w := range v.writers(nil) {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s:%d", w, v[w])
	}
	sb.WriteByte('}')
	return sb.String()
}
