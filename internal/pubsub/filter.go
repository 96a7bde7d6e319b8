// Package pubsub implements the paper's "generic global event service"
// (§4.1): a Siena-like content-based publish/subscribe network. Events are
// sets of typed attributes; subscriptions are conjunctions of attribute
// constraints; brokers form an acyclic overlay and prune subscription
// propagation using covering relations. Mobility support follows the
// Mobikit design cited in §3: a static proxy buffers notifications for a
// disconnected mobile client and replays them at the new attachment point.
package pubsub

import (
	"encoding/xml"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/gloss/active/internal/event"
)

// Op is a constraint operator.
type Op int

// Constraint operators, mirroring Siena's filter language.
const (
	OpInvalid Op = iota
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpPrefix
	OpSuffix
	OpContains
	OpExists
)

var opNames = map[Op]string{
	OpEq: "eq", OpNe: "ne", OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge",
	OpPrefix: "prefix", OpSuffix: "suffix", OpContains: "contains", OpExists: "exists",
}

var opFromName = func() map[string]Op {
	m := make(map[string]Op, len(opNames))
	for op, n := range opNames {
		m[n] = op
	}
	return m
}()

// String returns the operator's wire name.
func (o Op) String() string {
	if n, ok := opNames[o]; ok {
		return n
	}
	return "invalid"
}

// Constraint restricts one attribute.
type Constraint struct {
	Attr string
	Op   Op
	Val  event.Value // unused for OpExists
}

// Matches reports whether the attribute value v satisfies the constraint.
func (c Constraint) Matches(v event.Value) bool {
	switch c.Op {
	case OpExists:
		return true
	case OpEq:
		return v.Equal(c.Val)
	case OpNe:
		return !v.Equal(c.Val)
	case OpLt, OpLe, OpGt, OpGe:
		cmp, ok := v.Compare(c.Val)
		if !ok {
			return false
		}
		switch c.Op {
		case OpLt:
			return cmp < 0
		case OpLe:
			return cmp <= 0
		case OpGt:
			return cmp > 0
		default:
			return cmp >= 0
		}
	case OpPrefix:
		return v.K == event.KindString && c.Val.K == event.KindString && strings.HasPrefix(v.S, c.Val.S)
	case OpSuffix:
		return v.K == event.KindString && c.Val.K == event.KindString && strings.HasSuffix(v.S, c.Val.S)
	case OpContains:
		return v.K == event.KindString && c.Val.K == event.KindString && strings.Contains(v.S, c.Val.S)
	default:
		return false
	}
}

// String renders the constraint for logs.
func (c Constraint) String() string {
	if c.Op == OpExists {
		return fmt.Sprintf("%s exists", c.Attr)
	}
	return fmt.Sprintf("%s %s %v", c.Attr, c.Op, c.Val.String())
}

// Filter is a conjunction of constraints. The zero filter matches every event.
type Filter struct {
	Constraints []Constraint
}

// NewFilter builds a filter from constraints.
func NewFilter(cs ...Constraint) Filter { return Filter{Constraints: cs} }

// TypeIs is a convenience constraint on the implicit "type" attribute.
func TypeIs(t string) Constraint {
	return Constraint{Attr: "type", Op: OpEq, Val: event.S(t)}
}

// Eq builds an equality constraint.
func Eq(attr string, v event.Value) Constraint { return Constraint{Attr: attr, Op: OpEq, Val: v} }

// Lt builds a less-than constraint.
func Lt(attr string, v event.Value) Constraint { return Constraint{Attr: attr, Op: OpLt, Val: v} }

// Le builds a ≤ constraint.
func Le(attr string, v event.Value) Constraint { return Constraint{Attr: attr, Op: OpLe, Val: v} }

// Gt builds a greater-than constraint.
func Gt(attr string, v event.Value) Constraint { return Constraint{Attr: attr, Op: OpGt, Val: v} }

// Ge builds a ≥ constraint.
func Ge(attr string, v event.Value) Constraint { return Constraint{Attr: attr, Op: OpGe, Val: v} }

// Exists builds an existence constraint.
func Exists(attr string) Constraint { return Constraint{Attr: attr, Op: OpExists} }

// Prefix builds a string-prefix constraint.
func Prefix(attr, p string) Constraint {
	return Constraint{Attr: attr, Op: OpPrefix, Val: event.S(p)}
}

// Matches reports whether ev satisfies every constraint.
func (f Filter) Matches(ev *event.Event) bool {
	for _, c := range f.Constraints {
		v, ok := ev.Get(c.Attr)
		if !ok {
			return false
		}
		if !c.Matches(v) {
			return false
		}
	}
	return true
}

// Key returns a canonical string form usable as a map key; two filters
// with the same constraints in any order share a key. Called on every
// subscribe/unsubscribe and table reconciliation, so it avoids fmt.
func (f Filter) Key() string {
	if len(f.Constraints) == 0 {
		return ""
	}
	parts := make([]string, len(f.Constraints))
	var sb strings.Builder
	for i, c := range f.Constraints {
		sb.Reset()
		val := c.Val.String()
		sb.Grow(len(c.Attr) + len(val) + 16)
		sb.WriteString(c.Attr)
		sb.WriteByte('|')
		sb.WriteString(c.Op.String())
		sb.WriteByte('|')
		sb.WriteString(strconv.Itoa(int(c.Val.K)))
		sb.WriteByte('|')
		sb.WriteString(val)
		parts[i] = sb.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, "&")
}

// Implies reports whether constraint a implies constraint b: every value
// satisfying a also satisfies b. Both must constrain the same attribute;
// the check is conservative (false negatives allowed, no false positives).
func Implies(a, b Constraint) bool { return a.Attr == b.Attr && implies(&a, &b) }

// implies is Implies, by pointer, for constraints known to share an attribute.
func implies(a, b *Constraint) bool {
	switch b.Op {
	case OpExists:
		return true
	case OpEq:
		return a.Op == OpEq && a.Val.Equal(b.Val)
	case OpNe:
		switch a.Op {
		case OpNe:
			return a.Val.Equal(b.Val)
		case OpEq:
			return !a.Val.Equal(b.Val) && sameComparisonDomain(a.Val, b.Val)
		case OpLt:
			if cmp, ok := a.Val.Compare(b.Val); ok {
				return cmp <= 0
			}
		case OpLe:
			if cmp, ok := a.Val.Compare(b.Val); ok {
				return cmp < 0
			}
		case OpGt:
			if cmp, ok := a.Val.Compare(b.Val); ok {
				return cmp >= 0
			}
		case OpGe:
			if cmp, ok := a.Val.Compare(b.Val); ok {
				return cmp > 0
			}
		case OpPrefix:
			return b.Val.K == event.KindString && !strings.HasPrefix(b.Val.S, a.Val.S)
		case OpSuffix:
			return b.Val.K == event.KindString && !strings.HasSuffix(b.Val.S, a.Val.S)
		}
		return false
	case OpLt:
		switch a.Op {
		case OpLt, OpEq:
			if cmp, ok := a.Val.Compare(b.Val); ok {
				return cmp <= 0 && (a.Op == OpLt || cmp < 0)
			}
		case OpLe:
			if cmp, ok := a.Val.Compare(b.Val); ok {
				return cmp < 0
			}
		}
		return false
	case OpLe:
		switch a.Op {
		case OpLt, OpLe, OpEq:
			if cmp, ok := a.Val.Compare(b.Val); ok {
				return cmp <= 0
			}
		}
		return false
	case OpGt:
		switch a.Op {
		case OpGt, OpEq:
			if cmp, ok := a.Val.Compare(b.Val); ok {
				return cmp >= 0 && (a.Op == OpGt || cmp > 0)
			}
		case OpGe:
			if cmp, ok := a.Val.Compare(b.Val); ok {
				return cmp > 0
			}
		}
		return false
	case OpGe:
		switch a.Op {
		case OpGt, OpGe, OpEq:
			if cmp, ok := a.Val.Compare(b.Val); ok {
				return cmp >= 0
			}
		}
		return false
	case OpPrefix:
		switch a.Op {
		case OpEq:
			return a.Val.K == event.KindString && strings.HasPrefix(a.Val.S, b.Val.S)
		case OpPrefix:
			return strings.HasPrefix(a.Val.S, b.Val.S)
		}
		return false
	case OpSuffix:
		switch a.Op {
		case OpEq:
			return a.Val.K == event.KindString && strings.HasSuffix(a.Val.S, b.Val.S)
		case OpSuffix:
			return strings.HasSuffix(a.Val.S, b.Val.S)
		}
		return false
	case OpContains:
		switch a.Op {
		case OpEq:
			return a.Val.K == event.KindString && strings.Contains(a.Val.S, b.Val.S)
		case OpContains, OpPrefix, OpSuffix:
			return strings.Contains(a.Val.S, b.Val.S)
		}
		return false
	default:
		return false
	}
}

// sameComparisonDomain reports whether two values inhabit a domain where
// Eq x (x≠v) soundly implies Ne v. This holds for numerics and strings;
// mixed kinds are rejected.
func sameComparisonDomain(a, b event.Value) bool {
	_, an := a.Num()
	_, bn := b.Num()
	if an && bn {
		return true
	}
	return a.K == b.K
}

// Covers reports whether filter f covers filter g: every event matching g
// also matches f. Per Siena, f covers g iff every constraint of f is
// implied by some constraint of g. Conservative.
func Covers(f, g Filter) bool {
	for i := range f.Constraints {
		cf := &f.Constraints[i]
		implied := false
		for j := range g.Constraints {
			if cg := &g.Constraints[j]; cg.Attr == cf.Attr && implies(cg, cf) {
				implied = true
				break
			}
		}
		if !implied {
			return false
		}
	}
	return true
}

// xmlConstraint is the XML form of a constraint.
type xmlConstraint struct {
	Attr string `xml:"attr,attr"`
	Op   string `xml:"op,attr"`
	Kind string `xml:"kind,attr,omitempty"`
	Val  string `xml:",chardata"`
}

// xmlFilter is the XML form of a filter.
type xmlFilter struct {
	Constraints []xmlConstraint `xml:"c"`
}

// MarshalXML implements xml.Marshaler.
func (f Filter) MarshalXML(enc *xml.Encoder, start xml.StartElement) error {
	xf := xmlFilter{}
	for _, c := range f.Constraints {
		xc := xmlConstraint{Attr: c.Attr, Op: c.Op.String()}
		if c.Op != OpExists {
			xc.Kind = c.Val.K.String()
			xc.Val = c.Val.String()
		}
		xf.Constraints = append(xf.Constraints, xc)
	}
	return enc.EncodeElement(xf, start)
}

// UnmarshalXML implements xml.Unmarshaler.
func (f *Filter) UnmarshalXML(dec *xml.Decoder, start xml.StartElement) error {
	var xf xmlFilter
	if err := dec.DecodeElement(&xf, &start); err != nil {
		return err
	}
	f.Constraints = nil
	for _, xc := range xf.Constraints {
		op, ok := opFromName[xc.Op]
		if !ok {
			return fmt.Errorf("pubsub: unknown operator %q", xc.Op)
		}
		c := Constraint{Attr: xc.Attr, Op: op}
		if op != OpExists {
			v, err := parseTypedValue(xc.Kind, xc.Val)
			if err != nil {
				return err
			}
			c.Val = v
		}
		f.Constraints = append(f.Constraints, c)
	}
	return nil
}

func parseTypedValue(kind, text string) (event.Value, error) {
	switch kind {
	case "string":
		return event.S(text), nil
	case "int":
		// strconv, as event.parseValue: the whole text must be the number.
		i, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return event.Value{}, fmt.Errorf("pubsub: bad int %q: %w", text, err)
		}
		return event.I(i), nil
	case "float":
		fl, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return event.Value{}, fmt.Errorf("pubsub: bad float %q: %w", text, err)
		}
		return event.F(fl), nil
	case "bool":
		switch text {
		case "true":
			return event.B(true), nil
		case "false":
			return event.B(false), nil
		}
		return event.Value{}, fmt.Errorf("pubsub: bad bool %q", text)
	default:
		return event.Value{}, fmt.Errorf("pubsub: unknown value kind %q", kind)
	}
}
