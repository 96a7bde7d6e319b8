package match

import (
	"fmt"
	"strings"
	"time"

	"github.com/gloss/active/internal/event"
)

// AddRule compiles a rule once into one join plan per pattern — the plan
// the engine runs when an event arrives at that pattern. Compiling turns
// every term string into a typed operand over integer slots, every
// condition into an op attached to the shallowest join depth that binds
// all it reads, and picks for every other pattern how its buffer is
// searched. Nothing below is interpreted per candidate tuple.

// opKind says how an operand gets its value.
type opKind uint8

const (
	opLit     opKind = iota // val, classified when the rule was compiled
	opVar                   // variable slot
	opAttr                  // attribute attr of the event bound at pattern slot
	opPlace                 // field of the place named by sub (fieldCoord: its position)
	opKB                    // object of the fact (sub, attr, ·), else val if hasDef
	opEvent                 // position (x, y) of the event bound at pattern slot
	opUnbound               // names nothing the rule binds: fails when evaluated
)

type placeField uint8

const (
	fieldX placeField = iota
	fieldY
	fieldName
	fieldRegion
	fieldCoord
)

// operand is a compiled term.
type operand struct {
	kind   opKind
	slot   int
	attr   string
	val    event.Value
	field  placeField
	hasDef bool
	sub    *operand
	// depth is the join depth from which the operand can be evaluated.
	depth int
}

type condType uint8

const (
	condKB condType = iota
	condNoKB
	condKBBind
	condCmp
	condWithinKm
	condNearestSelling
	condOpenFor
	condReachable
)

type cmpOp uint8

const (
	cmpEq cmpOp = iota
	cmpNe
	cmpLt
	cmpLe
	cmpGt
	cmpGe
)

var cmpOps = map[string]cmpOp{"eq": cmpEq, "ne": cmpNe, "lt": cmpLt, "le": cmpLe, "gt": cmpGt, "ge": cmpGe}

// cond is a compiled condition. What a, b and c hold depends on typ:
// kb/nokb S, P, O; kbBind S, P; cmp Left, Right; withinKm A, B;
// bindNearestSelling Near; openFor the place; reachable A and the place.
type cond struct {
	typ     condType
	a, b, c operand
	op      cmpOp
	num     float64 // km, or walking speed in km/h
	need    time.Duration
	item    string
	// out is the slot a binder condition sets, or -1: a binder whose
	// variable a pattern (or an earlier binder) binds only checks.
	out   int
	depth int
}

// bindOp unifies one attribute of a joined event with a variable slot:
// the first binder of the slot in join order sets it, the rest compare.
type bindOp struct {
	attr string
	slot int
	set  bool
}

type accessKind uint8

const (
	accessScan       accessKind = iota // every buffered event
	accessProbe                        // events whose indexed attribute equals key
	accessKBObjects                    // … renders as an object of (key, pred, ·)
	accessKBSubjects                   // … renders as a subject of (·, pred, key)
)

// level is one depth of a join plan: which pattern is joined there, how
// its candidates are found, and what is checked once it is bound.
type level struct {
	pat int
	// sameAs is an earlier-joined pattern with the same alias, whose
	// event this one must equal by ID, or -1.
	sameAs int
	binds  []bindOp
	conds  []cond

	access    accessKind
	index     int
	key, pred operand

	cands []int32 // scratch: the candidates of the current visit
}

type emitOp struct {
	name string
	from operand
}

// plan is the join run for an event arriving at levels[0].pat: the other
// patterns follow in rule order, as the interpreter this replaces joined
// them, so complete tuples are met in the same sequence.
type plan struct {
	levels []level
	emit   []emitOp
}

// compiler carries the symbol table of one plan.
type compiler struct {
	vars  map[string]int // variable name → slot, shared by the rule's plans
	order []int          // pattern joined at each depth
	// varDepth is the depth at which each slot is first set — by a pattern,
	// or by a binder condition further up the Where list — or neverBound:
	// a term may read only what is set at the point where it stands.
	varDepth   []int
	aliasDepth map[string]int // alias → depth of the first pattern carrying it
}

const neverBound = -1

func compileRule(r *Rule, bufs []buffer) ([]plan, int, error) {
	vars := make(map[string]int)
	slotOf := func(name string) {
		if _, ok := vars[name]; !ok {
			vars[name] = len(vars)
		}
	}
	for _, p := range r.Patterns {
		for _, b := range p.Bind {
			slotOf(b.Var)
		}
	}
	for _, c := range r.Where {
		if c.Type == "kbBind" || c.Type == "bindNearestSelling" {
			slotOf(c.Var)
		}
	}
	plans := make([]plan, len(r.Patterns))
	for fixed := range r.Patterns {
		pl, err := compilePlan(r, vars, fixed, bufs)
		if err != nil {
			return nil, 0, fmt.Errorf("match: rule %q: %w", r.Name, err)
		}
		plans[fixed] = pl
	}
	return plans, len(vars), nil
}

func compilePlan(r *Rule, vars map[string]int, fixed int, bufs []buffer) (plan, error) {
	cp := &compiler{
		vars:       vars,
		order:      []int{fixed},
		varDepth:   make([]int, len(vars)),
		aliasDepth: make(map[string]int),
	}
	for i := range r.Patterns {
		if i != fixed {
			cp.order = append(cp.order, i)
		}
	}
	for i := range cp.varDepth {
		cp.varDepth[i] = neverBound
	}
	pl := plan{levels: make([]level, len(cp.order))}
	for d, pi := range cp.order {
		p := &r.Patterns[pi]
		lv := &pl.levels[d]
		lv.pat, lv.sameAs = pi, -1
		if p.Alias != "" {
			if first, ok := cp.aliasDepth[p.Alias]; ok {
				lv.sameAs = cp.order[first]
			} else {
				cp.aliasDepth[p.Alias] = d
			}
		}
		for _, b := range p.Bind {
			slot := vars[b.Var]
			set := cp.varDepth[slot] == neverBound
			if set {
				cp.varDepth[slot] = d
			}
			lv.binds = append(lv.binds, bindOp{attr: b.Attr, slot: slot, set: set})
		}
	}

	// Conditions, in Where order. A binder (a GIS search, a variable other
	// conditions wait for) keeps its place: it runs only once everything
	// listed before it has passed, as often as the rule's author expected.
	deepest := 0
	for i := range r.Where {
		c, err := cp.compileCond(&r.Where[i])
		if err != nil {
			return plan{}, err
		}
		if c.typ == condKBBind || c.typ == condNearestSelling {
			c.depth = max(c.depth, deepest)
			if slot := vars[r.Where[i].Var]; cp.varDepth[slot] == neverBound {
				c.out = slot
				cp.varDepth[slot] = c.depth
			}
		}
		deepest = max(deepest, c.depth)
		pl.levels[c.depth].conds = append(pl.levels[c.depth].conds, c)
	}
	for _, ea := range r.Emit.Attrs {
		from, err := cp.term(ea.From)
		if err != nil {
			return plan{}, err
		}
		pl.emit = append(pl.emit, emitOp{name: ea.Name, from: from})
	}
	for d := 1; d < len(pl.levels); d++ {
		cp.chooseAccess(&pl.levels[d], d, &bufs[pl.levels[d].pat])
	}
	return pl, nil
}

// term compiles a value term:
//
//	$VAR            — variable value
//	$alias.attr     — attribute of the event bound to alias
//	place:$VAR.f    — field f (x, y, name, region) of the place named by VAR
//	kb:S:P[:def]    — object of fact (S, P, ·), with optional default;
//	                  S may itself be a $var/$alias.attr term
//	anything else   — numeric literal if parseable, else string literal
func (cp *compiler) term(term string) (operand, error) {
	switch {
	case strings.HasPrefix(term, "place:"):
		rest := term[len("place:"):]
		dot := strings.LastIndex(rest, ".")
		if dot < 0 {
			return operand{}, fmt.Errorf("place term %q needs a field", term)
		}
		var field placeField
		switch rest[dot+1:] {
		case "x":
			field = fieldX
		case "y":
			field = fieldY
		case "name":
			field = fieldName
		case "region":
			field = fieldRegion
		default:
			return operand{}, fmt.Errorf("unknown place field in %q", term)
		}
		return cp.wrap(opPlace, rest[:dot], operand{field: field})
	case strings.HasPrefix(term, "kb:"):
		parts := strings.SplitN(term[len("kb:"):], ":", 3)
		if len(parts) < 2 {
			return operand{}, fmt.Errorf("kb term %q needs subject and predicate", term)
		}
		o := operand{attr: parts[1]}
		if len(parts) == 3 {
			o.hasDef, o.val = true, classify(parts[2])
		}
		return cp.wrap(opKB, parts[0], o)
	case strings.HasPrefix(term, "$"):
		body := term[1:]
		if dot := strings.Index(body, "."); dot >= 0 {
			return cp.event(opAttr, body[:dot], body[dot+1:]), nil
		}
		slot, ok := cp.vars[body]
		if !ok || cp.varDepth[slot] == neverBound {
			return operand{kind: opUnbound}, nil
		}
		return operand{kind: opVar, slot: slot, depth: cp.varDepth[slot]}, nil
	default:
		return operand{kind: opLit, val: classify(term)}, nil
	}
}

// wrap finishes an operand computed from the value of an inner term.
func (cp *compiler) wrap(kind opKind, inner string, o operand) (operand, error) {
	sub, err := cp.term(inner)
	if err != nil {
		return operand{}, err
	}
	o.kind, o.sub, o.depth = kind, &sub, sub.depth
	return o, nil
}

// event compiles a reference to the event bound under alias.
func (cp *compiler) event(kind opKind, alias, attr string) operand {
	d, ok := cp.aliasDepth[alias]
	if !ok {
		return operand{kind: opUnbound}
	}
	return operand{kind: kind, slot: cp.order[d], attr: attr, depth: d}
}

// coord compiles a spatial endpoint: "$alias" (an event with x/y
// attributes) or "place:$VAR" (GIS coordinates).
func (cp *compiler) coord(term string) (operand, error) {
	switch {
	case strings.HasPrefix(term, "place:"):
		return cp.wrap(opPlace, term[len("place:"):], operand{field: fieldCoord})
	case strings.HasPrefix(term, "$"):
		return cp.event(opEvent, term[1:], ""), nil
	default:
		return operand{}, fmt.Errorf("bad spatial term %q", term)
	}
}

func (cp *compiler) compileCond(c *Condition) (cond, error) {
	out := cond{out: -1}
	var err error
	set := func(dst *operand, compile func(string) (operand, error), term string) {
		if err == nil {
			*dst, err = compile(term)
		}
	}
	switch c.Type {
	case "kb", "nokb", "kbBind":
		switch c.Type {
		case "nokb":
			out.typ = condNoKB
		case "kbBind":
			out.typ = condKBBind
		}
		// An empty S, P or O compiles to the literal "", the knowledge
		// base's wildcard.
		set(&out.a, cp.term, c.S)
		set(&out.b, cp.term, c.P)
		if out.typ != condKBBind {
			set(&out.c, cp.term, c.O)
		}
	case "cmp":
		out.typ = condCmp
		op, ok := cmpOps[c.Op]
		if !ok {
			return cond{}, fmt.Errorf("unknown cmp op %q", c.Op)
		}
		out.op = op
		set(&out.a, cp.term, c.Left)
		set(&out.b, cp.term, c.Right)
	case "withinKm":
		out.typ, out.num = condWithinKm, c.Km
		set(&out.a, cp.coord, c.A)
		set(&out.b, cp.coord, c.B)
	case "bindNearestSelling":
		out.typ, out.item, out.num = condNearestSelling, c.Item, c.Km
		if out.num == 0 {
			out.num = 1.0
		}
		set(&out.a, cp.coord, c.Near)
	case "openFor":
		out.typ = condOpenFor
		out.need = time.Duration(c.MinMinutes * float64(time.Minute))
		set(&out.a, cp.term, c.Var)
	case "reachable":
		out.typ, out.num = condReachable, c.SpeedKmH
		if out.num == 0 {
			out.num = 5
		}
		set(&out.a, cp.coord, c.A)
		set(&out.b, cp.term, c.Var)
	default:
		return cond{}, fmt.Errorf("unknown condition type %q", c.Type)
	}
	if err != nil {
		return cond{}, err
	}
	out.depth = max(out.a.depth, out.b.depth, out.c.depth)
	return out, nil
}

// chooseAccess picks how level d finds its candidates among the events
// its pattern has buffered, from what depth d-1 has bound:
//
//  1. a variable an earlier pattern shares → probe the index on its attribute;
//  2. a cmp eq between something this pattern binds and something already
//     known → probe with the known side;
//  3. a kb condition linking something known to something this pattern
//     binds → enumerate the knowledge base and probe with each answer.
//     One whose key comes from an earlier level (a variable, an alias
//     attribute) goes before one whose key is a constant: a constant key
//     finds the same candidates on every visit, so it correlates nothing
//     (`$U likes "ice cream"` names every user; `$U knows $F` names one).
//     Within a rank Where order decides, and a constant key still beats
//     the scan;
//
// and otherwise scans. Every path yields a superset of the candidates the
// level's own checks accept, so the choice never changes what is emitted.
func (cp *compiler) chooseAccess(lv *level, d int, buf *buffer) {
	for _, b := range lv.binds {
		if !b.set && cp.varDepth[b.slot] < d {
			lv.access, lv.index = accessProbe, buf.indexOn(b.attr)
			lv.key = operand{kind: opVar, slot: b.slot, depth: cp.varDepth[b.slot]}
			return
		}
	}
	for i := range lv.conds {
		c := &lv.conds[i]
		if c.typ != condCmp || c.op != cmpEq {
			continue
		}
		for _, side := range [2][2]*operand{{&c.a, &c.b}, {&c.b, &c.a}} {
			if attr, ok := lv.boundHere(side[0]); ok && side[1].known(d) {
				lv.access, lv.index, lv.key = accessProbe, buf.indexOn(attr), *side[1]
				return
			}
		}
	}
	for _, constant := range [2]bool{false, true} {
		for i := range lv.conds {
			c := &lv.conds[i]
			if c.typ != condKB || !c.b.known(d) {
				continue
			}
			if attr, ok := lv.boundHere(&c.c); ok && c.a.known(d) && c.a.constant() == constant {
				lv.access, lv.index, lv.key, lv.pred = accessKBObjects, buf.indexOn(attr), c.a, c.b
				return
			}
			if attr, ok := lv.boundHere(&c.a); ok && c.c.known(d) && c.c.constant() == constant {
				lv.access, lv.index, lv.key, lv.pred = accessKBSubjects, buf.indexOn(attr), c.c, c.b
				return
			}
		}
	}
}

// known reports whether the operand has its value before depth d binds.
func (o *operand) known(d int) bool { return o.kind != opUnbound && o.depth < d }

// constant reports whether the operand reads no variable and no event:
// a literal, or a place or fact named by one.
func (o *operand) constant() bool {
	switch o.kind {
	case opLit:
		return true
	case opPlace, opKB:
		return o.sub.constant()
	}
	return false
}

// boundHere reports whether o is a value of the event joined at this
// level — a variable the level sets, or an attribute of its own event —
// and which attribute of that event carries it.
func (lv *level) boundHere(o *operand) (attr string, ok bool) {
	switch {
	case o.kind == opAttr && o.slot == lv.pat:
		return o.attr, true
	case o.kind == opVar:
		for _, b := range lv.binds {
			if b.set && b.slot == o.slot {
				return b.attr, true
			}
		}
	}
	return "", false
}
