package match

// The nested-loop interpreter the compiled engine replaced, kept as the
// reference oracle of the differential tests: it re-resolves every term
// string on every candidate tuple, tests every pattern filter on every
// event and joins by scanning whole buffers. It carries the same expiry
// fix as the engine (an expired candidate is skipped, not the end of the
// scan; an arrival already older than the window is neither buffered nor
// joined) and is otherwise the code as it shipped.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/knowledge"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/vclock"
)

// refRule is a rule with its runtime correlation state.
type refRule struct {
	rule     *Rule
	window   time.Duration
	suppress time.Duration
	buffers  [][]*event.Event // one per pattern, newest last
	// emittedUntil maps an output's semantic key to its suppression
	// expiry.
	emittedUntil map[string]time.Duration
}

type refEngine struct {
	clock     vclock.Clock
	kb        *knowledge.KB
	gis       *knowledge.GIS
	opts      Options
	rules     map[string]*refRule
	ruleOrder []string
	onEmit    []func(*event.Event)
	emitted   map[string]bool
	emitFIFO  []string
	emitSeq   uint64
	stats     Stats
}

func newRefEngine(clock vclock.Clock, kb *knowledge.KB, gis *knowledge.GIS, opts Options) *refEngine {
	opts.applyDefaults()
	return &refEngine{
		clock:   clock,
		kb:      kb,
		gis:     gis,
		opts:    opts,
		rules:   make(map[string]*refRule),
		emitted: make(map[string]bool),
	}
}

func (e *refEngine) Stats() Stats {
	s := e.stats
	s.Rules = len(e.rules)
	return s
}

// OnEmit registers a sink for synthesised events.
func (e *refEngine) OnEmit(fn func(*event.Event)) { e.onEmit = append(e.onEmit, fn) }

// AddRule installs a rule; the name must be unique.
func (e *refEngine) AddRule(r *Rule) error {
	if r.Name == "" {
		return fmt.Errorf("match: rule needs a name")
	}
	if _, dup := e.rules[r.Name]; dup {
		return fmt.Errorf("match: duplicate rule %q", r.Name)
	}
	if len(r.Patterns) == 0 {
		return fmt.Errorf("match: rule %q has no patterns", r.Name)
	}
	if r.Emit.Type == "" {
		return fmt.Errorf("match: rule %q emits no event type", r.Name)
	}
	cr := &refRule{
		rule:         r,
		window:       r.Window(),
		suppress:     r.Suppression(),
		buffers:      make([][]*event.Event, len(r.Patterns)),
		emittedUntil: make(map[string]time.Duration),
	}
	e.rules[r.Name] = cr
	e.ruleOrder = append(e.ruleOrder, r.Name)
	return nil
}

// RemoveRule uninstalls a rule.
func (e *refEngine) RemoveRule(name string) {
	if _, ok := e.rules[name]; !ok {
		return
	}
	delete(e.rules, name)
	for i, n := range e.ruleOrder {
		if n == name {
			e.ruleOrder = append(e.ruleOrder[:i], e.ruleOrder[i+1:]...)
			break
		}
	}
}

// Put feeds one event into the engine.
func (e *refEngine) Put(ev *event.Event) {
	e.stats.EventsIn++
	for _, name := range e.ruleOrder {
		cr := e.rules[name]
		for pi, p := range cr.rule.Patterns {
			if !p.Filter.Matches(ev) {
				continue
			}
			if e.insert(cr, pi, ev) {
				e.tryJoin(cr, pi, ev)
			}
		}
	}
}

// insert adds ev to the pattern buffer, expiring old entries; it reports
// false for an arrival that is itself outside the window.
func (e *refEngine) insert(cr *refRule, pi int, ev *event.Event) bool {
	buf := cr.buffers[pi]
	cutoff := e.clock.Now() - cr.window
	kept := buf[:0]
	for _, old := range buf {
		if old.Time >= cutoff {
			kept = append(kept, old)
		} else {
			e.stats.Expired++
		}
	}
	if ev.Time < cutoff {
		e.stats.Expired++
		cr.buffers[pi] = kept
		return false
	}
	e.stats.Buffered++
	kept = append(kept, ev)
	if len(kept) > e.opts.maxBuffer {
		kept = kept[len(kept)-e.opts.maxBuffer:]
	}
	cr.buffers[pi] = kept
	return true
}

// tryJoin attempts all complete correlations that include ev at pattern pi.
// The search backtracks over a single mutable environment: binding undo is
// truncation of the env's slices, so the join allocates nothing per
// candidate tuple.
func (e *refEngine) tryJoin(cr *refRule, pi int, ev *event.Event) {
	base := newRefEnv()
	if !bindPattern(&cr.rule.Patterns[pi], ev, base) {
		return
	}
	e.joinRest(cr, pi, 0, base)
}

// joinRest recursively extends env with one event per remaining pattern.
func (e *refEngine) joinRest(cr *refRule, fixed int, next int, cur *refEnv) {
	if next == len(cr.rule.Patterns) {
		e.complete(cr, cur)
		return
	}
	if next == fixed {
		e.joinRest(cr, fixed, next+1, cur)
		return
	}
	cutoff := e.clock.Now() - cr.window
	buf := cr.buffers[next]
	p := &cr.rule.Patterns[next]
	nv, na := len(cur.varNames), len(cur.aliases)
	// Newest first: prefer fresh context.
	for i := len(buf) - 1; i >= 0; i-- {
		cand := buf[i]
		if cand.Time < cutoff {
			continue
		}
		if !bindPattern(p, cand, cur) {
			cur.truncate(nv, na)
			continue
		}
		e.joinRest(cr, fixed, next+1, cur)
		cur.truncate(nv, na)
	}
}

// bindPattern unifies ev's bound attributes into env; reports success.
// On failure the caller must truncate the env back to its prior lengths.
func bindPattern(p *Pattern, ev *event.Event, e *refEnv) bool {
	if p.Alias != "" {
		if prev, taken := e.eventFor(p.Alias); taken {
			if prev.ID != ev.ID {
				return false
			}
		} else {
			e.setEvent(p.Alias, ev)
		}
	}
	for _, b := range p.Bind {
		v, ok := ev.Get(b.Attr)
		if !ok {
			return false
		}
		if prev, bound := e.varValue(b.Var); bound {
			if !prev.Equal(v) {
				return false
			}
			continue
		}
		e.setVar(b.Var, v)
	}
	return true
}

// complete evaluates conditions for a full tuple and emits on success.
// Conditions run before the (allocating) dedup-key construction: failing
// tuples — the vast majority under event storms — stay allocation-free.
func (e *refEngine) complete(cr *refRule, env_ *refEnv) {
	e.stats.Joins++
	ctx := &evalCtx{kb: e.kb, gis: e.gis, now: e.clock.Now()}
	// Binder conditions may extend the env; truncate on any exit so the
	// backtracking join sees it unchanged.
	nv, na := len(env_.varNames), len(env_.aliases)
	work := env_
	defer work.truncate(nv, na)
	for i := range cr.rule.Where {
		ok, err := evalCondition(&cr.rule.Where[i], work, ctx)
		if err != nil {
			e.stats.Errors++
			return
		}
		if !ok {
			e.stats.CondFails++
			return
		}
	}
	key := emitKey(cr.rule.Name, env_)
	if e.emitted[key] {
		e.stats.Duplicates++
		return
	}
	e.remember(key)
	out, err := e.synthesise(cr.rule, work, ctx)
	if err != nil {
		e.stats.Errors++
		return
	}
	// Semantic output suppression: a fresh tuple producing the same
	// meaningful event within the suppression window stays quiet.
	if cr.suppress > 0 {
		sk := refSuppressKey(cr.rule, out)
		if until, seen := cr.emittedUntil[sk]; seen && ctx.now < until {
			e.stats.Suppressed++
			return
		}
		cr.emittedUntil[sk] = ctx.now + cr.suppress
		// Opportunistic expiry sweep keeps the map bounded.
		if len(cr.emittedUntil) > 1024 {
			for k, until := range cr.emittedUntil {
				if ctx.now >= until {
					delete(cr.emittedUntil, k)
				}
			}
		}
	}
	e.stats.Emitted++
	for _, fn := range e.onEmit {
		fn(out)
	}
}

// suppressKey renders an output's semantic identity: type plus all
// non-volatile emitted attributes.
func refSuppressKey(r *Rule, out *event.Event) string {
	parts := make([]string, 0, len(r.Emit.Attrs)+1)
	parts = append(parts, out.Type)
	for _, ea := range r.Emit.Attrs {
		if ea.Volatile {
			continue
		}
		if v, ok := out.Attrs[ea.Name]; ok {
			parts = append(parts, ea.Name+"="+v.String())
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, "|")
}

// emitKey identifies a correlation by rule and contributing event IDs.
func emitKey(rule string, env_ *refEnv) string {
	parts := make([]string, 0, len(env_.aliases)+1)
	parts = append(parts, rule)
	for i, alias := range env_.aliases {
		parts = append(parts, alias+"="+env_.aliasEvs[i].ID.String())
	}
	sort.Strings(parts)
	return strings.Join(parts, "|")
}

func (e *refEngine) remember(key string) {
	e.emitted[key] = true
	e.emitFIFO = append(e.emitFIFO, key)
	if len(e.emitFIFO) > e.opts.maxEmittedMemory {
		delete(e.emitted, e.emitFIFO[0])
		e.emitFIFO = e.emitFIFO[1:]
	}
}

// synthesise builds the output event from the emit spec.
func (e *refEngine) synthesise(r *Rule, env_ *refEnv, ctx *evalCtx) (*event.Event, error) {
	e.emitSeq++
	out := event.New(r.Emit.Type, e.opts.Source+"/"+r.Name, ctx.now)
	for _, ea := range r.Emit.Attrs {
		v, err := resolveTerm(ea.From, env_, ctx)
		if err != nil {
			return nil, err
		}
		out.Set(ea.Name, v)
	}
	out.Stamp(e.emitSeq)
	return out, nil
}

// env is a (partial) match: variable bindings plus the events per alias.
// Rules bind only a handful of names, so linear scans over small slices
// beat maps on both allocation and lookup cost in the join hot path.
type refEnv struct {
	varNames []string
	varVals  []event.Value
	aliases  []string
	aliasEvs []*event.Event
}

func newRefEnv() *refEnv { return &refEnv{} }

// truncate rolls the env back to nv variables and na aliases — the undo
// operation for backtracking joins.
func (e *refEnv) truncate(nv, na int) {
	e.varNames = e.varNames[:nv]
	e.varVals = e.varVals[:nv]
	e.aliases = e.aliases[:na]
	e.aliasEvs = e.aliasEvs[:na]
}

func (e *refEnv) varValue(name string) (event.Value, bool) {
	for i, n := range e.varNames {
		if n == name {
			return e.varVals[i], true
		}
	}
	return event.Value{}, false
}

func (e *refEnv) setVar(name string, v event.Value) {
	e.varNames = append(e.varNames, name)
	e.varVals = append(e.varVals, v)
}

func (e *refEnv) eventFor(alias string) (*event.Event, bool) {
	for i, a := range e.aliases {
		if a == alias {
			return e.aliasEvs[i], true
		}
	}
	return nil, false
}

func (e *refEnv) setEvent(alias string, ev *event.Event) {
	e.aliases = append(e.aliases, alias)
	e.aliasEvs = append(e.aliasEvs, ev)
}

// evalCtx carries everything term/condition evaluation needs.
type evalCtx struct {
	kb  *knowledge.KB
	gis *knowledge.GIS
	now time.Duration
}

// resolveTerm evaluates a term string against the environment:
//
//	$VAR            — variable value
//	$alias.attr     — attribute of the event bound to alias
//	place:$VAR.f    — field f (x, y, name, region) of the place named by VAR
//	kb:S:P[:def]    — object of fact (S, P, ·), with optional default;
//	                  S may itself be a $var/$alias.attr term
//	anything else   — numeric literal if parseable, else string literal
func resolveTerm(term string, e *refEnv, ctx *evalCtx) (event.Value, error) {
	switch {
	case strings.HasPrefix(term, "place:"):
		rest := term[len("place:"):]
		dot := strings.LastIndex(rest, ".")
		if dot < 0 {
			return event.Value{}, fmt.Errorf("match: place term %q needs a field", term)
		}
		nameVal, err := resolveTerm(rest[:dot], e, ctx)
		if err != nil {
			return event.Value{}, err
		}
		p, ok := ctx.gis.Place(nameVal.String())
		if !ok {
			return event.Value{}, fmt.Errorf("match: unknown place %q", nameVal.String())
		}
		switch rest[dot+1:] {
		case "x":
			return event.F(p.X), nil
		case "y":
			return event.F(p.Y), nil
		case "name":
			return event.S(p.Name), nil
		case "region":
			return event.S(p.Region), nil
		default:
			return event.Value{}, fmt.Errorf("match: unknown place field in %q", term)
		}
	case strings.HasPrefix(term, "kb:"):
		parts := strings.SplitN(term[len("kb:"):], ":", 3)
		if len(parts) < 2 {
			return event.Value{}, fmt.Errorf("match: kb term %q needs subject and predicate", term)
		}
		subjVal, err := resolveTerm(parts[0], e, ctx)
		if err != nil {
			return event.Value{}, err
		}
		if o, ok := ctx.kb.One(subjVal.String(), parts[1], ctx.now); ok {
			return literal(o), nil
		}
		if len(parts) == 3 {
			return literal(parts[2]), nil
		}
		return event.Value{}, fmt.Errorf("match: no fact (%s, %s, ·)", subjVal.String(), parts[1])
	case strings.HasPrefix(term, "$"):
		body := term[1:]
		if dot := strings.Index(body, "."); dot >= 0 {
			alias, attr := body[:dot], body[dot+1:]
			ev, ok := e.eventFor(alias)
			if !ok {
				return event.Value{}, fmt.Errorf("match: alias %q not bound", alias)
			}
			v, ok := ev.Get(attr)
			if !ok {
				return event.Value{}, fmt.Errorf("match: event %q has no attribute %q", alias, attr)
			}
			return v, nil
		}
		v, ok := e.varValue(body)
		if !ok {
			return event.Value{}, fmt.Errorf("match: variable %q not bound", body)
		}
		return v, nil
	default:
		return literal(term), nil
	}
}

// literal interprets a bare string as a number when possible.
func literal(s string) event.Value {
	if f, err := strconv.ParseFloat(s, 64); err == nil && s != "" {
		return event.F(f)
	}
	return event.S(s)
}

// coordOf resolves a spatial endpoint: "$alias" (event with x/y attrs) or
// "place:$VAR" (GIS coordinates).
func coordOf(term string, e *refEnv, ctx *evalCtx) (netapi.Coord, error) {
	if strings.HasPrefix(term, "place:") {
		nameVal, err := resolveTerm(term[len("place:"):], e, ctx)
		if err != nil {
			return netapi.Coord{}, err
		}
		p, ok := ctx.gis.Place(nameVal.String())
		if !ok {
			return netapi.Coord{}, fmt.Errorf("match: unknown place %q", nameVal.String())
		}
		return p.At(), nil
	}
	if strings.HasPrefix(term, "$") {
		ev, ok := e.eventFor(term[1:])
		if !ok {
			return netapi.Coord{}, fmt.Errorf("match: alias %q not bound", term[1:])
		}
		return netapi.Coord{X: ev.GetNum("x"), Y: ev.GetNum("y")}, nil
	}
	return netapi.Coord{}, fmt.Errorf("match: bad spatial term %q", term)
}

// evalCondition evaluates (and possibly extends, for binder conditions)
// the environment. It reports whether the condition holds.
func evalCondition(c *Condition, e *refEnv, ctx *evalCtx) (bool, error) {
	switch c.Type {
	case "kb", "nokb":
		s, err := resolveString(c.S, e, ctx)
		if err != nil {
			return false, err
		}
		p, err := resolveString(c.P, e, ctx)
		if err != nil {
			return false, err
		}
		o, err := resolveString(c.O, e, ctx)
		if err != nil {
			return false, err
		}
		holds := ctx.kb.Ask(s, p, o, ctx.now)
		if c.Type == "nokb" {
			return !holds, nil
		}
		return holds, nil
	case "kbBind":
		s, err := resolveString(c.S, e, ctx)
		if err != nil {
			return false, err
		}
		p, err := resolveString(c.P, e, ctx)
		if err != nil {
			return false, err
		}
		o, ok := ctx.kb.One(s, p, ctx.now)
		if !ok {
			return false, nil
		}
		e.setVar(c.Var, literal(o))
		return true, nil
	case "cmp":
		l, err := resolveTerm(c.Left, e, ctx)
		if err != nil {
			return false, err
		}
		r, err := resolveTerm(c.Right, e, ctx)
		if err != nil {
			return false, err
		}
		switch c.Op {
		case "eq":
			return l.Equal(r), nil
		case "ne":
			return !l.Equal(r), nil
		case "lt", "le", "gt", "ge":
			cmp, ok := l.Compare(r)
			if !ok {
				return false, nil
			}
			switch c.Op {
			case "lt":
				return cmp < 0, nil
			case "le":
				return cmp <= 0, nil
			case "gt":
				return cmp > 0, nil
			default:
				return cmp >= 0, nil
			}
		default:
			return false, fmt.Errorf("match: unknown cmp op %q", c.Op)
		}
	case "withinKm":
		a, err := coordOf(c.A, e, ctx)
		if err != nil {
			return false, err
		}
		b, err := coordOf(c.B, e, ctx)
		if err != nil {
			return false, err
		}
		return a.DistanceKm(b) <= c.Km, nil
	case "bindNearestSelling":
		near, err := coordOf(c.Near, e, ctx)
		if err != nil {
			return false, err
		}
		km := c.Km
		if km == 0 {
			km = 1.0
		}
		p := ctx.gis.NearestSelling(near, c.Item, km)
		if p == nil {
			return false, nil
		}
		e.setVar(c.Var, event.S(p.Name))
		return true, nil
	case "openFor":
		p, err := placeOf(c.Var, e, ctx)
		if err != nil {
			return false, err
		}
		need := time.Duration(c.MinMinutes * float64(time.Minute))
		return p.OpenAt(ctx.now) && p.OpenFor(ctx.now) >= need, nil
	case "reachable":
		p, err := placeOf(c.Var, e, ctx)
		if err != nil {
			return false, err
		}
		from, err := coordOf(c.A, e, ctx)
		if err != nil {
			return false, err
		}
		speed := c.SpeedKmH
		if speed == 0 {
			speed = 5
		}
		walk := time.Duration(from.DistanceKm(p.At()) / speed * float64(time.Hour))
		return p.OpenAt(ctx.now) && p.OpenFor(ctx.now) > walk, nil
	default:
		return false, fmt.Errorf("match: unknown condition type %q", c.Type)
	}
}

// placeOf resolves a place from a $var holding its name.
func placeOf(term string, e *refEnv, ctx *evalCtx) (*knowledge.Place, error) {
	nameVal, err := resolveTerm(term, e, ctx)
	if err != nil {
		return nil, err
	}
	p, ok := ctx.gis.Place(nameVal.String())
	if !ok {
		return nil, fmt.Errorf("match: unknown place %q", nameVal.String())
	}
	return p, nil
}

// resolveString resolves a term and renders it as a string ("" stays "").
func resolveString(term string, e *refEnv, ctx *evalCtx) (string, error) {
	if term == "" {
		return "", nil
	}
	v, err := resolveTerm(term, e, ctx)
	if err != nil {
		return "", err
	}
	return v.String(), nil
}
