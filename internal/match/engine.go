package match

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/knowledge"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/pubsub"
	"github.com/gloss/active/internal/vclock"
)

// Options configure an engine.
type Options struct {
	// Source stamps synthesised events. Default "matching-engine".
	Source string

	// The fields below are not options: only this package's tests move
	// them off their defaults.
	//
	// maxBuffer bounds the per-pattern event buffer. Default 64.
	maxBuffer int
	// maxEmittedMemory bounds the duplicate-suppression window. Default 4096.
	maxEmittedMemory int
}

func (o *Options) applyDefaults() {
	if o.maxBuffer <= 0 {
		o.maxBuffer = 64
	}
	if o.maxEmittedMemory <= 0 {
		o.maxEmittedMemory = 4096
	}
	if o.Source == "" {
		o.Source = "matching-engine"
	}
}

// maxUnknowns bounds the once-only latch of uncovered event types: event
// types arrive from the wire, so the latch forgets the oldest beyond this.
const maxUnknowns = 1024

// Stats counts engine activity; the In/Out ratio is the paper's
// distillation measure.
type Stats struct {
	EventsIn   uint64
	Buffered   uint64
	Joins      uint64 // complete candidate tuples examined
	CondFails  uint64
	Emitted    uint64
	Duplicates uint64 // exact tuple repeats
	Suppressed uint64 // semantically identical outputs within the window
	Expired    uint64
	Evicted    uint64 // in-window events a full buffer pushed out
	Errors     uint64
	Rules      int
}

// env is the one mutable environment of a rule's joins: variable values
// by slot and the joined event of every pattern. A plan reads a slot only
// at depths where it is set, so backtracking needs no undo.
type env struct {
	vars []event.Value
	evs  []*event.Event
}

// compiledRule is a rule's plans with its runtime correlation state.
type compiledRule struct {
	name     string
	seq      uint64 // installation order
	window   time.Duration
	suppress time.Duration
	source   string
	emitType string
	// stable names the emitted attributes that make up an output's
	// semantic identity (the non-volatile ones).
	stable []string
	// keyed lists the first pattern of every named alias: their events
	// identify a correlation.
	keyed   []int
	plans   []plan
	bufs    []buffer // one per pattern
	filters []string // the patterns' keys in the engine's filter index
	env     env
	removed bool
	// emittedUntil maps an output's semantic key to its suppression
	// expiry.
	emittedUntil map[string]time.Duration
}

// patRef names one pattern of one installed rule.
type patRef struct {
	cr *compiledRule
	pi int
}

// Engine correlates events against rules, the knowledge base and GIS.
type Engine struct {
	clock   vclock.Clock
	kb      *knowledge.KB
	gis     *knowledge.GIS
	opts    Options
	rules   map[string]*compiledRule
	ruleSeq uint64
	// filters is the predicate index over every installed pattern's
	// filter, and patterns resolves its keys.
	filters  *pubsub.Index
	patterns map[string]patRef
	hits     []patRef
	onHit    func(key string)

	onEmit      []func(*event.Event)
	onUnknown   func(eventType string)
	unknowns    map[string]bool
	unknownFIFO []string
	emitted     map[string]bool
	emitFIFO    []string
	emitSeq     uint64
	stats       Stats

	// busy marks a Put in progress; events put by an emit sink meanwhile
	// wait in pending, so no join sees its buffers change under it.
	busy    bool
	pending []*event.Event

	// Scratch reused across joins.
	keyBuf []byte
	strs   []string
	keys   []valKey
}

// NewEngine builds an engine over a local KB and GIS view.
func NewEngine(clock vclock.Clock, kb *knowledge.KB, gis *knowledge.GIS, opts Options) *Engine {
	opts.applyDefaults()
	e := &Engine{
		clock:    clock,
		kb:       kb,
		gis:      gis,
		opts:     opts,
		rules:    make(map[string]*compiledRule),
		filters:  pubsub.NewIndex(),
		patterns: make(map[string]patRef),
		unknowns: make(map[string]bool),
		emitted:  make(map[string]bool),
	}
	e.onHit = func(key string) { e.hits = append(e.hits, e.patterns[key]) }
	return e
}

// KB exposes the engine's knowledge base (for host-side fact loading).
func (e *Engine) KB() *knowledge.KB { return e.kb }

// GIS exposes the engine's GIS layer.
func (e *Engine) GIS() *knowledge.GIS { return e.gis }

// Stats returns a snapshot of counters. Must run on the engine's
// owning goroutine: rules and counters are mutated only by delivery
// callbacks on that same loop.
//
//vetactive:ignore atomicstats actor-confined; writers are delivery callbacks on the same loop
func (e *Engine) Stats() Stats {
	s := e.stats
	s.Rules = len(e.rules)
	return s
}

// OnEmit registers a sink for synthesised events.
func (e *Engine) OnEmit(fn func(*event.Event)) { e.onEmit = append(e.onEmit, fn) }

// SetUnknownHandler registers the discovery hook invoked once per event
// type no rule covers (§5: routing unknown event types to discovery
// matchlets).
func (e *Engine) SetUnknownHandler(fn func(eventType string)) { e.onUnknown = fn }

// AddRule compiles and installs a rule; the name must be unique. A defect
// the compiler can see — an unknown condition type or cmp op, a malformed
// place:, kb: or spatial term — is returned here; what depends on the
// events (a missing attribute, an unknown place) counts in Stats.Errors
// when it happens. The rule is read once: later changes to r have no effect.
func (e *Engine) AddRule(r *Rule) error {
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
	cr := &compiledRule{
		name:         r.Name,
		window:       r.Window(),
		suppress:     r.Suppression(),
		source:       e.opts.Source + "/" + r.Name,
		emitType:     r.Emit.Type,
		bufs:         make([]buffer, len(r.Patterns)),
		emittedUntil: make(map[string]time.Duration),
	}
	for i := range cr.bufs {
		cr.bufs[i] = newBuffer()
	}
	plans, nvars, err := compileRule(r, cr.bufs)
	if err != nil {
		return err
	}
	cr.plans = plans
	cr.env = env{vars: make([]event.Value, nvars), evs: make([]*event.Event, len(r.Patterns))}
	for _, ea := range r.Emit.Attrs {
		if !ea.Volatile {
			cr.stable = append(cr.stable, ea.Name)
		}
	}
	e.ruleSeq++
	cr.seq = e.ruleSeq
	seen := make(map[string]bool)
	for pi, p := range r.Patterns {
		if p.Alias != "" && !seen[p.Alias] {
			seen[p.Alias] = true
			cr.keyed = append(cr.keyed, pi)
		}
		key := strconv.FormatUint(cr.seq, 10) + "/" + strconv.Itoa(pi)
		cr.filters = append(cr.filters, key)
		e.filters.Add(key, p.Filter)
		e.patterns[key] = patRef{cr, pi}
	}
	e.rules[r.Name] = cr
	return nil
}

// RemoveRule uninstalls a rule.
func (e *Engine) RemoveRule(name string) {
	cr, ok := e.rules[name]
	if !ok {
		return
	}
	delete(e.rules, name)
	cr.removed = true
	for _, key := range cr.filters {
		e.filters.Remove(key)
		delete(e.patterns, key)
	}
}

// Rules lists installed rule names in insertion order.
func (e *Engine) Rules() []string {
	installed := make([]*compiledRule, 0, len(e.rules))
	for _, cr := range e.rules {
		installed = append(installed, cr)
	}
	slices.SortFunc(installed, func(a, b *compiledRule) int { return cmp.Compare(a.seq, b.seq) })
	out := make([]string, len(installed))
	for i, cr := range installed {
		out[i] = cr.name
	}
	return out
}

// Put feeds one event into the engine. An event put from inside an emit
// sink is taken up when the current one is done.
func (e *Engine) Put(ev *event.Event) {
	if e.busy {
		e.pending = append(e.pending, ev)
		return
	}
	e.busy = true
	defer func() { e.busy = false }()
	e.put(ev)
	for len(e.pending) > 0 {
		next := e.pending[0]
		e.pending = e.pending[1:]
		e.put(next)
	}
	e.pending = nil
}

func (e *Engine) put(ev *event.Event) {
	e.stats.EventsIn++
	now := e.clock.Now()
	// The patterns whose filter accepts ev, in rule installation order then
	// pattern order: the index visits them in no particular one.
	e.hits = e.hits[:0]
	e.filters.Match(ev, e.onHit)
	slices.SortFunc(e.hits, func(a, b patRef) int {
		if c := cmp.Compare(a.cr.seq, b.cr.seq); c != 0 {
			return c
		}
		return cmp.Compare(a.pi, b.pi)
	})
	for _, h := range e.hits {
		if h.cr.removed {
			continue // uninstalled by an emit sink earlier in this Put
		}
		if e.insert(h.cr, h.pi, ev, now) {
			e.try(h.cr, &h.cr.plans[h.pi], 0, ev, now)
		}
	}
	if len(e.hits) == 0 && e.onUnknown != nil && !e.unknowns[ev.Type] {
		if len(e.unknownFIFO) == maxUnknowns {
			delete(e.unknowns, e.unknownFIFO[0])
			e.unknownFIFO = append(e.unknownFIFO[:0], e.unknownFIFO[1:]...)
		}
		e.unknowns[ev.Type] = true
		e.unknownFIFO = append(e.unknownFIFO, ev.Type)
		e.onUnknown(ev.Type)
	}
}

// ForgetUnknown clears the once-only latch for an event type so a later
// occurrence triggers discovery again (e.g. after an install failure).
func (e *Engine) ForgetUnknown(eventType string) {
	if !e.unknowns[eventType] {
		return
	}
	delete(e.unknowns, eventType)
	i := slices.Index(e.unknownFIFO, eventType)
	e.unknownFIFO = slices.Delete(e.unknownFIFO, i, i+1)
}

// insert expires what has left the window from the pattern's buffer and
// adds ev, evicting the oldest entry beyond maxBuffer: after the expiry
// every entry is inside the window, so each eviction is counted. An
// event that is itself older than the window is neither buffered nor
// joined.
func (e *Engine) insert(cr *compiledRule, pi int, ev *event.Event, now time.Duration) bool {
	buf := &cr.bufs[pi]
	cutoff := now - cr.window
	e.stats.Expired += uint64(buf.expire(cutoff))
	if ev.Time < cutoff {
		e.stats.Expired++
		return false
	}
	e.stats.Buffered++
	if buf.n == e.opts.maxBuffer {
		buf.remove(buf.oldest)
		e.stats.Evicted++
	}
	buf.add(ev)
	return true
}

// try joins ev at depth d of the plan: unify it with the bindings, run
// the conditions that became decidable, and extend the tuple with every
// candidate of the next depth (or emit, past the last).
func (e *Engine) try(cr *compiledRule, pl *plan, d int, ev *event.Event, now time.Duration) {
	lv := &pl.levels[d]
	en := &cr.env
	if lv.sameAs >= 0 && en.evs[lv.sameAs].ID != ev.ID {
		return
	}
	for _, b := range lv.binds {
		v, ok := ev.Get(b.attr)
		if !ok {
			return
		}
		if b.set {
			en.vars[b.slot] = v
		} else if !en.vars[b.slot].Equal(v) {
			return
		}
	}
	en.evs[lv.pat] = ev
	last := d == len(pl.levels)-1
	if last {
		e.stats.Joins++
	}
	for i := range lv.conds {
		ok, err := e.holds(&lv.conds[i], en, now)
		if err != nil {
			e.stats.Errors++
			return
		}
		if !ok {
			e.stats.CondFails++
			return
		}
	}
	if last {
		e.complete(cr, pl, now)
		return
	}
	next := &pl.levels[d+1]
	buf := &cr.bufs[next.pat]
	next.cands = e.candidates(next.cands[:0], next, buf, en, now)
	cutoff := now - cr.window
	for _, s := range next.cands {
		// Arrival order is not timestamp order: an expired candidate is
		// skipped, it does not end the visit.
		if cand := &buf.entries[s]; cand.at >= cutoff {
			e.try(cr, pl, d+1, cand.ev, now)
		}
	}
}

// candidates appends the buffer slots level lv must visit, newest first.
func (e *Engine) candidates(dst []int32, lv *level, buf *buffer, en *env, now time.Duration) []int32 {
	if lv.access == accessScan {
		return buf.appendAll(dst)
	}
	// A key that cannot be evaluated fails the condition it came from on
	// every candidate: there is nothing to visit.
	key, err := e.value(&lv.key, en, now)
	if err != nil {
		e.stats.Errors++
		return dst
	}
	if lv.access == accessProbe {
		if k := keyOf(key); k.kind != keyNaN {
			dst = buf.appendChain(dst, lv.index, k)
		}
		return dst
	}
	pred, err := e.value(&lv.pred, en, now)
	if err != nil {
		e.stats.Errors++
		return dst
	}
	e.strs = e.strs[:0]
	if lv.access == accessKBObjects {
		e.strs = e.kb.AppendObjects(e.strs, key.String(), pred.String(), now)
	} else {
		e.strs = e.kb.AppendSubjects(e.strs, pred.String(), key.String(), now)
	}
	if len(e.strs) == 0 {
		return dst
	}
	// The candidate's own end of the fact may render as "", the knowledge
	// base's wildcard, which any fact found above satisfies.
	e.strs = append(e.strs, "")
	for _, s := range e.strs {
		e.keys = renderedKeys(e.keys[:0], s)
		for _, k := range e.keys {
			dst = buf.appendChain(dst, lv.index, k)
		}
	}
	// Several chains, and facts held twice: restore newest-first, once each.
	slices.SortFunc(dst, func(a, b int32) int { return cmp.Compare(buf.entries[b].seq, buf.entries[a].seq) })
	return slices.Compact(dst)
}

var (
	errUnbound = errors.New("match: term names no bound variable or alias")
	errNoAttr  = errors.New("match: event lacks the attribute")
	errNoPlace = errors.New("match: unknown place")
	errNoFact  = errors.New("match: no such fact and no default")
)

// value evaluates a compiled term.
func (e *Engine) value(o *operand, en *env, now time.Duration) (event.Value, error) {
	switch o.kind {
	case opLit:
		return o.val, nil
	case opVar:
		return en.vars[o.slot], nil
	case opAttr:
		v, ok := en.evs[o.slot].Get(o.attr)
		if !ok {
			return event.Value{}, errNoAttr
		}
		return v, nil
	case opPlace:
		p, err := e.place(o.sub, en, now)
		if err != nil {
			return event.Value{}, err
		}
		switch o.field {
		case fieldX:
			return event.F(p.X), nil
		case fieldY:
			return event.F(p.Y), nil
		case fieldName:
			return event.S(p.Name), nil
		default:
			return event.S(p.Region), nil
		}
	case opKB:
		subj, err := e.value(o.sub, en, now)
		if err != nil {
			return event.Value{}, err
		}
		if obj, ok := e.kb.One(subj.String(), o.attr, now); ok {
			return classify(obj), nil
		}
		if o.hasDef {
			return o.val, nil
		}
		return event.Value{}, errNoFact
	default:
		return event.Value{}, errUnbound
	}
}

// text evaluates a term read as a string.
func (e *Engine) text(o *operand, en *env, now time.Duration) (string, error) {
	v, err := e.value(o, en, now)
	return v.String(), err
}

// place resolves the place a term names.
func (e *Engine) place(name *operand, en *env, now time.Duration) (*knowledge.Place, error) {
	v, err := e.value(name, en, now)
	if err != nil {
		return nil, err
	}
	p, ok := e.gis.Place(v.String())
	if !ok {
		return nil, errNoPlace
	}
	return p, nil
}

// coord evaluates a spatial endpoint.
func (e *Engine) coord(o *operand, en *env, now time.Duration) (netapi.Coord, error) {
	switch o.kind {
	case opEvent:
		ev := en.evs[o.slot]
		return netapi.Coord{X: ev.GetNum("x"), Y: ev.GetNum("y")}, nil
	case opPlace:
		p, err := e.place(o.sub, en, now)
		if err != nil {
			return netapi.Coord{}, err
		}
		return p.At(), nil
	default:
		return netapi.Coord{}, errUnbound
	}
}

// holds evaluates one condition (a binder also sets its slot) and
// reports whether it holds.
func (e *Engine) holds(c *cond, en *env, now time.Duration) (bool, error) {
	switch c.typ {
	case condKB, condNoKB, condKBBind:
		s, err := e.text(&c.a, en, now)
		if err != nil {
			return false, err
		}
		p, err := e.text(&c.b, en, now)
		if err != nil {
			return false, err
		}
		if c.typ == condKBBind {
			o, ok := e.kb.One(s, p, now)
			if ok && c.out >= 0 {
				en.vars[c.out] = classify(o)
			}
			return ok, nil
		}
		o, err := e.text(&c.c, en, now)
		if err != nil {
			return false, err
		}
		return e.kb.Ask(s, p, o, now) == (c.typ == condKB), nil
	case condCmp:
		l, err := e.value(&c.a, en, now)
		if err != nil {
			return false, err
		}
		r, err := e.value(&c.b, en, now)
		if err != nil {
			return false, err
		}
		switch c.op {
		case cmpEq:
			return l.Equal(r), nil
		case cmpNe:
			return !l.Equal(r), nil
		}
		order, ok := l.Compare(r)
		if !ok {
			return false, nil
		}
		switch c.op {
		case cmpLt:
			return order < 0, nil
		case cmpLe:
			return order <= 0, nil
		case cmpGt:
			return order > 0, nil
		default:
			return order >= 0, nil
		}
	case condWithinKm:
		a, err := e.coord(&c.a, en, now)
		if err != nil {
			return false, err
		}
		b, err := e.coord(&c.b, en, now)
		if err != nil {
			return false, err
		}
		return a.DistanceKm(b) <= c.num, nil
	case condNearestSelling:
		near, err := e.coord(&c.a, en, now)
		if err != nil {
			return false, err
		}
		p := e.gis.NearestSelling(near, c.item, c.num)
		if p != nil && c.out >= 0 {
			en.vars[c.out] = event.S(p.Name)
		}
		return p != nil, nil
	case condOpenFor:
		p, err := e.place(&c.a, en, now)
		if err != nil {
			return false, err
		}
		return p.OpenAt(now) && p.OpenFor(now) >= c.need, nil
	default: // condReachable
		p, err := e.place(&c.b, en, now)
		if err != nil {
			return false, err
		}
		from, err := e.coord(&c.a, en, now)
		if err != nil {
			return false, err
		}
		walk := time.Duration(from.DistanceKm(p.At()) / c.num * float64(time.Hour))
		return p.OpenAt(now) && p.OpenFor(now) > walk, nil
	}
}

// complete emits for a tuple that passed every condition, unless it or
// its output is a repeat.
func (e *Engine) complete(cr *compiledRule, pl *plan, now time.Duration) {
	// A correlation is identified by its rule and contributing event IDs.
	key := binary.AppendUvarint(e.keyBuf[:0], uint64(len(cr.name)))
	key = append(key, cr.name...)
	for _, pi := range cr.keyed {
		key = append(key, cr.env.evs[pi].ID[:]...)
	}
	e.keyBuf = key
	if e.emitted[string(key)] {
		e.stats.Duplicates++
		return
	}
	e.remember(string(key))
	e.emitSeq++
	out := event.New(cr.emitType, cr.source, now)
	for i := range pl.emit {
		v, err := e.value(&pl.emit[i].from, &cr.env, now)
		if err != nil {
			e.stats.Errors++
			return
		}
		out.Set(pl.emit[i].name, v)
	}
	out.Stamp(e.emitSeq)
	// Semantic output suppression: a fresh tuple producing the same
	// meaningful event within the suppression window stays quiet.
	if cr.suppress > 0 {
		sk := suppressKey(cr.stable, out)
		if until, seen := cr.emittedUntil[sk]; seen && now < until {
			e.stats.Suppressed++
			return
		}
		cr.emittedUntil[sk] = now + cr.suppress
		// Opportunistic expiry sweep keeps the map bounded.
		if len(cr.emittedUntil) > 1024 {
			for k, until := range cr.emittedUntil {
				if now >= until {
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
func suppressKey(stable []string, out *event.Event) string {
	parts := make([]string, 0, len(stable)+1)
	parts = append(parts, out.Type)
	for _, name := range stable {
		if v, ok := out.Attrs[name]; ok {
			parts = append(parts, name+"="+v.String())
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, "|")
}

func (e *Engine) remember(key string) {
	e.emitted[key] = true
	e.emitFIFO = append(e.emitFIFO, key)
	if len(e.emitFIFO) > e.opts.maxEmittedMemory {
		delete(e.emitted, e.emitFIFO[0])
		e.emitFIFO = e.emitFIFO[1:]
	}
}
