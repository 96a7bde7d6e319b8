// Package knowledge implements the paper's global knowledge base (§1.1):
// the relatively static facts the matching service correlates events
// against — user preferences, social links, calendars ("Bob is on holiday
// from 20/6 to 27/6"), and GIS data ("Janetta's in Market Street sells ice
// cream, and is open between 9.00 and 17.00").
//
// Facts are subject–predicate–object triples with optional validity
// intervals. Fact sets serialise to a versioned binary form (wirebin.go)
// so they can live in the P2P storage architecture and be cached near the
// matching computation (see Syncer). The GIS layer holds places with
// coordinates, opening hours and stock, indexed on a spatial grid; each
// node's layer is installed where the node is built, not replicated.
package knowledge

import (
	"fmt"
	"sort"
	"time"

	"github.com/gloss/active/internal/netapi"
)

// Fact is one S-P-O triple, optionally valid only in [From, To).
type Fact struct {
	S string `xml:"s,attr"`
	P string `xml:"p,attr"`
	O string `xml:"o,attr"`
	// From/To bound the validity in world time; both zero = always valid.
	From time.Duration `xml:"from,attr,omitempty"`
	To   time.Duration `xml:"to,attr,omitempty"`
}

// ValidAt reports whether the fact holds at time t (t < 0 ignores validity).
func (f Fact) ValidAt(t time.Duration) bool {
	if t < 0 || (f.From == 0 && f.To == 0) {
		return true
	}
	return t >= f.From && t < f.To
}

// poKey addresses the predicate-object index.
type poKey struct{ p, o string }

// KB is an in-memory fact base indexed by subject and by
// (predicate, object). The zero value is not usable; construct with NewKB.
type KB struct {
	bySubject map[string][]*Fact
	// byPO answers "who P O?" — the subjects of (·, P, O) — without a
	// scan over every subject; each list is in insertion order.
	byPO  map[poKey][]*Fact
	count int
	// subjects caches the sorted subject list for wildcard-subject
	// queries; nil means stale (rebuilt lazily on the next such query).
	subjects []string
}

// NewKB returns an empty knowledge base.
func NewKB() *KB {
	return &KB{bySubject: make(map[string][]*Fact), byPO: make(map[poKey][]*Fact)}
}

// Add inserts a fact (duplicates are kept; they are harmless for Ask).
func (kb *KB) Add(f Fact) {
	c := &f
	if _, known := kb.bySubject[f.S]; !known {
		kb.subjects = nil
	}
	kb.bySubject[f.S] = append(kb.bySubject[f.S], c)
	po := poKey{f.P, f.O}
	kb.byPO[po] = append(kb.byPO[po], c)
	kb.count++
}

// unindex drops one stored fact from the predicate-object index.
func (kb *KB) unindex(f *Fact) {
	po := poKey{f.P, f.O}
	list := kb.byPO[po]
	for i, g := range list {
		if g == f {
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(list) == 0 {
		delete(kb.byPO, po)
	} else {
		kb.byPO[po] = list
	}
}

// AddSPO inserts an always-valid fact.
func (kb *KB) AddSPO(s, p, o string) { kb.Add(Fact{S: s, P: p, O: o}) }

// Len returns the number of stored facts.
func (kb *KB) Len() int { return kb.count }

// each calls fn, without allocating, for every fact matching the pattern
// at time t until fn returns false: one subject's facts in insertion
// order, or for a wildcard subject every subject's in sorted subject
// order (the cached slice is invalidated whenever the subject set
// changes). Empty strings are wildcards, t < 0 ignores validity.
func (kb *KB) each(s, p, o string, t time.Duration, fn func(*Fact) bool) {
	if s != "" {
		eachIn(kb.bySubject[s], p, o, t, fn)
		return
	}
	for _, subj := range kb.sortedSubjects() {
		if !eachIn(kb.bySubject[subj], p, o, t, fn) {
			return
		}
	}
}

func eachIn(pool []*Fact, p, o string, t time.Duration, fn func(*Fact) bool) bool {
	for _, f := range pool {
		if (p == "" || f.P == p) && (o == "" || f.O == o) && f.ValidAt(t) && !fn(f) {
			return false
		}
	}
	return true
}

// Query returns facts matching the pattern at time t; empty strings are
// wildcards, t < 0 ignores validity.
func (kb *KB) Query(s, p, o string, t time.Duration) []Fact {
	var out []Fact
	kb.each(s, p, o, t, func(f *Fact) bool {
		out = append(out, *f)
		return true
	})
	return out
}

// Ask reports whether any fact matches the pattern at time t.
func (kb *KB) Ask(s, p, o string, t time.Duration) bool {
	found := false
	hit := func(*Fact) bool {
		found = true
		return false
	}
	if s == "" && p != "" && o != "" {
		eachIn(kb.byPO[poKey{p, o}], p, o, t, hit)
	} else {
		kb.each(s, p, o, t, hit)
	}
	return found
}

// One returns the object of the first fact matching (s, p, *) at t.
func (kb *KB) One(s, p string, t time.Duration) (o string, ok bool) {
	kb.each(s, p, "", t, func(f *Fact) bool {
		o, ok = f.O, true
		return false
	})
	return o, ok
}

// AppendObjects appends to dst the object of every fact matching
// (s, p, ·) at t, in Query's order, and returns the extended slice; with
// a reused dst it does not allocate.
func (kb *KB) AppendObjects(dst []string, s, p string, t time.Duration) []string {
	kb.each(s, p, "", t, func(f *Fact) bool {
		dst = append(dst, f.O)
		return true
	})
	return dst
}

// AppendSubjects appends to dst the subject of every fact matching
// (·, p, o) at t, in no particular order (a full pattern is answered from
// the predicate-object index), and returns the extended slice.
func (kb *KB) AppendSubjects(dst []string, p, o string, t time.Duration) []string {
	add := func(f *Fact) bool {
		dst = append(dst, f.S)
		return true
	}
	if p != "" && o != "" {
		eachIn(kb.byPO[poKey{p, o}], p, o, t, add)
	} else {
		kb.each("", p, o, t, add)
	}
	return dst
}

// Remove deletes all facts matching the exact triple (any validity).
func (kb *KB) Remove(s, p, o string) int {
	pool := kb.bySubject[s]
	kept := pool[:0]
	removed := 0
	for _, f := range pool {
		if f.P == p && f.O == o {
			kb.unindex(f)
			removed++
			continue
		}
		kept = append(kept, f)
	}
	if len(kept) == 0 {
		delete(kb.bySubject, s)
		kb.subjects = nil
	} else {
		kb.bySubject[s] = kept
	}
	kb.count -= removed
	return removed
}

// sortedSubjects returns the cached sorted subject list, rebuilding it
// only after the subject set has changed.
func (kb *KB) sortedSubjects() []string {
	if kb.subjects == nil && len(kb.bySubject) > 0 {
		kb.subjects = make([]string, 0, len(kb.bySubject))
		for subj := range kb.bySubject {
			kb.subjects = append(kb.subjects, subj)
		}
		sort.Strings(kb.subjects)
	}
	return kb.subjects
}

// Subjects returns all subjects in sorted order. The returned slice is
// shared with the cache — callers must not mutate it.
func (kb *KB) Subjects() []string { return kb.sortedSubjects() }

// SubjectFacts returns all facts about one subject.
func (kb *KB) SubjectFacts(s string) []Fact {
	out := make([]Fact, 0, len(kb.bySubject[s]))
	for _, f := range kb.bySubject[s] {
		out = append(out, *f)
	}
	return out
}

// MergeSubject replaces all facts about a subject with the given set
// (used when syncing from the distributed store).
func (kb *KB) MergeSubject(s string, facts []Fact) {
	for _, f := range kb.bySubject[s] {
		kb.unindex(f)
	}
	kb.count -= len(kb.bySubject[s])
	delete(kb.bySubject, s)
	kb.subjects = nil
	for _, f := range facts {
		if f.S == s {
			kb.Add(f)
		}
	}
}

// --- GIS -----------------------------------------------------------------------

// Span is a daily opening interval [Open, Close) in time-of-day offsets.
type Span struct {
	Open  time.Duration
	Close time.Duration
}

// Place is a GIS feature.
type Place struct {
	Name   string
	Region string
	X      float64
	Y      float64
	Hours  Span
	Sells  []string
	Tags   []string
}

// At returns the place coordinate.
func (p *Place) At() netapi.Coord { return netapi.Coord{X: p.X, Y: p.Y} }

// OpenAt reports whether the place is open at world time t (modulo day).
// A zero Hours span means always open.
func (p *Place) OpenAt(t time.Duration) bool {
	if p.Hours.Open == 0 && p.Hours.Close == 0 {
		return true
	}
	tod := t % (24 * time.Hour)
	if p.Hours.Open <= p.Hours.Close {
		return tod >= p.Hours.Open && tod < p.Hours.Close
	}
	// Overnight span (e.g. 22:00–02:00).
	return tod >= p.Hours.Open || tod < p.Hours.Close
}

// OpenFor returns how much longer the place stays open at time t
// (zero when closed; a day when always open).
func (p *Place) OpenFor(t time.Duration) time.Duration {
	if p.Hours.Open == 0 && p.Hours.Close == 0 {
		return 24 * time.Hour
	}
	if !p.OpenAt(t) {
		return 0
	}
	tod := t % (24 * time.Hour)
	if p.Hours.Open <= p.Hours.Close {
		return p.Hours.Close - tod
	}
	if tod >= p.Hours.Open {
		return 24*time.Hour - tod + p.Hours.Close
	}
	return p.Hours.Close - tod
}

// SellsItem reports whether the place stocks an item.
func (p *Place) SellsItem(item string) bool {
	for _, s := range p.Sells {
		if s == item {
			return true
		}
	}
	return false
}

const gridCellKm = 1.0

type cellKey struct{ cx, cy int }

// GIS is a spatially indexed set of places.
type GIS struct {
	places map[string]*Place
	grid   map[cellKey][]*Place
}

// NewGIS returns an empty GIS layer.
func NewGIS() *GIS {
	return &GIS{
		places: make(map[string]*Place),
		grid:   make(map[cellKey][]*Place),
	}
}

func cellOf(c netapi.Coord) cellKey {
	return cellKey{cx: int(c.X / gridCellKm), cy: int(c.Y / gridCellKm)}
}

// AddPlace indexes a place; names must be unique.
func (g *GIS) AddPlace(p Place) error {
	if _, dup := g.places[p.Name]; dup {
		return fmt.Errorf("knowledge: duplicate place %q", p.Name)
	}
	cp := p
	g.places[p.Name] = &cp
	k := cellOf(cp.At())
	g.grid[k] = append(g.grid[k], &cp)
	return nil
}

// Place looks a place up by name.
func (g *GIS) Place(name string) (*Place, bool) {
	p, ok := g.places[name]
	return p, ok
}

// Len returns the number of places.
func (g *GIS) Len() int { return len(g.places) }

// Within returns all places within km of c, nearest first (ties by name).
func (g *GIS) Within(c netapi.Coord, km float64) []*Place {
	r := int(km/gridCellKm) + 1
	center := cellOf(c)
	var out []*Place
	for dx := -r; dx <= r; dx++ {
		for dy := -r; dy <= r; dy++ {
			for _, p := range g.grid[cellKey{center.cx + dx, center.cy + dy}] {
				if p.At().DistanceKm(c) <= km {
					out = append(out, p)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		di, dj := out[i].At().DistanceKm(c), out[j].At().DistanceKm(c)
		if di != dj {
			return di < dj
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// NearestSelling returns the closest place within maxKm of c that stocks
// item, or nil.
func (g *GIS) NearestSelling(c netapi.Coord, item string, maxKm float64) *Place {
	for _, p := range g.Within(c, maxKm) {
		if p.SellsItem(item) {
			return p
		}
	}
	return nil
}

// NearestTagged returns the closest place within maxKm carrying tag.
func (g *GIS) NearestTagged(c netapi.Coord, tag string, maxKm float64) *Place {
	for _, p := range g.Within(c, maxKm) {
		for _, t := range p.Tags {
			if t == tag {
				return p
			}
		}
	}
	return nil
}
