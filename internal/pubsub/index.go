package pubsub

import (
	"math"
	"slices"
	"sort"

	"github.com/gloss/active/internal/event"
)

// This file implements access-predicate matching (Fabret et al., SIGMOD
// 2001) for content-based subscriptions. Each distinct filter is posted
// under exactly one of its constraints, its access constraint, chosen
// when the filter is added: the equality whose (attribute, value) has the
// fewest postings, else a range, else an exists, else a scanned
// constraint. Publishing an event probes the postings of the attributes
// it carries; every satisfied posting yields one candidate, which matches
// outright if it is the filter's only constraint and otherwise once its
// other constraints hold. Publish cost therefore tracks the candidates
// the event selects, not the size of the table nor the number of filters
// sharing a popular constraint (every filter pinning the same event type,
// say). The linear scan (linearMatcher, the differential oracle in
// index_test.go) tracks the table.
//
// Postings are organised by attribute name, then by operator and value
// domain. Equality constraints over numeric and string values are hashed
// by value, so an event's value finds its run with one lookup and adding
// or removing a filter touches only its own run; range constraints are
// kept sorted by value, so the satisfied prefix or suffix resolves with a
// binary search. Every other operator (ne, substring ops, exists on the
// value side, and degenerate bool/invalid-valued comparisons) is scanned
// linearly within its attribute, which keeps the index's semantics
// byte-for-byte identical to Filter.Matches.

// posting is the one access posting of one indexed filter.
type posting struct {
	con Constraint
	fx  *ixFilter
}

// ixFilter is the index's record of one distinct filter.
type ixFilter struct {
	key    string
	filter Filter
	access int // the constraint (index into filter.Constraints) it is posted under
}

// The posting lists of one attribute. The numeric and string range lists
// are sorted by value; exists postings hold on presence alone, and misc
// postings are evaluated one by one. Equalities are not a list but runs
// hashed by value (attrPostings.eq). NaN-valued comparisons go to misc:
// NaN equals no key and breaks the total order binary search relies on,
// and Filter.Matches gives them exact (if degenerate) semantics.
const (
	listLtNum = iota
	listLeNum
	listGtNum
	listGeNum
	listLtStr
	listLeStr
	listGtStr
	listGeStr
	listExists
	listMisc
	numLists
	listEq = numLists // hashed in attrPostings.eq
)

// listOf routes a constraint to the posting list it lives in.
func listOf(c Constraint) int {
	var num, str int
	switch c.Op {
	case OpExists:
		return listExists
	case OpEq:
		num, str = listEq, listEq
	case OpLt:
		num, str = listLtNum, listLtStr
	case OpLe:
		num, str = listLeNum, listLeStr
	case OpGt:
		num, str = listGtNum, listGtStr
	case OpGe:
		num, str = listGeNum, listGeStr
	default:
		return listMisc
	}
	if n, ok := c.Val.Num(); ok && !math.IsNaN(n) {
		return num
	}
	if c.Val.K == event.KindString {
		return str
	}
	return listMisc
}

// accessRank orders the lists a filter may be posted under, most
// selective first: an equality, a sorted range, an exists, a scan.
func accessRank(l int) int {
	switch l {
	case listEq:
		return 0
	case listExists:
		return 2
	case listMisc:
		return 3
	}
	return 1
}

// attrPostings holds every posting filed under one attribute.
type attrPostings struct {
	name  string
	eq    map[eqKey][]posting // equality runs; a run left empty is deleted
	lists [numLists][]posting
	n     int // postings over all runs and lists
}

// eqKey is the hash key of an equality run: a number by its float64, so
// I(3) and F(3), -0 and +0, and int64s beyond 2^53 that round alike share
// a run, else a string. A run is thus a superset of the postings a value
// equals, and each is confirmed with its own predicate.
type eqKey struct {
	num   float64
	str   string
	isStr bool
}

func eqKeyOf(v *event.Value) eqKey {
	if n, ok := v.Num(); ok {
		return eqKey{num: n}
	}
	return eqKey{str: v.S, isStr: true}
}

// bound returns the first posting of the sorted list l whose value sorts
// above v (after) or at or above it (!after): by float64 for the numeric
// lists, by string for the string lists.
func bound(ps []posting, l int, v *event.Value, after bool) int {
	if len(ps) == 0 {
		return 0
	}
	if l <= listGeNum {
		n, _ := v.Num()
		if after {
			return sort.Search(len(ps), func(j int) bool { return postNum(ps, j) > n })
		}
		return sort.Search(len(ps), func(j int) bool { return postNum(ps, j) >= n })
	}
	s := v.S
	if after {
		return sort.Search(len(ps), func(j int) bool { return ps[j].con.Val.S > s })
	}
	return sort.Search(len(ps), func(j int) bool { return ps[j].con.Val.S >= s })
}

// eqSpan returns the run [lo, hi) of list l whose values sort equal to v;
// an unsorted list is one run. The run is found by one binary search and
// a walk over it: access postings spread filters across values, so runs
// are short, and each caller inserts into or deletes from the list, which
// costs the list's length anyway.
func eqSpan(ps []posting, l int, v *event.Value) (lo, hi int) {
	switch {
	case l <= listGeNum:
		n, _ := v.Num()
		lo = bound(ps, l, v, false)
		for hi = lo; hi < len(ps) && postNum(ps, hi) == n; hi++ {
		}
	case l <= listGeStr:
		lo = bound(ps, l, v, false)
		for hi = lo; hi < len(ps) && ps[hi].con.Val.S == v.S; hi++ {
		}
	default:
		hi = len(ps)
	}
	return lo, hi
}

func postNum(ps []posting, j int) float64 { m, _ := ps[j].con.Val.Num(); return m }

// Index is the access-predicate index over a broker's distinct
// subscription filters. Not safe for concurrent use: its shipped callers
// (Broker.handlePub, Client.dispatch, the rule engine's put) each own
// theirs on one goroutine.
type Index struct {
	filters map[string]*ixFilter
	attrs   map[string]*attrPostings
	// order holds attrs sorted by name: the walk Match takes when the
	// index has fewer attributes than the event, and Attrs' order.
	order []*attrPostings
	// empties are zero-constraint filters: they match every event.
	empties []*ixFilter
}

// NewIndex returns an empty predicate index.
func NewIndex() *Index {
	return &Index{
		filters: make(map[string]*ixFilter),
		attrs:   make(map[string]*attrPostings),
	}
}

// NewShardedIndex is NewIndex under the name the frozen benchmark calls
// (bench/internal/workloads/replay.go:125); the next PR allowed to edit
// bench/ removes it.
func NewShardedIndex(int) *Index { return NewIndex() }

// Len returns the number of indexed filters.
func (ix *Index) Len() int { return len(ix.filters) }

// AttrCount returns the number of attributes with live postings.
func (ix *Index) AttrCount() int { return len(ix.attrs) }

// Attrs returns the indexed attribute names in sorted order.
func (ix *Index) Attrs() []string {
	out := make([]string, len(ix.order))
	for i, ap := range ix.order {
		out[i] = ap.name
	}
	return out
}

// Add indexes f under key (its Filter.Key). Adding an existing key is a
// no-op, mirroring the broker's distinct-filter table.
func (ix *Index) Add(key string, f Filter) {
	if _, dup := ix.filters[key]; dup {
		return
	}
	fx := &ixFilter{key: key, filter: f}
	ix.filters[key] = fx
	if len(f.Constraints) == 0 {
		ix.empties = append(ix.empties, fx)
		return
	}
	fx.access = ix.accessOf(f)
	c := f.Constraints[fx.access]
	ap := ix.attrs[c.Attr]
	if ap == nil {
		ap = &attrPostings{name: c.Attr, eq: make(map[eqKey][]posting)}
		ix.attrs[c.Attr] = ap
		i := ix.orderPos(c.Attr)
		ix.order = append(ix.order, nil)
		copy(ix.order[i+1:], ix.order[i:])
		ix.order[i] = ap
	}
	ap.n++
	if l := listOf(c); l == listEq {
		k := eqKeyOf(&c.Val)
		ap.eq[k] = append(ap.eq[k], posting{con: c, fx: fx})
	} else {
		_, i := eqSpan(ap.lists[l], l, &c.Val) // after its equals: insertion order among them
		ap.lists[l] = slices.Insert(ap.lists[l], i, posting{con: c, fx: fx})
	}
}

// accessOf picks the constraint f is posted under: the best-ranked list,
// and among equalities the (attribute, value) with the fewest postings
// now. Ties go to the earlier constraint.
func (ix *Index) accessOf(f Filter) int {
	best, bestRank, bestN := 0, numLists, 0
	for i, c := range f.Constraints {
		l := listOf(c)
		r, n := accessRank(l), 0
		if r > bestRank {
			continue
		}
		if ap := ix.attrs[c.Attr]; ap != nil && r == 0 {
			n = len(ap.eq[eqKeyOf(&c.Val)])
		}
		if r < bestRank || n < bestN {
			best, bestRank, bestN = i, r, n
		}
	}
	return best
}

// orderPos is where attr sits, or would sit, in ix.order.
func (ix *Index) orderPos(attr string) int {
	return sort.Search(len(ix.order), func(i int) bool { return ix.order[i].name >= attr })
}

// Remove drops the filter indexed under key. Unknown keys are a no-op.
func (ix *Index) Remove(key string) {
	fx := ix.filters[key]
	if fx == nil {
		return
	}
	delete(ix.filters, key)
	if len(fx.filter.Constraints) == 0 {
		for i, e := range ix.empties {
			if e == fx {
				ix.empties = append(ix.empties[:i], ix.empties[i+1:]...)
				break
			}
		}
		return
	}
	c := fx.filter.Constraints[fx.access]
	ap := ix.attrs[c.Attr]
	ap.n--
	of := func(p posting) bool { return p.fx == fx }
	if l := listOf(c); l == listEq {
		k := eqKeyOf(&c.Val)
		if run := slices.DeleteFunc(ap.eq[k], of); len(run) > 0 {
			ap.eq[k] = run
		} else {
			delete(ap.eq, k)
		}
	} else {
		lo, hi := eqSpan(ap.lists[l], l, &c.Val)
		i := lo + slices.IndexFunc(ap.lists[l][lo:hi], of)
		ap.lists[l] = slices.Delete(ap.lists[l], i, i+1)
	}
	if ap.n == 0 {
		delete(ix.attrs, c.Attr)
		i := ix.orderPos(c.Attr)
		ix.order = append(ix.order[:i], ix.order[i+1:]...)
	}
}

// Match invokes visit exactly once for the key of every indexed filter
// the event satisfies. The visit order is unspecified.
//
// The probe walks whichever side has fewer attributes: the event's,
// looking each up among the index's, or the index's, looking each up on
// the event. A filter has one posting and each attribute is probed once,
// so no filter is visited twice.
func (ix *Index) Match(ev *event.Event, visit func(key string)) {
	for _, fx := range ix.empties {
		visit(fx.key)
	}
	p := probe{ev: ev, visit: visit}
	if len(ix.order) <= 3+len(ev.Attrs) { // the envelope's type, source, time, then Attrs
		for _, ap := range ix.order {
			if v, ok := ev.Get(ap.name); ok {
				p.attr(ap, v)
			}
		}
		return
	}
	// Implicit envelope attributes first; they shadow Attrs entries of
	// the same name, exactly as Event.Get does.
	p.named(ix, "type", event.S(ev.Type))
	p.named(ix, "source", event.S(ev.Source))
	p.named(ix, "time", event.I(int64(ev.Time)))
	for name, v := range ev.Attrs {
		switch name {
		case "type", "source", "time":
			continue
		}
		p.named(ix, name, v)
	}
}

// probe is one Match call's event and callback.
type probe struct {
	ev    *event.Event
	visit func(string)
}

func (p *probe) named(ix *Index, name string, v event.Value) {
	if ap := ix.attrs[name]; ap != nil {
		p.attr(ap, v)
	}
}

// hit takes one filter whose access posting the event satisfies. The
// posting lookup is exact, so the filter matches once its other
// constraints hold, as Filter.Matches checks them; a one-constraint
// filter matches outright.
func (p *probe) hit(fx *ixFilter) {
	for i, c := range fx.filter.Constraints {
		if i == fx.access {
			continue
		}
		if v, ok := p.ev.Get(c.Attr); !ok || !c.Matches(v) {
			return
		}
	}
	p.visit(fx.key)
}

// hitAll takes every posting of ps[lo:hi].
func (p *probe) hitAll(ps []posting, lo, hi int) {
	for i := lo; i < hi; i++ {
		p.hit(ps[i].fx)
	}
}

// attr runs one attribute's value against its postings.
func (p *probe) attr(ap *attrPostings, v event.Value) {
	ls := &ap.lists
	p.hitAll(ls[listExists], 0, len(ls[listExists]))
	if n, ok := v.Num(); ok {
		if math.IsNaN(n) {
			// NaN compares as equal to everything under Value.Compare and
			// keys no run; only direct evaluation reproduces that faithfully.
			for k, run := range ap.eq {
				if !k.isStr {
					p.scan(run, v)
				}
			}
			for l := listLtNum; l <= listGeNum; l++ {
				p.scan(ls[l], v)
			}
		} else {
			// eq: the run of n, confirmed posting by posting (eqKey).
			p.scan(ap.eq[eqKeyOf(&v)], v)
			// v < c.Val ⇔ c.Val > n: the suffix strictly above n.
			ps := ls[listLtNum]
			p.hitAll(ps, bound(ps, listLtNum, &v, true), len(ps))
			// v ≤ c.Val: the suffix from n up.
			ps = ls[listLeNum]
			p.hitAll(ps, bound(ps, listLeNum, &v, false), len(ps))
			// v > c.Val: the prefix strictly below n.
			ps = ls[listGtNum]
			p.hitAll(ps, 0, bound(ps, listGtNum, &v, false))
			// v ≥ c.Val: the prefix up to n.
			ps = ls[listGeNum]
			p.hitAll(ps, 0, bound(ps, listGeNum, &v, true))
		}
	} else if v.K == event.KindString {
		// Confirm with Value.Equal's struct equality, as Filter.Matches would.
		for _, e := range ap.eq[eqKeyOf(&v)] {
			if e.con.Val == v {
				p.hit(e.fx)
			}
		}
		ps := ls[listLtStr]
		p.hitAll(ps, bound(ps, listLtStr, &v, true), len(ps))
		ps = ls[listLeStr]
		p.hitAll(ps, bound(ps, listLeStr, &v, false), len(ps))
		ps = ls[listGtStr]
		p.hitAll(ps, 0, bound(ps, listGtStr, &v, false))
		ps = ls[listGeStr]
		p.hitAll(ps, 0, bound(ps, listGeStr, &v, true))
	}
	p.scan(ls[listMisc], v)
}

// scan takes the postings of ps whose constraint v satisfies.
func (p *probe) scan(ps []posting, v event.Value) {
	for i := range ps {
		if ps[i].con.Matches(v) {
			p.hit(ps[i].fx)
		}
	}
}
