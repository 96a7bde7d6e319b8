package pubsub

import (
	"math"
	"sort"

	"github.com/gloss/active/internal/event"
)

// This file implements the Siena/Gryphon-style counting algorithm for
// content-based matching. Each distinct filter in the broker's table is
// decomposed into per-attribute constraint postings; publishing an event
// touches only the postings its attributes can satisfy, and a counting
// table declares a filter matched once every one of its constraints has
// been satisfied. Publish cost therefore tracks the number of *matching*
// constraints rather than the size of the subscription table, which the
// linear scan it replaces (Broker.matchLinear, preserved as the
// differential reference) could not do.
//
// Postings are organised by attribute name, then by operator and value
// domain. Equality and range constraints over numeric and string values
// are kept sorted by value so the satisfied set resolves with a binary
// search; every other operator (ne, substring ops, exists on the value
// side, and degenerate bool/invalid-valued comparisons) is scanned
// linearly within its attribute, which keeps the index's semantics
// byte-for-byte identical to Filter.Matches.

// posting is one constraint of one indexed filter.
type posting struct {
	con Constraint
	fx  *ixFilter
}

// ixFilter is the index's record of one distinct filter.
type ixFilter struct {
	key    string
	filter Filter
	slot   int // dense position in the counting table
	total  int // constraints to satisfy before the filter matches
}

// Posting bucket kinds: how a bucket is ordered, and therefore how the
// satisfied span is located at match time.
const (
	bucketMisc   = iota // unordered; evaluate Constraint.Matches per posting
	bucketExists        // satisfied by attribute presence alone
	bucketNum           // sorted by Val.Num()
	bucketStr           // sorted by Val.S
)

// attrPostings holds every posting that constrains one attribute.
type attrPostings struct {
	exists []posting
	eqNum  []posting
	ltNum  []posting
	leNum  []posting
	gtNum  []posting
	geNum  []posting
	eqStr  []posting
	ltStr  []posting
	leStr  []posting
	gtStr  []posting
	geStr  []posting
	misc   []posting
}

// bucket routes a constraint to the posting list it lives in, together
// with the list's ordering kind. NaN-valued comparisons are routed to the
// linear bucket: NaN breaks the total order binary search relies on, and
// Filter.Matches gives them exact (if degenerate) semantics.
func (ap *attrPostings) bucket(c Constraint) (*[]posting, int) {
	switch c.Op {
	case OpExists:
		return &ap.exists, bucketExists
	case OpEq, OpLt, OpLe, OpGt, OpGe:
		if n, ok := c.Val.Num(); ok && !math.IsNaN(n) {
			switch c.Op {
			case OpEq:
				return &ap.eqNum, bucketNum
			case OpLt:
				return &ap.ltNum, bucketNum
			case OpLe:
				return &ap.leNum, bucketNum
			case OpGt:
				return &ap.gtNum, bucketNum
			default:
				return &ap.geNum, bucketNum
			}
		}
		if c.Val.K == event.KindString {
			switch c.Op {
			case OpEq:
				return &ap.eqStr, bucketStr
			case OpLt:
				return &ap.ltStr, bucketStr
			case OpLe:
				return &ap.leStr, bucketStr
			case OpGt:
				return &ap.gtStr, bucketStr
			default:
				return &ap.geStr, bucketStr
			}
		}
		return &ap.misc, bucketMisc
	default:
		return &ap.misc, bucketMisc
	}
}

// lists enumerates every posting bucket once, so size and emptiness
// checks cannot drift from the field set.
func (ap *attrPostings) lists() [][]posting {
	return [][]posting{
		ap.exists,
		ap.eqNum, ap.ltNum, ap.leNum, ap.gtNum, ap.geNum,
		ap.eqStr, ap.ltStr, ap.leStr, ap.gtStr, ap.geStr,
		ap.misc,
	}
}

func (ap *attrPostings) empty() bool { return ap.size() == 0 }

func (ap *attrPostings) size() int {
	n := 0
	for _, ps := range ap.lists() {
		n += len(ps)
	}
	return n
}

// insertPosting adds p to ps, keeping value-ordered buckets sorted.
func insertPosting(ps *[]posting, kind int, p posting) {
	i := len(*ps)
	switch kind {
	case bucketNum:
		n, _ := p.con.Val.Num()
		i = sort.Search(len(*ps), func(j int) bool {
			m, _ := (*ps)[j].con.Val.Num()
			return m >= n
		})
	case bucketStr:
		s := p.con.Val.S
		i = sort.Search(len(*ps), func(j int) bool { return (*ps)[j].con.Val.S >= s })
	}
	*ps = append(*ps, posting{})
	copy((*ps)[i+1:], (*ps)[i:])
	(*ps)[i] = p
}

// removePosting deletes the posting for exactly (p.con, p.fx); one
// instance only, so filters carrying duplicate constraints stay balanced.
func removePosting(ps *[]posting, kind int, p posting) bool {
	start := 0
	switch kind {
	case bucketNum:
		n, _ := p.con.Val.Num()
		start = sort.Search(len(*ps), func(j int) bool {
			m, _ := (*ps)[j].con.Val.Num()
			return m >= n
		})
	case bucketStr:
		s := p.con.Val.S
		start = sort.Search(len(*ps), func(j int) bool { return (*ps)[j].con.Val.S >= s })
	}
	for i := start; i < len(*ps); i++ {
		q := &(*ps)[i]
		switch kind {
		case bucketNum:
			n, _ := p.con.Val.Num()
			if m, _ := q.con.Val.Num(); m > n {
				return false
			}
		case bucketStr:
			if q.con.Val.S > p.con.Val.S {
				return false
			}
		}
		if q.fx == p.fx && q.con == p.con {
			*ps = append((*ps)[:i], (*ps)[i+1:]...)
			return true
		}
	}
	return false
}

// countTable is the per-match counting state of the algorithm: one
// counter per filter slot, validated by a stamp so no clear is paid
// between matches. The owner column records which filter a slot's count
// belongs to this match: Remove recycles slots, and should a visit
// callback ever change the index mid-match the owner check stops the new
// tenant from inheriting the previous tenant's partial count.
type countTable struct {
	counts []int
	owner  []*ixFilter
	stamps []uint64
	stamp  uint64
}

// begin opens a new match: all existing counts become stale at once.
func (t *countTable) begin() { t.stamp++ }

// bump records one satisfied constraint for fx and emits the filter once
// its count reaches the constraint total. Growth is lazy so the table
// tracks slot-space expansion without coordination.
func (t *countTable) bump(fx *ixFilter, visit func(string)) {
	s := fx.slot
	if s >= len(t.counts) {
		grown := make([]int, s+s/2+8)
		copy(grown, t.counts)
		t.counts = grown
		owner := make([]*ixFilter, len(grown))
		copy(owner, t.owner)
		t.owner = owner
		stamps := make([]uint64, len(grown))
		copy(stamps, t.stamps)
		t.stamps = stamps
	}
	if t.stamps[s] != t.stamp || t.owner[s] != fx {
		t.stamps[s] = t.stamp
		t.owner[s] = fx
		t.counts[s] = 0
	}
	t.counts[s]++
	if t.counts[s] == fx.total {
		visit(fx.key)
	}
}

// Index is the counting-algorithm predicate index over a broker's
// distinct subscription filters. Not safe for concurrent use: its one
// shipped caller, Broker.handlePub, runs on the actor loop.
type Index struct {
	filters map[string]*ixFilter
	attrs   map[string]*attrPostings
	// attrOrder keeps the indexed attribute names sorted, for
	// deterministic introspection (Attrs) and debugging.
	attrOrder []string
	// empties are zero-constraint filters: they match every event.
	empties []*ixFilter

	slots []*ixFilter
	free  []int
	ct    countTable
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

// Postings returns the total number of constraint postings.
func (ix *Index) Postings() int {
	n := 0
	for _, ap := range ix.attrs {
		n += ap.size()
	}
	return n
}

// AttrCount returns the number of attributes with live postings.
func (ix *Index) AttrCount() int { return len(ix.attrs) }

// Attrs returns the indexed attribute names in sorted order.
func (ix *Index) Attrs() []string {
	out := make([]string, len(ix.attrOrder))
	copy(out, ix.attrOrder)
	return out
}

// Add indexes f under key (its Filter.Key). Adding an existing key is a
// no-op, mirroring the broker's distinct-filter table.
func (ix *Index) Add(key string, f Filter) {
	if _, dup := ix.filters[key]; dup {
		return
	}
	fx := &ixFilter{key: key, filter: f, total: len(f.Constraints)}
	if n := len(ix.free); n > 0 {
		fx.slot = ix.free[n-1]
		ix.free = ix.free[:n-1]
		ix.slots[fx.slot] = fx
	} else {
		fx.slot = len(ix.slots)
		ix.slots = append(ix.slots, fx)
	}
	ix.filters[key] = fx
	if fx.total == 0 {
		ix.empties = append(ix.empties, fx)
		return
	}
	for _, c := range f.Constraints {
		ap := ix.attrs[c.Attr]
		if ap == nil {
			ap = &attrPostings{}
			ix.attrs[c.Attr] = ap
			i := sort.SearchStrings(ix.attrOrder, c.Attr)
			ix.attrOrder = append(ix.attrOrder, "")
			copy(ix.attrOrder[i+1:], ix.attrOrder[i:])
			ix.attrOrder[i] = c.Attr
		}
		ps, kind := ap.bucket(c)
		insertPosting(ps, kind, posting{con: c, fx: fx})
	}
}

// Remove drops the filter indexed under key. Unknown keys are a no-op.
func (ix *Index) Remove(key string) {
	fx := ix.filters[key]
	if fx == nil {
		return
	}
	delete(ix.filters, key)
	if fx.total == 0 {
		for i, e := range ix.empties {
			if e == fx {
				ix.empties = append(ix.empties[:i], ix.empties[i+1:]...)
				break
			}
		}
	} else {
		for _, c := range fx.filter.Constraints {
			ap := ix.attrs[c.Attr]
			if ap == nil {
				continue
			}
			ps, kind := ap.bucket(c)
			removePosting(ps, kind, posting{con: c, fx: fx})
			if ap.empty() {
				delete(ix.attrs, c.Attr)
				i := sort.SearchStrings(ix.attrOrder, c.Attr)
				if i < len(ix.attrOrder) && ix.attrOrder[i] == c.Attr {
					ix.attrOrder = append(ix.attrOrder[:i], ix.attrOrder[i+1:]...)
				}
			}
		}
	}
	ix.slots[fx.slot] = nil
	ix.free = append(ix.free, fx.slot)
}

// Match invokes visit exactly once for the key of every indexed filter
// the event satisfies. The visit order is unspecified.
func (ix *Index) Match(ev *event.Event, visit func(key string)) {
	ix.ct.begin()
	for _, fx := range ix.empties {
		visit(fx.key)
	}
	// Implicit envelope attributes first; they shadow Attrs entries of
	// the same name, exactly as Event.Get does.
	ix.matchAttr("type", event.S(ev.Type), visit)
	ix.matchAttr("source", event.S(ev.Source), visit)
	ix.matchAttr("time", event.I(int64(ev.Time)), visit)
	for name, v := range ev.Attrs {
		switch name {
		case "type", "source", "time":
			continue
		}
		ix.matchAttr(name, v, visit)
	}
}

func (ix *Index) matchAttr(name string, v event.Value, visit func(string)) {
	if ap := ix.attrs[name]; ap != nil {
		probeAttr(ap, v, &ix.ct, visit)
	}
}

// probeAttr runs one attribute's value against its postings, bumping the
// counting table for every satisfied constraint.
func probeAttr(ap *attrPostings, v event.Value, ct *countTable, visit func(string)) {
	for i := range ap.exists {
		ct.bump(ap.exists[i].fx, visit)
	}
	if n, ok := v.Num(); ok {
		if math.IsNaN(n) {
			// NaN compares as equal to everything under Value.Compare;
			// only direct evaluation reproduces that faithfully.
			scanBucket(ap.eqNum, v, ct, visit)
			scanBucket(ap.ltNum, v, ct, visit)
			scanBucket(ap.leNum, v, ct, visit)
			scanBucket(ap.gtNum, v, ct, visit)
			scanBucket(ap.geNum, v, ct, visit)
		} else {
			num := func(ps []posting, j int) float64 { m, _ := ps[j].con.Val.Num(); return m }
			// eq: postings whose value equals n. The float64 span is a
			// superset of the truly equal postings — Value.Equal compares
			// same-kind ints exactly, and distinct int64s beyond 2^53
			// collide in float64 — so each candidate is confirmed with
			// the constraint's own predicate.
			ps := ap.eqNum
			for i := sort.Search(len(ps), func(j int) bool { return num(ps, j) >= n }); i < len(ps) && num(ps, i) == n; i++ {
				if ps[i].con.Matches(v) {
					ct.bump(ps[i].fx, visit)
				}
			}
			// v < c.Val ⇔ c.Val > n: the suffix strictly above n.
			ps = ap.ltNum
			for i := sort.Search(len(ps), func(j int) bool { return num(ps, j) > n }); i < len(ps); i++ {
				ct.bump(ps[i].fx, visit)
			}
			// v ≤ c.Val: the suffix from n up.
			ps = ap.leNum
			for i := sort.Search(len(ps), func(j int) bool { return num(ps, j) >= n }); i < len(ps); i++ {
				ct.bump(ps[i].fx, visit)
			}
			// v > c.Val: the prefix strictly below n.
			ps = ap.gtNum
			for i, hi := 0, sort.Search(len(ps), func(j int) bool { return num(ps, j) >= n }); i < hi; i++ {
				ct.bump(ps[i].fx, visit)
			}
			// v ≥ c.Val: the prefix up to n.
			ps = ap.geNum
			for i, hi := 0, sort.Search(len(ps), func(j int) bool { return num(ps, j) > n }); i < hi; i++ {
				ct.bump(ps[i].fx, visit)
			}
		}
	} else if v.K == event.KindString {
		s := v.S
		ps := ap.eqStr
		// Both sides are strings: Constraint.Matches is struct equality.
		for i := sort.Search(len(ps), func(j int) bool { return ps[j].con.Val.S >= s }); i < len(ps) && ps[i].con.Val.S == s; i++ {
			if ps[i].con.Val == v {
				ct.bump(ps[i].fx, visit)
			}
		}
		ps = ap.ltStr
		for i := sort.Search(len(ps), func(j int) bool { return ps[j].con.Val.S > s }); i < len(ps); i++ {
			ct.bump(ps[i].fx, visit)
		}
		ps = ap.leStr
		for i := sort.Search(len(ps), func(j int) bool { return ps[j].con.Val.S >= s }); i < len(ps); i++ {
			ct.bump(ps[i].fx, visit)
		}
		ps = ap.gtStr
		for i, hi := 0, sort.Search(len(ps), func(j int) bool { return ps[j].con.Val.S >= s }); i < hi; i++ {
			ct.bump(ps[i].fx, visit)
		}
		ps = ap.geStr
		for i, hi := 0, sort.Search(len(ps), func(j int) bool { return ps[j].con.Val.S > s }); i < hi; i++ {
			ct.bump(ps[i].fx, visit)
		}
	}
	for i := range ap.misc {
		if ap.misc[i].con.Matches(v) {
			ct.bump(ap.misc[i].fx, visit)
		}
	}
}

// scanBucket is the binary-search bypass for degenerate values.
func scanBucket(ps []posting, v event.Value, ct *countTable, visit func(string)) {
	for i := range ps {
		if ps[i].con.Matches(v) {
			ct.bump(ps[i].fx, visit)
		}
	}
}
