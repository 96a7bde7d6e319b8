package plaxton

import (
	"slices"

	"github.com/gloss/active/internal/ids"
)

// leafSet maintains the L/2 numerically closest node IDs on each side of
// the local node on the identifier ring, per Pastry.
type leafSet struct {
	self ids.ID
	half int
	cw   []ids.ID // successors, sorted by clockwise distance from self
	ccw  []ids.ID // predecessors, sorted by counter-clockwise distance
	// all is the union members() hands out, rebuilt when a side changes:
	// routing asks once per step, the store several times per held object.
	all []ids.ID
}

func newLeafSet(self ids.ID, half int) *leafSet {
	return &leafSet{self: self, half: half}
}

// insert adds id to the leaf set if it belongs; reports whether membership
// changed.
func (l *leafSet) insert(id ids.ID) bool {
	if id == l.self {
		return false
	}
	changed := false
	if insertRanked(&l.cw, id, l.half, func(a, b ids.ID) bool {
		return ids.Less(ids.Sub(a, l.self), ids.Sub(b, l.self))
	}) {
		changed = true
	}
	if insertRanked(&l.ccw, id, l.half, func(a, b ids.ID) bool {
		return ids.Less(ids.Sub(l.self, a), ids.Sub(l.self, b))
	}) {
		changed = true
	}
	if changed {
		l.rebuild()
	}
	return changed
}

// insertRanked inserts id into the slice ordered by less, keeping at most
// max entries. Reports whether the slice changed. A full side turns away
// an id no closer than its last entry with that one comparison: every
// received frame offers its sender here.
func insertRanked(s *[]ids.ID, id ids.ID, max int, less func(a, b ids.ID) bool) bool {
	if n := len(*s); n > 0 && n >= max && !less(id, (*s)[n-1]) {
		return false
	}
	for _, x := range *s {
		if x == id {
			return false
		}
	}
	pos := len(*s)
	for i, x := range *s {
		if less(id, x) {
			pos = i
			break
		}
	}
	if pos >= max {
		return false
	}
	*s = append(*s, ids.Zero)
	copy((*s)[pos+1:], (*s)[pos:])
	(*s)[pos] = id
	if len(*s) > max {
		*s = (*s)[:max]
	}
	return true
}

// remove drops id from both sides; reports whether anything changed.
func (l *leafSet) remove(id ids.ID) bool {
	changed := false
	for _, side := range []*[]ids.ID{&l.cw, &l.ccw} {
		for i, x := range *side {
			if x == id {
				*side = append((*side)[:i], (*side)[i+1:]...)
				changed = true
				break
			}
		}
	}
	if changed {
		l.rebuild()
	}
	return changed
}

// members returns the union of both sides, deduplicated, in deterministic
// order (cw then ccw). The slice is shared: callers must not modify it.
func (l *leafSet) members() []ids.ID { return l.all }

// rebuild recomputes the union after a side changed. A fresh slice each
// time, so one handed out earlier keeps describing the set as it was.
func (l *leafSet) rebuild() {
	l.all = append(make([]ids.ID, 0, len(l.cw)+len(l.ccw)), l.cw...)
	for _, id := range l.ccw {
		if !slices.Contains(l.cw, id) {
			l.all = append(l.all, id)
		}
	}
}

// contains reports leaf membership.
func (l *leafSet) contains(id ids.ID) bool {
	for _, x := range l.cw {
		if x == id {
			return true
		}
	}
	for _, x := range l.ccw {
		if x == id {
			return true
		}
	}
	return false
}

// inRange reports whether key falls within the ring segment spanned by
// the leaf set (from the farthest predecessor to the farthest successor
// through self). With an empty side the segment degenerates and the local
// node is the best known root.
func (l *leafSet) inRange(key ids.ID) bool {
	if len(l.cw) == 0 || len(l.ccw) == 0 {
		return true
	}
	lo := l.ccw[len(l.ccw)-1] // farthest predecessor
	hi := l.cw[len(l.cw)-1]   // farthest successor
	// Segment (lo, hi] walking clockwise includes self.
	return key == lo || ids.Between(lo, key, hi)
}

// closest returns the member (or self) numerically closest to key on the
// ring, ties broken by smaller ID.
func (l *leafSet) closest(key ids.ID) ids.ID {
	best := l.self
	for _, id := range l.members() {
		if ids.Closer(key, id, best) {
			best = id
		}
	}
	return best
}
