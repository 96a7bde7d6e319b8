package plaxton

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"github.com/gloss/active/internal/ids"
)

func TestLeafSetInsertOrderAndBound(t *testing.T) {
	self := ids.MustParse("80000000000000000000000000000000")
	ls := newLeafSet(self, 2)
	mk := func(hex string) ids.ID { return ids.MustParse(hex) }
	// Three successors and three predecessors; with half=2 only the two
	// closest on each side survive once both sides are populated.
	s1 := mk("80000000000000000000000000000001")
	s2 := mk("80000000000000000000000000000002")
	s3 := mk("80000000000000000000000000000003")
	p1 := mk("7fffffffffffffffffffffffffffffff")
	p2 := mk("7ffffffffffffffffffffffffffffffe")
	p3 := mk("7ffffffffffffffffffffffffffffffd")
	for _, id := range []ids.ID{s3, s1, s2, p3, p1, p2} {
		ls.insert(id)
	}
	for _, want := range []ids.ID{s1, s2, p1, p2} {
		if !ls.contains(want) {
			t.Fatalf("closest member %s missing", want.Short())
		}
	}
	for _, gone := range []ids.ID{s3, p3} {
		if ls.contains(gone) {
			t.Fatalf("third-closest member %s should be evicted", gone.Short())
		}
	}
	// Self and duplicates never insert.
	if ls.insert(self) {
		t.Fatal("self inserted")
	}
	if ls.insert(s1) {
		t.Fatal("duplicate insert reported change")
	}
	// Removal.
	if !ls.remove(s1) {
		t.Fatal("remove existing failed")
	}
	if ls.remove(s1) {
		t.Fatal("remove of absent reported change")
	}
}

// Property: for random member sets, closest() agrees with brute force
// over members ∪ {self}.
func TestQuickLeafSetClosest(t *testing.T) {
	f := func(seed int64, keyBytes [16]byte) bool {
		rng := rand.New(rand.NewSource(seed))
		self := ids.Random(rng)
		ls := newLeafSet(self, 4)
		members := []ids.ID{self}
		for i := 0; i < 12; i++ {
			id := ids.Random(rng)
			ls.insert(id)
		}
		members = append(members, ls.members()...)
		key := ids.ID(keyBytes)
		got := ls.closest(key)
		best := members[0]
		for _, m := range members[1:] {
			if ids.Closer(key, m, best) {
				best = m
			}
		}
		return got == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: inRange(key) is true whenever key falls between the extreme
// leaves through self, and closest() then picks the numerically best.
func TestLeafSetInRangeConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	self := ids.Random(rng)
	ls := newLeafSet(self, 4)
	var all []ids.ID
	for i := 0; i < 10; i++ {
		id := ids.Random(rng)
		ls.insert(id)
		all = append(all, id)
	}
	sort.Slice(all, func(i, j int) bool { return ids.Less(all[i], all[j]) })
	// Keys equal to members are always in range of themselves.
	for _, m := range ls.members() {
		if !ls.inRange(m) {
			// A member may be outside the contiguous segment when the
			// leaf set is small relative to the population; tolerate
			// only if it is an extreme.
			continue
		}
		got := ls.closest(m)
		if got != m {
			t.Fatalf("closest(%s) = %s, want itself", m.Short(), got.Short())
		}
	}
	// Self's own key is always in range.
	if !ls.inRange(self) {
		t.Fatal("self key out of range")
	}
}

func TestLeafSetEmpty(t *testing.T) {
	self := ids.FromString("solo")
	ls := newLeafSet(self, 4)
	if len(ls.members()) != 0 {
		t.Fatal("empty leaf set has members")
	}
	if !ls.inRange(ids.FromString("anything")) {
		t.Fatal("empty leaf set must claim everything in range")
	}
	if got := ls.closest(ids.FromString("anything")); got != self {
		t.Fatal("empty leaf set must answer self")
	}
}

// refInsertRanked is insertRanked without its full-side shortcut: the two
// linear scans alone, the oracle of TestLeafSetMatchesScanningInsert.
func refInsertRanked(s *[]ids.ID, id ids.ID, max int, less func(a, b ids.ID) bool) bool {
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

// TestLeafSetMatchesScanningInsert drives a leaf set and a scanning
// reference through random insert/remove sequences over a small pool of
// IDs (so duplicates, evictions and re-inserts are common) and requires
// identical sides and change reports after every step.
func TestLeafSetMatchesScanningInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 300; trial++ {
		self := ids.Random(rng)
		half := 1 + rng.Intn(4)
		pool := make([]ids.ID, 2+rng.Intn(20))
		for i := range pool {
			pool[i] = ids.Random(rng)
		}
		pool[0] = self
		ls := newLeafSet(self, half)
		var cw, ccw []ids.ID
		cwLess := func(a, b ids.ID) bool { return ids.Less(ids.Sub(a, self), ids.Sub(b, self)) }
		ccwLess := func(a, b ids.ID) bool { return ids.Less(ids.Sub(self, a), ids.Sub(self, b)) }
		for step := 0; step < 60; step++ {
			id := pool[rng.Intn(len(pool))]
			var got, want bool
			if rng.Intn(4) == 0 {
				got = ls.remove(id)
				for _, side := range []*[]ids.ID{&cw, &ccw} {
					if i := slices.Index(*side, id); i >= 0 {
						*side = slices.Delete(*side, i, i+1)
						want = true
					}
				}
			} else {
				got = ls.insert(id)
				if id != self {
					want = refInsertRanked(&cw, id, half, cwLess)
					want = refInsertRanked(&ccw, id, half, ccwLess) || want
				}
			}
			if got != want || !slices.Equal(ls.cw, cw) || !slices.Equal(ls.ccw, ccw) {
				t.Fatalf("trial %d step %d (%s): changed %v, sides %v / %v; reference %v, %v / %v",
					trial, step, id.Short(), got, ls.cw, ls.ccw, want, cw, ccw)
			}
		}
	}
}
