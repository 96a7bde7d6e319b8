package causal

import (
	"maps"
	"slices"
	"strings"
	"testing"
)

// Small-scope exhaustive checks: every vector over the writers a, b and c
// with counters 0–2, each writer absent or present — present with 0 too,
// the explicit zero a hand-built or merged vector may carry and a
// comparison that reads map entries instead of counters gets wrong — plus
// nil. Bugs in version vectors (a missing key read as "behind", Equal
// folded into Concurrent, a merge that aliases its input) show on vectors
// this small.

var smallWriters = []string{"a", "b", "c"}

// smallVecs enumerates the scope: 4 states per writer (absent, 0, 1, 2),
// 64 vectors, and nil.
func smallVecs() []Vec {
	out := []Vec{nil}
	for code := 0; code < 64; code++ {
		v := Vec{}
		for i, w := range smallWriters {
			if s := code >> (2 * i) & 3; s > 0 {
				v[w] = uint64(s - 1)
			}
		}
		out = append(out, v)
	}
	return out
}

// pointwise is the oracle: Compare read off counter by counter, an absent
// writer counting zero.
func pointwise(a, b Vec) Order {
	le, ge := true, true
	for _, w := range smallWriters {
		switch {
		case a[w] < b[w]:
			ge = false
		case a[w] > b[w]:
			le = false
		}
	}
	switch {
	case le && ge:
		return Equal
	case ge:
		return Descends
	case le:
		return Dominated
	}
	return Concurrent
}

// sameCounters reports whether a and b hold the same counter for every
// writer in scope, explicit zeros equal to absent ones.
func sameCounters(a, b Vec) bool { return pointwise(a, b) == Equal }

func mirror(o Order) Order {
	switch o {
	case Descends:
		return Dominated
	case Dominated:
		return Descends
	}
	return o
}

func TestCompareExhaustive(t *testing.T) {
	vecs := smallVecs()
	seen := map[Order]int{}
	for _, a := range vecs {
		for _, b := range vecs {
			got, want := Compare(a, b), pointwise(a, b)
			if got != want {
				t.Fatalf("Compare(%v, %v) = %v, pointwise %v", a, b, got, want)
			}
			if back := Compare(b, a); back != mirror(got) {
				t.Fatalf("Compare(%v, %v) = %v but Compare(%v, %v) = %v", a, b, got, b, a, back)
			}
			seen[got]++
		}
	}
	for _, o := range []Order{Equal, Descends, Dominated, Concurrent} {
		if seen[o] == 0 {
			t.Errorf("no pair in scope compares %v", o)
		}
	}
}

func TestMergeExhaustive(t *testing.T) {
	vecs := smallVecs()
	for _, a := range vecs {
		if m := Merge(a, a); !sameCounters(m, a) {
			t.Fatalf("Merge(%v, %v) = %v: not idempotent", a, a, m)
		}
		for _, b := range vecs {
			a0, b0 := a.Clone(), b.Clone()
			ab, ba := Merge(a, b), Merge(b, a)
			if !sameCounters(ab, ba) {
				t.Fatalf("Merge(%v, %v) = %v, Merge(%v, %v) = %v: not commutative", a, b, ab, b, a, ba)
			}
			for _, w := range smallWriters {
				if ab[w] != max(a[w], b[w]) {
					t.Fatalf("Merge(%v, %v) = %v: %s is %d, want the larger of %d and %d", a, b, ab, w, ab[w], a[w], b[w])
				}
			}
			if o := Compare(ab, a); o != Equal && o != Descends {
				t.Fatalf("Merge(%v, %v) = %v is %v its first input", a, b, ab, o)
			}
			if o := Compare(ab, b); o != Equal && o != Descends {
				t.Fatalf("Merge(%v, %v) = %v is %v its second input", a, b, ab, o)
			}
			// The result is the caller's: writing it must not reach an input.
			if ab != nil {
				for _, w := range smallWriters {
					ab[w] += 10
				}
			}
			if !maps.Equal(a, a0) || !maps.Equal(b, b0) {
				t.Fatalf("Merge(%v, %v) aliases an input: %v, %v after writing the result", a0, b0, a, b)
			}
		}
	}
}

func TestMergeAssociativeExhaustive(t *testing.T) {
	vecs := smallVecs()
	for _, a := range vecs {
		for _, b := range vecs {
			ab := Merge(a, b)
			for _, c := range vecs {
				left, right := Merge(ab, c), Merge(a, Merge(b, c))
				if !sameCounters(left, right) {
					t.Fatalf("Merge(Merge(%v, %v), %v) = %v, Merge(%v, Merge(%v, %v)) = %v", a, b, c, left, a, b, c, right)
				}
			}
		}
	}
}

// smallObjects builds every Versioned in scope with one or two siblings:
// a sibling per vector without explicit zeros, and a pair per two
// concurrent ones. A sibling's value is its vector's text, so equal
// histories carry equal values, as they do between real replicas.
func smallObjects() (singles, all []*Versioned[string]) {
	var vecs []Vec
	for _, v := range smallVecs() {
		explicitZero := false
		for _, n := range v {
			explicitZero = explicitZero || n == 0
		}
		if !explicitZero {
			vecs = append(vecs, v)
		}
	}
	sib := func(v Vec) Sibling[string] { return Sibling[string]{Vec: v, Value: v.String()} }
	for _, v := range vecs {
		singles = append(singles, &Versioned[string]{Sibs: []Sibling[string]{sib(v)}})
	}
	all = append(all, singles...)
	for i, a := range vecs {
		for _, b := range vecs[i+1:] {
			if Compare(a, b) == Concurrent {
				o := &Versioned[string]{Sibs: []Sibling[string]{sib(a), sib(b)}}
				sortSiblings(o.Sibs)
				all = append(all, o)
			}
		}
	}
	return singles, all
}

// maximal is Absorb's oracle: the distinct vectors of the union that no
// other vector of it dominates, as sorted keys.
func maximal(objs ...*Versioned[string]) []string {
	var vecs []Vec
	for _, o := range objs {
		for _, s := range o.Sibs {
			vecs = append(vecs, s.Vec)
		}
	}
	var keys []string
	for _, v := range vecs {
		top := true
		for _, o := range vecs {
			top = top && Compare(v, o) != Dominated
		}
		if k := v.Key(); top && !slices.Contains(keys, k) {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys
}

// state renders an object exactly: sibling order, vectors and values.
func state(v *Versioned[string]) string {
	var sb strings.Builder
	for _, sib := range v.Sibs {
		sb.WriteString(sib.Vec.Key())
		sb.WriteByte('=')
		sb.WriteString(sib.Value)
		sb.WriteByte(';')
	}
	return sb.String()
}

func keysOf(v *Versioned[string]) []string {
	var keys []string
	for _, s := range v.Sibs {
		keys = append(keys, s.Vec.Key())
	}
	return keys
}

// absorbAll absorbs objs, in order, into a fresh object.
func absorbAll(objs ...*Versioned[string]) *Versioned[string] {
	v := &Versioned[string]{}
	for _, o := range objs {
		v.Absorb(o)
	}
	return v
}

func TestAbsorbExhaustive(t *testing.T) {
	singles, all := smallObjects()
	// Each check covers both orders (all six for three), so every
	// unordered pair and triple is visited once.
	for i, x := range all {
		for _, y := range all[i:] {
			xy, yx := absorbAll(x, y), absorbAll(y, x)
			if state(xy) != state(yx) {
				t.Fatalf("absorbing %s then %s gives %s, the other order %s", state(x), state(y), state(xy), state(yx))
			}
			if want := maximal(x, y); !slices.Equal(keysOf(xy), want) {
				t.Fatalf("absorbing %s and %s gives %s, want the maximal histories %q", state(x), state(y), state(xy), want)
			}
			before := state(xy)
			for _, again := range []*Versioned[string]{x, y, xy} {
				if xy.Absorb(again) || state(xy) != before {
					t.Fatalf("absorbing %s again into %s changed it to %s", state(again), before, state(xy))
				}
			}
		}
	}
	for i, x := range singles {
		for j, y := range singles[i:] {
			for _, z := range singles[i+j:] {
				xyz := absorbAll(x, y, z)
				want := state(xyz)
				for _, order := range [][]*Versioned[string]{{x, z, y}, {y, x, z}, {y, z, x}, {z, x, y}, {z, y, x}} {
					if got := state(absorbAll(order...)); got != want {
						t.Fatalf("absorbing %s, %s, %s in another order gives %s, want %s", state(order[0]), state(order[1]), state(order[2]), got, want)
					}
				}
				if got := keysOf(xyz); !slices.Equal(got, maximal(x, y, z)) {
					t.Fatalf("absorbing %s, %s, %s keeps %q, want %q", state(x), state(y), state(z), got, maximal(x, y, z))
				}
			}
		}
	}
}

// antichains enumerates every sibling set in scope: each set of pairwise
// concurrent vectors over the writers a, b and c with counters 0–2 (no
// explicit zeros, as Put and Absorb never make one), the empty set and
// the singletons included.
func antichains() [][]Vec {
	var vecs []Vec
	for code := 0; code < 27; code++ {
		v := Vec{}
		for i, n := 0, code; i < len(smallWriters); i, n = i+1, n/3 {
			if n%3 > 0 {
				v[smallWriters[i]] = uint64(n % 3)
			}
		}
		vecs = append(vecs, v)
	}
	var out [][]Vec
	var grow func(start int, cur []Vec)
	grow = func(start int, cur []Vec) {
		out = append(out, cur)
		for i := start; i < len(vecs); i++ {
			free := true
			for _, c := range cur {
				free = free && Compare(c, vecs[i]) == Concurrent
			}
			if free {
				grow(i+1, append(cur[:len(cur):len(cur)], vecs[i]))
			}
		}
	}
	grow(0, nil)
	return out
}

func TestCompactExhaustive(t *testing.T) {
	sets := antichains()
	// The antichains of the 3×3×3 grid are the plane partitions in a
	// 3×3×3 box: MacMahon's formula gives 980.
	if len(sets) != 980 {
		t.Fatalf("%d sibling sets in scope, want 980", len(sets))
	}
	for _, set := range sets {
		if len(set) < 2 {
			continue
		}
		v := &Versioned[string]{}
		var want Vec
		for _, vec := range set {
			v.Absorb(&Versioned[string]{Sibs: []Sibling[string]{{Vec: vec, Value: vec.String()}}})
			want = Merge(want, vec)
		}
		before, vals := state(v), v.Values()
		if v.Compact(len(set), func([]string) string { return "" }) || state(v) != before {
			t.Fatalf("compacting %s at its own size changed it to %s", before, state(v))
		}
		var seen []string
		merge := func(vals []string) string {
			seen = append(seen, vals...)
			return "merged"
		}
		if !v.Compact(1, merge) {
			t.Fatalf("compacting %s at cap 1 did nothing", before)
		}
		if len(v.Sibs) != 1 || v.Sibs[0].Value != "merged" {
			t.Fatalf("compacting %s gave %s", before, state(v))
		}
		got := v.Sibs[0].Vec
		for _, w := range smallWriters {
			if got[w] != want[w] {
				t.Fatalf("compacting %s: vector %v, want the pointwise max %v", before, got, want)
			}
		}
		if !slices.Equal(seen, vals) {
			t.Fatalf("compacting %s: merge saw %q, want every sibling's value", before, seen)
		}
		after := state(v)
		for _, vec := range set {
			if o := Compare(got, vec); o != Descends {
				t.Fatalf("compacted vector %v is %v input %v", got, o, vec)
			}
			if v.Absorb(&Versioned[string]{Sibs: []Sibling[string]{{Vec: vec, Value: vec.String()}}}) || state(v) != after {
				t.Fatalf("absorbing input %v after compacting %s changed %s to %s", vec, before, after, state(v))
			}
		}
	}
}
