package causal

// Sibling is one line of an object's history: a value together with the
// version vector that produced it.
type Sibling[T any] struct {
	Vec   Vec
	Value T
}

// Versioned is a causally versioned replicated object. It always holds
// at least one sibling once written; more than one means concurrent
// writers updated it from split histories and the application has not
// yet resolved the conflict (its reader merges the sibling values).
//
// Invariants maintained by Put/Absorb: sibling vectors are pairwise
// Concurrent (no sibling dominates or equals another), and siblings are
// kept in deterministic order (sorted by Vec.Key), so two replicas that
// absorbed the same histories hold byte-identical state.
type Versioned[T any] struct {
	Sibs []Sibling[T]
}

// Vec returns the object's summary vector: the merge of every sibling's
// vector — what this replica has seen, regardless of conflicts. With one
// sibling it is that sibling's own vector, not a copy, so it is
// read-only: nothing here writes a vector in place (Increment and Merge
// return fresh ones), and a caller must not either. Several siblings
// merge into one fresh map.
func (v *Versioned[T]) Vec() Vec {
	if len(v.Sibs) == 1 {
		return v.Sibs[0].Vec
	}
	var out Vec
	for _, s := range v.Sibs {
		for w, n := range s.Vec {
			if n > out[w] {
				if out == nil {
					out = make(Vec, len(s.Vec))
				}
				out[w] = n
			}
		}
	}
	return out
}

// Put records a local write by writer: the new version descends from
// everything seen so far (including all current siblings), so the write
// collapses any sibling set into a single resolved line of history.
// Callers resolve the sibling values into val BEFORE putting (read the
// merged view, modify, write back).
func (v *Versioned[T]) Put(writer string, val T) {
	vec := v.Vec().Increment(writer)
	v.Sibs = []Sibling[T]{{Vec: vec, Value: val}}
}

// Absorb merges a remote replica's state into v and reports whether v
// changed. Dominated or duplicate histories are dropped on both sides;
// genuinely concurrent ones accumulate as siblings.
func (v *Versioned[T]) Absorb(o *Versioned[T]) bool {
	if o == nil || len(o.Sibs) == 0 {
		return false
	}
	before := make([]string, len(v.Sibs))
	for i, s := range v.Sibs {
		before[i] = s.Vec.Key()
	}
	all := append(append([]Sibling[T]{}, v.Sibs...), o.Sibs...)
	v.Sibs = maximalSiblings(all)
	if len(v.Sibs) != len(before) {
		return true
	}
	for i, s := range v.Sibs {
		if s.Vec.Key() != before[i] {
			return true
		}
	}
	return false
}

// maximalSiblings keeps only the maximal elements of the causal partial
// order, deduplicates equal histories, and sorts deterministically.
func maximalSiblings[T any](all []Sibling[T]) []Sibling[T] {
	var keep []Sibling[T]
	for i, c := range all {
		alive := true
		for j, o := range all {
			if i == j {
				continue
			}
			switch Compare(c.Vec, o.Vec) {
			case Dominated:
				alive = false
			case Equal:
				// Duplicate history: keep the first occurrence only.
				if j < i {
					alive = false
				}
			}
			if !alive {
				break
			}
		}
		if alive {
			keep = append(keep, c)
		}
	}
	sortSiblings(keep)
	return keep
}

func sortSiblings[T any](sibs []Sibling[T]) {
	for i := 1; i < len(sibs); i++ {
		for j := i; j > 0 && sibs[j].Vec.Key() < sibs[j-1].Vec.Key(); j-- {
			sibs[j], sibs[j-1] = sibs[j-1], sibs[j]
		}
	}
}

// Compact enforces a sibling cap: when more than cap concurrent
// histories accumulate, they are collapsed into a single sibling whose
// vector is the merge of all of them and whose value is merge over the
// sibling values. This trades a sliver of causality (a yet-unseen
// sibling dominated by the merged vector will be discarded on a later
// Absorb) for bounded state — the classic Riak sibling-explosion valve.
// Reports whether a collapse happened.
func (v *Versioned[T]) Compact(cap int, merge func(vals []T) T) bool {
	if cap <= 0 || len(v.Sibs) <= cap || merge == nil {
		return false
	}
	vals := make([]T, len(v.Sibs))
	for i, s := range v.Sibs {
		vals[i] = s.Value
	}
	v.Sibs = []Sibling[T]{{Vec: v.Vec(), Value: merge(vals)}}
	return true
}

// Values returns the sibling values in deterministic sibling order.
func (v *Versioned[T]) Values() []T {
	out := make([]T, len(v.Sibs))
	for i, s := range v.Sibs {
		out[i] = s.Value
	}
	return out
}
