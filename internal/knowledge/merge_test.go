package knowledge

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/gloss/active/internal/causal"
)

// smallFactSets draws n fact sets from a small universe: subjects a and
// b, predicates p and q, objects x and y, each always valid or valid over
// one of four intervals, so equal (S, P) slots and equal From or To
// collide often.
func smallFactSets(rng *rand.Rand, n int) [][]Fact {
	spans := [][2]time.Duration{{0, 0}, {0, 2}, {1, 2}, {1, 3}, {2, 3}}
	var universe []Fact
	for _, s := range []string{"a", "b"} {
		for _, p := range []string{"p", "q"} {
			for _, o := range []string{"x", "y"} {
				for _, sp := range spans {
					universe = append(universe, Fact{S: s, P: p, O: o, From: sp[0], To: sp[1]})
				}
			}
		}
	}
	sets := make([][]Fact, n)
	for i := range sets {
		for k := rng.Intn(7); k > 0; k-- {
			sets[i] = append(sets[i], universe[rng.Intn(len(universe))])
		}
	}
	return sets
}

// mergeOracle is MergeFactSets written from its contract: the union of
// the always-valid facts, plus per (S, P) the timed fact greatest by
// (From, To, O).
func mergeOracle(sets ...[]Fact) []Fact {
	var out []Fact
	best := map[[2]string]Fact{}
	for _, set := range sets {
		for _, f := range set {
			if f.From == 0 && f.To == 0 {
				out = append(out, f)
				continue
			}
			k := [2]string{f.S, f.P}
			cur, ok := best[k]
			if !ok || f.From > cur.From || f.From == cur.From && (f.To > cur.To || f.To == cur.To && f.O > cur.O) {
				best[k] = f
			}
		}
	}
	for _, f := range best {
		out = append(out, f)
	}
	sortFacts(out)
	return slices.Compact(out) // the union's duplicates, adjacent once sorted
}

func sameFacts(a, b []Fact) bool { return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b)) }

func TestMergeFactSetsAlgebra(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	sets := smallFactSets(rng, 40)
	merge := func(sets ...[]Fact) []Fact { return MergeFactSets(sets) }
	for _, a := range sets {
		if got, want := merge(a), mergeOracle(a); !sameFacts(got, want) {
			t.Fatalf("merge(%v) = %v, oracle %v", a, got, want)
		}
		if got := merge(a, a); !sameFacts(got, merge(a)) {
			t.Fatalf("merge(%v, itself) = %v: not idempotent", a, got)
		}
		if got := merge(merge(a)); !sameFacts(got, merge(a)) {
			t.Fatalf("merge(merge(%v)) = %v: not idempotent", a, got)
		}
		for _, b := range sets {
			ab := merge(a, b)
			if want := mergeOracle(a, b); !sameFacts(ab, want) {
				t.Fatalf("merge(%v, %v) = %v, oracle %v", a, b, ab, want)
			}
			if ba := merge(b, a); !sameFacts(ab, ba) {
				t.Fatalf("merge(%v, %v) = %v, reversed %v: not commutative", a, b, ab, ba)
			}
			for _, c := range sets {
				left, right := merge(ab, c), merge(a, merge(b, c))
				if !sameFacts(left, right) || !sameFacts(left, merge(a, b, c)) {
					t.Fatalf("merge(merge(%v, %v), %v) = %v, merge(%v, merge(%v, %v)) = %v: not associative", a, b, c, left, a, b, c, right)
				}
			}
		}
	}
}

// TestMergeFactSetsThroughCompaction: concurrent writers' sets reach a
// replica in every order, compacted at every cap after each absorb as the
// Syncer does, and the replica's resolved facts are the oracle's.
func TestMergeFactSetsThroughCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	perms := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}}
	for trial := 0; trial < 50; trial++ {
		sets := smallFactSets(rng, 4)
		writes := make([]*causal.Versioned[[]Fact], len(sets))
		for i, set := range sets {
			writes[i] = &causal.Versioned[[]Fact]{}
			writes[i].Put(fmt.Sprintf("w%d", i), set)
		}
		want := mergeOracle(sets...)
		for _, perm := range perms {
			for siblingCap := 1; siblingCap <= len(sets); siblingCap++ {
				v := &causal.Versioned[[]Fact]{}
				for _, i := range perm {
					v.Absorb(writes[i])
					v.Compact(siblingCap, MergeFactSets)
				}
				if got := MergeFactSets(v.Values()); !sameFacts(got, want) {
					t.Fatalf("sets %v in order %v at cap %d resolve to %v, oracle %v", sets, perm, siblingCap, got, want)
				}
			}
		}
	}
}
