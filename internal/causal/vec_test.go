package causal

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// foldVec is the summary vector as Versioned.Vec computed it before it
// stopped cloning: the Merge fold over every sibling.
func foldVec[T any](v *Versioned[T]) Vec {
	var out Vec
	for _, s := range v.Sibs {
		out = Merge(out, s.Vec)
	}
	return out
}

func randomVec(rng *rand.Rand, writers []string) Vec {
	var v Vec
	for i := rng.Intn(5); i > 0; i-- {
		v = v.Increment(writers[rng.Intn(len(writers))])
	}
	return v
}

func TestVersionedVecMatchesMergeFold(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	writers := []string{"a", "b", "c", "d", "e"}
	for trial := 0; trial < 2000; trial++ {
		var v Versioned[int]
		for i := rng.Intn(6); i > 0; i-- {
			v.Sibs = append(v.Sibs, Sibling[int]{Vec: randomVec(rng, writers), Value: i})
		}
		got, want := v.Vec(), foldVec(&v)
		if Compare(got, want) != Equal || got.Key() != want.Key() {
			t.Fatalf("siblings %v: Vec() = %v, Merge fold = %v", v.Sibs, got, want)
		}
		if len(v.Sibs) > 1 && len(got) > 0 {
			got[writers[0]]++ // a fresh map: no sibling sees this
			for _, s := range v.Sibs {
				if reflect.ValueOf(s.Vec).Pointer() == reflect.ValueOf(got).Pointer() {
					t.Fatalf("Vec() of %d siblings aliases a sibling's vector", len(v.Sibs))
				}
			}
		}
	}
}

// TestVecHandedOutIsNeverWritten runs random Put/Absorb/Compact programs
// over a few replicas and checks after every step that each vector Vec
// has handed out still reads as it did when handed out.
func TestVecHandedOutIsNeverWritten(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	writers := []string{"a", "b", "c"}
	merge := func(vals []int) int {
		m := 0
		for _, x := range vals {
			m = max(m, x)
		}
		return m
	}
	type handed struct {
		vec  Vec
		snap Vec
	}
	for trial := 0; trial < 200; trial++ {
		reps := make([]Versioned[int], 3)
		var out []handed
		for step := 0; step < 40; step++ {
			r := &reps[rng.Intn(len(reps))]
			vec := r.Vec()
			out = append(out, handed{vec, vec.Clone()})
			switch rng.Intn(3) {
			case 0:
				r.Put(writers[rng.Intn(len(writers))], step)
			case 1:
				r.Absorb(&reps[rng.Intn(len(reps))])
			case 2:
				r.Compact(1+rng.Intn(2), merge)
			}
			for i, h := range out {
				if !reflect.DeepEqual(h.vec, h.snap) {
					t.Fatalf("trial %d step %d: vector %d handed out as %v now reads %v", trial, step, i, h.snap, h.vec)
				}
			}
		}
	}
}

var sinkVec Vec

func BenchmarkVersionedVec(b *testing.B) {
	for _, n := range []int{1, 3} {
		var v Versioned[int]
		for i := 0; i < n; i++ {
			var o Versioned[int]
			o.Put(fmt.Sprintf("writer-%d", i), i)
			o.Put("shared", i)
			v.Absorb(&o)
		}
		if len(v.Sibs) != n {
			b.Fatalf("built %d siblings, want %d", len(v.Sibs), n)
		}
		b.Run(fmt.Sprintf("siblings=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				sinkVec = v.Vec()
			}
		})
	}
}
