package knowledge

import (
	"fmt"
	"testing"
	"time"

	"github.com/gloss/active/internal/causal"
)

func benchKB(subjects, factsPer int) *KB {
	kb := NewKB()
	for s := 0; s < subjects; s++ {
		subj := fmt.Sprintf("user-%04d", s)
		for p := 0; p < factsPer; p++ {
			kb.Add(Fact{S: subj, P: fmt.Sprintf("pred-%d", p), O: "value"})
		}
	}
	return kb
}

// BenchmarkKBQueryWildcard measures the wildcard-subject query path with
// the cached sorted subject slice (the satellite fix) against the
// uncached behaviour it replaced (cache invalidated every iteration).
func BenchmarkKBQueryWildcard(b *testing.B) {
	for _, subjects := range []int{100, 1000} {
		kb := benchKB(subjects, 4)
		b.Run(fmt.Sprintf("cached/subjects=%d", subjects), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				kb.Query("", "pred-0", "", -1)
			}
		})
		b.Run(fmt.Sprintf("uncached/subjects=%d", subjects), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				kb.subjects = nil // simulate the pre-cache rebuild-per-call path
				kb.Query("", "pred-0", "", -1)
			}
		})
	}
}

// BenchmarkKnowledgeSync measures one publish+fetch serialisation cycle
// of the causal binary envelope, including sibling absorption and the
// default merge.
func BenchmarkKnowledgeSync(b *testing.B) {
	kb := benchKB(1, 16)
	facts := kb.SubjectFacts("user-0000")
	b.Run("causal-bin", func(b *testing.B) {
		b.ReportAllocs()
		var src causal.Versioned[[]Fact]
		src.Put("writer-a", facts)
		data := EncodeVersionedFacts(&src)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			remote, err := DecodeVersionedFacts(data)
			if err != nil {
				b.Fatal(err)
			}
			var local causal.Versioned[[]Fact]
			local.Absorb(remote)
			MergeFactSets(local.Values())
		}
	})
	b.Run("causal-bin-siblings", func(b *testing.B) {
		b.ReportAllocs()
		var a, c causal.Versioned[[]Fact]
		a.Put("writer-a", facts[:8])
		c.Put("writer-b", facts[8:])
		a.Absorb(&c)
		data := EncodeVersionedFacts(&a)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			remote, err := DecodeVersionedFacts(data)
			if err != nil {
				b.Fatal(err)
			}
			var local causal.Versioned[[]Fact]
			local.Absorb(remote)
			MergeFactSets(local.Values())
		}
	})
}

var sinkFacts []Fact

// BenchmarkMergeFactSets isolates the default sibling resolution.
func BenchmarkMergeFactSets(b *testing.B) {
	mk := func(n int, o string) []Fact {
		fs := make([]Fact, n)
		for i := range fs {
			fs[i] = Fact{S: "bob", P: fmt.Sprintf("pred-%d", i), O: o}
		}
		fs[0] = Fact{S: "bob", P: "location", O: o, From: time.Duration(n) * time.Hour, To: time.Duration(n+1) * time.Hour}
		return fs
	}
	sets := [][]Fact{mk(16, "a"), mk(16, "b"), mk(16, "c")}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkFacts = MergeFactSets(sets)
	}
}
