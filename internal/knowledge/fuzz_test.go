package knowledge

import (
	"reflect"
	"testing"
	"time"

	"github.com/gloss/active/internal/causal"
)

func seedFacts() []Fact {
	return []Fact{
		{S: "bob", P: "likes", O: "ice cream"},
		{S: "bob", P: "on-holiday", O: "true", From: 20 * 24 * time.Hour, To: 27 * 24 * time.Hour},
	}
}

func FuzzDecodeVersionedFacts(f *testing.F) {
	var v causal.Versioned[[]Fact]
	v.Put("writer-a", seedFacts())
	var w causal.Versioned[[]Fact]
	w.Put("writer-b", []Fact{{S: "bob", P: "nationality", O: "scottish"}})
	v.Absorb(&w)
	enc := EncodeVersionedFacts(&v)
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	f.Add([]byte(`<facts><fact s="bob" p="likes" o="ice cream"></fact></facts>`))
	f.Add([]byte{'K', 'F', 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := DecodeVersionedFacts(data)
		if err != nil {
			return
		}
		if data[0] == '<' {
			t.Fatalf("accepted an XML body: %q", data)
		}
		// Accepted envelopes must re-encode/re-decode to the same state.
		enc := EncodeVersionedFacts(v)
		again, err := DecodeVersionedFacts(enc)
		if err != nil {
			t.Fatalf("re-decode own encoding: %v", err)
		}
		if !reflect.DeepEqual(v, again) {
			t.Fatalf("unstable round trip:\n%+v\n%+v", v, again)
		}
	})
}
