package ids

import (
	"math/rand"
	"testing"
)

// The byte-at-a-time ring arithmetic the two-word versions replaced,
// kept as the oracle they must agree with.

func refCmp(a, b ID) int {
	for i := 0; i < Size; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

func refAdd(a, b ID) ID {
	var out ID
	var carry uint16
	for i := Size - 1; i >= 0; i-- {
		s := uint16(a[i]) + uint16(b[i]) + carry
		out[i] = byte(s)
		carry = s >> 8
	}
	return out
}

func refSub(a, b ID) ID {
	var out ID
	var borrow int16
	for i := Size - 1; i >= 0; i-- {
		d := int16(a[i]) - int16(b[i]) - borrow
		if d < 0 {
			d += 256
			borrow = 1
		} else {
			borrow = 0
		}
		out[i] = byte(d)
	}
	return out
}

func refRingDistance(a, b ID) ID {
	d1, d2 := refSub(a, b), refSub(b, a)
	if refCmp(d1, d2) < 0 {
		return d1
	}
	return d2
}

func refBetween(a, x, b ID) bool {
	if a == b {
		return x != a
	}
	if refCmp(a, b) < 0 {
		return refCmp(a, x) < 0 && refCmp(x, b) <= 0
	}
	return refCmp(a, x) < 0 || refCmp(x, b) <= 0
}

func refCloser(target, a, b ID) bool {
	da, db := refRingDistance(a, target), refRingDistance(b, target)
	if c := refCmp(da, db); c != 0 {
		return c < 0
	}
	return refCmp(a, b) < 0
}

// checkRingMath compares every ring operation on (a, b, x) with its
// byte-loop oracle.
func checkRingMath(t *testing.T, a, b, x ID) {
	t.Helper()
	if got, want := Cmp(a, b), refCmp(a, b); got != want {
		t.Fatalf("Cmp(%v, %v) = %d, want %d", a, b, got, want)
	}
	if got, want := Less(a, b), refCmp(a, b) < 0; got != want {
		t.Fatalf("Less(%v, %v) = %v, want %v", a, b, got, want)
	}
	if got, want := Add(a, b), refAdd(a, b); got != want {
		t.Fatalf("Add(%v, %v) = %v, want %v", a, b, got, want)
	}
	if got, want := Sub(a, b), refSub(a, b); got != want {
		t.Fatalf("Sub(%v, %v) = %v, want %v", a, b, got, want)
	}
	if got, want := RingDistance(a, b), refRingDistance(a, b); got != want {
		t.Fatalf("RingDistance(%v, %v) = %v, want %v", a, b, got, want)
	}
	if got, want := Between(a, x, b), refBetween(a, x, b); got != want {
		t.Fatalf("Between(%v, %v, %v) = %v, want %v", a, x, b, got, want)
	}
	if got, want := Closer(x, a, b), refCloser(x, a, b); got != want {
		t.Fatalf("Closer(%v, %v, %v) = %v, want %v", x, a, b, got, want)
	}
}

// ringEdges are the values where a word boundary, a carry or a tie is
// most likely to go wrong.
func ringEdges() []ID {
	edges := []string{
		"00000000000000000000000000000000",
		"00000000000000000000000000000001",
		"0000000000000000ffffffffffffffff", // 2^64-1
		"00000000000000010000000000000000", // 2^64
		"00000000000000010000000000000001", // 2^64+1
		"7fffffffffffffffffffffffffffffff",
		"80000000000000000000000000000000", // 2^127: antipodal to 0
		"80000000000000000000000000000001",
		"ffffffffffffffff0000000000000000",
		"fffffffffffffffffffffffffffffffe",
		"ffffffffffffffffffffffffffffffff", // 2^128-1
	}
	out := make([]ID, len(edges))
	for i, s := range edges {
		out[i] = MustParse(s)
	}
	return out
}

func TestRingMathMatchesByteLoops(t *testing.T) {
	edges := ringEdges()
	for _, a := range edges {
		for _, b := range edges {
			for _, x := range edges {
				checkRingMath(t, a, b, x)
			}
		}
	}
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 20000; i++ {
		a, b, x := Random(rng), Random(rng), Random(rng)
		switch i % 4 {
		case 1: // a and b antipodal, x halfway between: both distances tie
			b = Add(a, MustParse("80000000000000000000000000000000"))
			x = Add(a, MustParse("40000000000000000000000000000000"))
		case 2: // equidistant pair around x
			d := Random(rng)
			a, b = Add(x, d), Sub(x, d)
		case 3: // shared high word, so only the low word decides
			copy(b[:8], a[:8])
			copy(x[:8], a[:8])
		}
		checkRingMath(t, a, b, x)
	}
}

func FuzzRingMath(f *testing.F) {
	edges := ringEdges()
	for i, e := range edges {
		f.Add(e[:], edges[(i+1)%len(edges)][:], edges[6][:]) // 2^127 as the target
	}
	f.Fuzz(func(t *testing.T, ra, rb, rx []byte) {
		var a, b, x ID
		copy(a[:], ra)
		copy(b[:], rb)
		copy(x[:], rx)
		checkRingMath(t, a, b, x)
	})
}

var sinkBool bool

func BenchmarkCloser(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var pts [64]ID
	for i := range pts {
		pts[i] = Random(rng)
	}
	b.Run("words", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			sinkBool = Closer(pts[i%64], pts[(i+1)%64], pts[(i+2)%64])
		}
	})
	b.Run("bytes", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			sinkBool = refCloser(pts[i%64], pts[(i+1)%64], pts[(i+2)%64])
		}
	})
}
