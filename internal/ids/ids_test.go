package ids

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFromBytesDeterministic(t *testing.T) {
	a := FromBytes([]byte("hello"))
	b := FromBytes([]byte("hello"))
	if a != b {
		t.Fatalf("FromBytes not deterministic: %v vs %v", a, b)
	}
	c := FromBytes([]byte("world"))
	if a == c {
		t.Fatalf("distinct content produced equal GUIDs")
	}
}

func TestParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		id := Random(rng)
		got, err := Parse(id.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", id.String(), err)
		}
		if got != id {
			t.Fatalf("round trip mismatch: %v != %v", got, id)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{"", "abc", "zz" + MustParse("00000000000000000000000000000000").String()[2:]}
	for _, s := range cases {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q): want error, got nil", s)
		}
	}
}

// TestTextForm: an ID's text form is its String, UnmarshalText reads it
// back, and a malformed text leaves the ID as it was.
func TestTextForm(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		id := Random(rng)
		text, err := id.MarshalText()
		if err != nil || string(text) != id.String() {
			t.Fatalf("MarshalText(%v) = %q, %v; want the String form", id, text, err)
		}
		var back ID
		if err := back.UnmarshalText(text); err != nil || back != id {
			t.Fatalf("UnmarshalText(%q) = %v, %v; want %v", text, back, err, id)
		}
		keep := back
		if err := back.UnmarshalText(append(text[:Digits-1:Digits-1], 'g')); err == nil || back != keep {
			t.Fatalf("malformed text: err %v, id %v; want an error and %v", err, back, keep)
		}
	}
}

func TestDigitWithDigit(t *testing.T) {
	id := MustParse("0123456789abcdef0123456789abcdef")
	for i := 0; i < Digits; i++ {
		want := byte((i % 16))
		if got := id.Digit(i); got != want {
			t.Fatalf("Digit(%d) = %x, want %x", i, got, want)
		}
	}
	id2 := id.WithDigit(0, 0xf)
	if id2.Digit(0) != 0xf {
		t.Fatalf("WithDigit(0, f): got digit %x", id2.Digit(0))
	}
	if id2.Digit(1) != id.Digit(1) {
		t.Fatalf("WithDigit disturbed neighbouring digit")
	}
}

func TestCommonPrefixLen(t *testing.T) {
	tests := []struct {
		a, b string
		want int
	}{
		{"00000000000000000000000000000000", "00000000000000000000000000000000", 32},
		{"00000000000000000000000000000000", "80000000000000000000000000000000", 0},
		{"00000000000000000000000000000000", "08000000000000000000000000000000", 1},
		{"abcdef00000000000000000000000000", "abcdef80000000000000000000000000", 6},
		{"abcdef00000000000000000000000000", "abcde000000000000000000000000000", 5},
	}
	for _, tt := range tests {
		got := CommonPrefixLen(MustParse(tt.a), MustParse(tt.b))
		if got != tt.want {
			t.Errorf("CommonPrefixLen(%s, %s) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestAddSub(t *testing.T) {
	one := MustParse("00000000000000000000000000000001")
	max := MustParse("ffffffffffffffffffffffffffffffff")
	if got := Add(max, one); got != Zero {
		t.Fatalf("max+1 = %v, want zero (wraparound)", got)
	}
	if got := Sub(Zero, one); got != max {
		t.Fatalf("0-1 = %v, want max (wraparound)", got)
	}
}

func TestBetween(t *testing.T) {
	a := MustParse("10000000000000000000000000000000")
	b := MustParse("20000000000000000000000000000000")
	x := MustParse("18000000000000000000000000000000")
	if !Between(a, x, b) {
		t.Fatalf("x in (a,b] expected")
	}
	if Between(b, x, a) {
		// wrapped interval (b, a] excludes x
		t.Fatalf("x not in wrapped (b,a] expected")
	}
	if !Between(a, b, b) {
		t.Fatalf("b in (a,b] expected (inclusive upper)")
	}
	if Between(a, a, b) {
		t.Fatalf("a not in (a,b] expected (exclusive lower)")
	}
}

// Property: Sub(Add(a,b), b) == a — add/sub are inverses mod 2^128.
func TestQuickAddSubInverse(t *testing.T) {
	f := func(a, b [Size]byte) bool {
		x, y := ID(a), ID(b)
		return Sub(Add(x, y), y) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ring distance is symmetric and bounded by half the ring.
func TestQuickRingDistanceSymmetric(t *testing.T) {
	half := MustParse("80000000000000000000000000000000")
	f := func(a, b [Size]byte) bool {
		x, y := ID(a), ID(b)
		d1, d2 := RingDistance(x, y), RingDistance(y, x)
		return d1 == d2 && (Cmp(d1, half) <= 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: common prefix length is symmetric, and equal IDs share all digits.
func TestQuickPrefixLaws(t *testing.T) {
	f := func(a, b [Size]byte) bool {
		x, y := ID(a), ID(b)
		n := CommonPrefixLen(x, y)
		if n != CommonPrefixLen(y, x) {
			return false
		}
		for i := 0; i < n; i++ {
			if x.Digit(i) != y.Digit(i) {
				return false
			}
		}
		if n < Digits && x.Digit(n) == y.Digit(n) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: WithDigit sets exactly the requested digit.
func TestQuickWithDigit(t *testing.T) {
	f := func(a [Size]byte, i uint8, d uint8) bool {
		x := ID(a)
		pos := int(i) % Digits
		dig := d & 0x0f
		y := x.WithDigit(pos, dig)
		if y.Digit(pos) != dig {
			return false
		}
		for j := 0; j < Digits; j++ {
			if j != pos && y.Digit(j) != x.Digit(j) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCloser(t *testing.T) {
	target := MustParse("80000000000000000000000000000000")
	near := MustParse("80000000000000000000000000000001")
	far := MustParse("00000000000000000000000000000000")
	if !Closer(target, near, far) {
		t.Fatalf("near should be closer to target than far")
	}
	if Closer(target, far, near) {
		t.Fatalf("far should not be closer to target than near")
	}
}
