// Package ids provides 128-bit identifiers used throughout the active
// architecture: node identifiers for the structured overlay, GUIDs for
// stored objects, and event identifiers.
//
// Identifiers are interpreted as unsigned 128-bit integers on a circular
// ring (mod 2^128), and as strings of 32 hexadecimal digits for
// Plaxton-style prefix routing (digit base b = 4 bits).
package ids

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/bits"
	"math/rand"
)

// Size is the identifier length in bytes.
const Size = 16

// Digits is the number of base-16 digits in an identifier.
const Digits = 2 * Size

// ID is a 128-bit identifier: a point on the ring [0, 2^128).
type ID [Size]byte

// Zero is the all-zero identifier.
var Zero ID

// FromBytes derives an ID from arbitrary content using SHA-256,
// truncated to 128 bits. This is how object GUIDs are derived from
// document content, per the paper's "secure hashes" scheme.
func FromBytes(content []byte) ID {
	sum := sha256.Sum256(content)
	var id ID
	copy(id[:], sum[:Size])
	return id
}

// FromString derives an ID from a string key (e.g. "matchlet-for:gps.location").
func FromString(s string) ID { return FromBytes([]byte(s)) }

// Random returns a uniformly random ID drawn from rng.
func Random(rng *rand.Rand) ID {
	var id ID
	// rand.Rand.Read never returns an error.
	_, _ = rng.Read(id[:])
	return id
}

// Parse decodes a 32-hex-digit string into an ID.
func Parse(s string) (ID, error) {
	var id ID
	err := id.UnmarshalText([]byte(s))
	return id, err
}

// MustParse is Parse that panics on malformed input; for tests and constants.
func MustParse(s string) ID {
	id, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return id
}

// String returns the 32-digit lowercase hex form.
func (id ID) String() string { return hex.EncodeToString(id[:]) }

// MarshalText returns the String form, so an ID field reads in XML (and
// JSON) as its 32 hex digits.
func (id ID) MarshalText() ([]byte, error) {
	return hex.AppendEncode(make([]byte, 0, Digits), id[:]), nil
}

// UnmarshalText decodes the 32-hex-digit form; on error id is unchanged.
func (id *ID) UnmarshalText(text []byte) error {
	// The errors quote a copy, so text does not escape: Parse's []byte(s)
	// stays on the stack.
	if len(text) != Digits {
		return fmt.Errorf("ids: parse %q: want %d hex digits, got %d", string(text), Digits, len(text))
	}
	var out ID
	if _, err := hex.Decode(out[:], text); err != nil {
		return fmt.Errorf("ids: parse %q: %w", string(text), err)
	}
	*id = out
	return nil
}

// Short returns the first 8 hex digits, for logs.
func (id ID) Short() string { return hex.EncodeToString(id[:4]) }

// IsZero reports whether the ID is all zero.
func (id ID) IsZero() bool { return id == Zero }

// Digit returns the i-th base-16 digit (0 = most significant).
func (id ID) Digit(i int) byte {
	b := id[i/2]
	if i%2 == 0 {
		return b >> 4
	}
	return b & 0x0f
}

// WithDigit returns a copy of id with the i-th hex digit set to d.
func (id ID) WithDigit(i int, d byte) ID {
	out := id
	if i%2 == 0 {
		out[i/2] = (out[i/2] & 0x0f) | (d << 4)
	} else {
		out[i/2] = (out[i/2] & 0xf0) | (d & 0x0f)
	}
	return out
}

// CommonPrefixLen returns the number of leading hex digits shared by a and b.
func CommonPrefixLen(a, b ID) int {
	for i := 0; i < Size; i++ {
		x := a[i] ^ b[i]
		if x == 0 {
			continue
		}
		if x&0xf0 != 0 {
			return 2 * i
		}
		return 2*i + 1
	}
	return Digits
}

// u128 is an ID as two big-endian machine words, so the ring arithmetic
// below runs on words, not byte by byte.
type u128 struct{ hi, lo uint64 }

func words(id ID) u128 {
	return u128{binary.BigEndian.Uint64(id[:8]), binary.BigEndian.Uint64(id[8:])}
}

func (x u128) id() (id ID) {
	binary.BigEndian.PutUint64(id[:8], x.hi)
	binary.BigEndian.PutUint64(id[8:], x.lo)
	return id
}

func (x u128) less(y u128) bool { return x.hi < y.hi || x.hi == y.hi && x.lo < y.lo }

func (x u128) sub(y u128) u128 {
	lo, borrow := bits.Sub64(x.lo, y.lo, 0)
	hi, _ := bits.Sub64(x.hi, y.hi, borrow)
	return u128{hi, lo}
}

// ring is RingDistance on words.
func (x u128) ring(y u128) u128 {
	d1, d2 := x.sub(y), y.sub(x)
	if d1.less(d2) {
		return d1
	}
	return d2
}

// Cmp compares a and b as unsigned 128-bit integers:
// -1 if a < b, 0 if equal, +1 if a > b.
func Cmp(a, b ID) int {
	switch {
	case a == b:
		return 0
	case Less(a, b):
		return -1
	}
	return 1
}

// Less reports a < b as unsigned integers.
func Less(a, b ID) bool { return words(a).less(words(b)) }

// Add returns (a + b) mod 2^128.
func Add(a, b ID) ID {
	x, y := words(a), words(b)
	lo, carry := bits.Add64(x.lo, y.lo, 0)
	hi, _ := bits.Add64(x.hi, y.hi, carry)
	return u128{hi, lo}.id()
}

// Sub returns (a - b) mod 2^128.
func Sub(a, b ID) ID { return words(a).sub(words(b)).id() }

// RingDistance returns the minimal distance between a and b on the ring,
// i.e. min(a-b, b-a) mod 2^128.
func RingDistance(a, b ID) ID { return words(a).ring(words(b)).id() }

// Between reports whether x lies in the half-open ring interval (a, b]
// walking clockwise (increasing) from a. If a == b the interval is the
// full ring and Between reports x != a.
func Between(a, x, b ID) bool {
	if a == b {
		return x != a
	}
	if Less(a, b) {
		return Less(a, x) && !Less(b, x)
	}
	// Interval wraps zero.
	return Less(a, x) || !Less(b, x)
}

// Closer reports whether a is strictly closer to target than b is,
// by ring distance; ties broken by smaller numeric ID.
func Closer(target, a, b ID) bool {
	t, x, y := words(target), words(a), words(b)
	if dx, dy := x.ring(t), y.ring(t); dx != dy {
		return dx.less(dy)
	}
	return x.less(y)
}
