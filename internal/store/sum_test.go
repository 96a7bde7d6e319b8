package store

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"github.com/gloss/active/internal/ids"
)

// TestHash64PublishedVectors pins hash64 to XXH64 with seed 0 (vectors
// from the xxHash reference implementation's test suite).
func TestHash64PublishedVectors(t *testing.T) {
	for _, v := range []struct {
		in   string
		want uint64
	}{
		{"", 0xef46db3751d8e999},
		{"a", 0xd24ec4f1a98c6e5b},
		{"as", 0x1c330fb2d66be179},
		{"asd", 0x631c37ce72a97393},
		{"asdf", 0x415872f599cea71e},
		{"abc", 0x44bc2cf5ad770999},
		{"Nobody inspects the spammish repetition", 0xfbcea83c8a378bf1},
		{"The quick brown fox jumps over the lazy dog", 0x0b242d361fda71bc},
		// 63 bytes: one 32-byte stripe, then three words, four bytes, three bytes.
		{"Call me Ishmael. Some years ago--never mind how long precisely-", 0x02a2e85470d6fd96},
	} {
		if got := hash64([]byte(v.in)); got != v.want {
			t.Errorf("hash64(%q) = %#016x, want %#016x", v.in, got, v.want)
		}
	}
}

// hash64Ref is XXH64 written the slow, obvious way — every word
// assembled a byte at a time, no slicing tricks — as the reference the
// shipped word-at-a-time hash64 is held to.
func hash64Ref(b []byte) uint64 {
	const (
		p1 uint64 = 11400714785074694791
		p2 uint64 = 14029467366897019727
		p3 uint64 = 1609587929392839161
		p4 uint64 = 9650029242287828579
		p5 uint64 = 2870177450012600261
	)
	rotl := func(x uint64, r uint) uint64 { return x<<r | x>>(64-r) }
	word := func(at, n int) uint64 {
		var w uint64
		for i := 0; i < n; i++ {
			w |= uint64(b[at+i]) << (8 * uint(i))
		}
		return w
	}
	round := func(acc, in uint64) uint64 { return rotl(acc+in*p2, 31) * p1 }
	var h uint64
	at := 0
	if len(b) >= 32 {
		var zero uint64 // a variable, so that the sums below wrap instead of overflowing at compile time
		v := [4]uint64{zero + p1 + p2, p2, 0, zero - p1}
		for ; len(b)-at >= 32; at += 32 {
			for i := range v {
				v[i] = round(v[i], word(at+8*i, 8))
			}
		}
		h = rotl(v[0], 1) + rotl(v[1], 7) + rotl(v[2], 12) + rotl(v[3], 18)
		for i := range v {
			h = (h^round(0, v[i]))*p1 + p4
		}
	} else {
		h = p5
	}
	h += uint64(len(b))
	for ; len(b)-at >= 8; at += 8 {
		h = rotl(h^round(0, word(at, 8)), 27)*p1 + p4
	}
	if len(b)-at >= 4 {
		h = rotl(h^word(at, 4)*p1, 23)*p2 + p3
		at += 4
	}
	for ; at < len(b); at++ {
		h = rotl(h^uint64(b[at])*p5, 11) * p1
	}
	h ^= h >> 33
	h *= p2
	h ^= h >> 29
	h *= p3
	return h ^ h>>32
}

// checkHash64Tails compares hash64 with the reference on data and on
// every suffix and prefix of it up to 64 bytes long — all the ways the
// stripe loop can hand over to the word, half-word and byte tails.
func checkHash64Tails(t *testing.T, data []byte) {
	t.Helper()
	check := func(b []byte) {
		if got, want := hash64(b), hash64Ref(b); got != want {
			t.Fatalf("hash64 of %d bytes = %#016x, reference %#016x", len(b), got, want)
		}
	}
	check(data)
	for n := 0; n <= 64 && n <= len(data); n++ {
		check(data[:n])
		check(data[len(data)-n:])
		check(data[:len(data)-n])
	}
}

// checkHash64Split feeds data to a hasher in pieces whose lengths cycle
// through cuts (a zero is an empty write; after len(data)+len(cuts)
// writes the rest goes in one) and compares the sum with hash64 and the
// reference over the whole.
func checkHash64Split(t *testing.T, data, cuts []byte) {
	t.Helper()
	h := newHasher()
	rest := data
	for i := 0; len(rest) > 0; i++ {
		n := len(rest)
		if len(cuts) > 0 && i < len(data)+len(cuts) {
			n = min(int(cuts[i%len(cuts)]), n)
		}
		h.write(rest[:n])
		rest = rest[n:]
	}
	if got, want, ref := h.sum(), hash64(data), hash64Ref(data); got != want || got != ref {
		t.Fatalf("streamed sum of %d bytes cut by %v = %#016x, hash64 %#016x, reference %#016x", len(data), cuts, got, want, ref)
	}
}

func TestHash64MatchesReferenceOnAllTails(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, size := range []int{0, 1, 31, 32, 33, 64, 95, 96, 200, 4096, 64<<10 + 7} {
		data := make([]byte, size)
		rng.Read(data)
		checkHash64Tails(t, data)
		for _, cuts := range [][]byte{nil, {1}, {7}, {31}, {32}, {33}, {0, 5, 64, 200}, {255, 3}} {
			checkHash64Split(t, data, cuts)
		}
	}
}

func FuzzHash64(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte("Call me Ishmael. Some years ago--never mind how long precisely-"), []byte{5, 31, 1})
	f.Add(bytes.Repeat([]byte{0xff}, 97), []byte{32, 0, 33})
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		checkHash64Tails(t, data)
		checkHash64Split(t, data, cuts)
	})
}

// TestSumFollowsOverwrite: a root whose object was overwritten by
// different content of the SAME length (so only the hash can tell) must
// find both replicas stale at the next digest round and re-push them —
// i.e. the sums a round compares are those of the bytes held now, on
// both sides.
func TestSumFollowsOverwrite(t *testing.T) {
	c := buildCluster(t, 51, 8, Options{Replicas: 3, RepairInterval: -1, RequestTimeout: 2 * time.Second})
	key := ids.FromString("mutable-key")
	v1, v2 := []byte("version one of the fact"), []byte("version two of the fact")
	var root *Store
	for _, s := range c.stores {
		if s.isRoot(key) {
			root = s
		}
	}
	acked := false
	root.PutAs(key, v1, func(err error) { acked = err == nil })
	c.world.RunFor(3 * time.Second)
	if !acked || c.copies(key) != 3 {
		t.Fatalf("setup: acked=%v copies=%d", acked, c.copies(key))
	}
	// A quiet round first: every holder computes and keeps its sum of v1.
	root.repair()
	c.world.RunFor(3 * time.Second)
	if st := root.Stats(); st.RepairSkipped != 2 || st.RepairPushes != 2 {
		t.Fatalf("quiet round: skipped=%d pushes=%d, want 2 and 2 (the put's own)", st.RepairSkipped, st.RepairPushes)
	}
	// Overwrite at the root, the replica pushes lost on the way: origin
	// and root are one node, so the put stores and pushes before it returns
	// and simnet drops at send time.
	c.world.SetLinkFilter(func(from, to ids.ID) bool { return false })
	root.PutAs(key, v2, func(error) {})
	c.world.SetLinkFilter(nil)
	before := root.Stats().RepairPushes
	root.repair()
	c.world.RunFor(3 * time.Second)
	if got := root.Stats().RepairPushes - before; got != 2 {
		t.Fatalf("digest round after the overwrite pushed %d replicas, want 2", got)
	}
	for i, s := range c.stores {
		if b, ok := s.objects[key]; ok && (!bytes.Equal(b.bytes(), v2) || b.hash() != hash64(v2)) {
			t.Errorf("node %d still holds (or sums) the old version", i)
		}
	}
}

// TestSumDroppedWithItsBytes: whatever replaces or removes a held copy
// takes its sum along — cache overwrite, cache eviction, object drop.
func TestSumDroppedWithItsBytes(t *testing.T) {
	a, b := []byte("aaaaaaaa"), []byte("bbbbbbbb")
	lru := newLRU(16)
	first := &blob{data: a}
	first.hash()
	lru.put(key(1), first)
	lru.put(key(1), &blob{data: b})
	if got, _ := lru.get(key(1)); got.hash() != hash64(b) {
		t.Fatal("cache overwrite kept the old sum")
	}
	lru.put(key(2), &blob{data: a})
	lru.put(key(3), &blob{data: a}) // evicts key 1
	lru.put(key(1), &blob{data: a})
	if got, _ := lru.get(key(1)); got.hash() != hash64(a) {
		t.Fatal("eviction kept the old sum")
	}
	c := buildCluster(t, 52, 1, Options{RepairInterval: -1})
	s, guid := c.stores[0], ids.FromString("k")
	s.setObject(guid, first)
	s.dropObject(guid)
	s.setObject(guid, &blob{data: b})
	if s.objects[guid].hash() != hash64(b) {
		t.Fatal("drop kept the old sum")
	}
}

// TestPutTakesOwnershipOnBothPaths: when the origin is the object's root,
// a small put (body inside the routed message) and a large one (body
// pinned for a pull) both store the caller's slice itself.
func TestPutTakesOwnershipOnBothPaths(t *testing.T) {
	c := buildCluster(t, 53, 1, Options{RepairInterval: -1, ChunkBytes: 1 << 10})
	s := c.stores[0]
	for _, size := range []int{100, 8 << 10} {
		content := make([]byte, size)
		rand.New(rand.NewSource(int64(size))).Read(content)
		var guid ids.ID
		var putErr error = ErrNotFound
		s.Put(content, func(g ids.ID, err error) { guid, putErr = g, err })
		c.world.RunFor(time.Second)
		if putErr != nil {
			t.Fatalf("%d-byte put: %v", size, putErr)
		}
		if held := s.objects[guid].bytes(); &held[0] != &content[0] || len(held) != size {
			t.Errorf("%d-byte put: the root stored a copy, not the caller's slice", size)
		}
	}
}
