package store

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/gloss/active/internal/ids"
)

func key(i int) ids.ID { return ids.FromString(fmt.Sprintf("k%d", i)) }

func TestLRUBasics(t *testing.T) {
	c := newLRU(100)
	c.put(key(1), &blob{data: make([]byte, 40)})
	c.put(key(2), &blob{data: make([]byte, 40)})
	if _, ok := c.get(key(1)); !ok {
		t.Fatalf("k1 missing")
	}
	// Inserting k3 (40 bytes) must evict k2 (LRU; k1 was refreshed).
	c.put(key(3), &blob{data: make([]byte, 40)})
	if _, ok := c.get(key(2)); ok {
		t.Fatalf("k2 should have been evicted")
	}
	if _, ok := c.get(key(1)); !ok {
		t.Fatalf("k1 should survive (recently used)")
	}
	if c.used() > 100 {
		t.Fatalf("over budget: %d", c.used())
	}
}

func TestLRUOversizedObjectSkipped(t *testing.T) {
	c := newLRU(10)
	c.put(key(1), &blob{data: make([]byte, 11)})
	if c.len() != 0 {
		t.Fatalf("oversized object should not be cached")
	}
}

// TestLRUOversizedPutDropsStaleCopy: a mutable key's new version too
// large to cache must not leave the old version to answer the next read.
func TestLRUOversizedPutDropsStaleCopy(t *testing.T) {
	c := newLRU(10)
	c.put(key(1), &blob{data: []byte("v1")})
	c.put(key(1), &blob{data: []byte("v2, over the budget")})
	if got, ok := c.get(key(1)); ok {
		t.Fatalf("cache still serves %q after refusing a newer copy", got.bytes())
	}
	if c.len() != 0 || c.used() != 0 {
		t.Fatalf("refused put left len=%d used=%d", c.len(), c.used())
	}
}

func TestLRUUpdateExisting(t *testing.T) {
	c := newLRU(100)
	c.put(key(1), &blob{data: make([]byte, 10)})
	c.put(key(1), &blob{data: make([]byte, 30)})
	if c.used() != 30 {
		t.Fatalf("used = %d, want 30", c.used())
	}
	if c.len() != 1 {
		t.Fatalf("len = %d, want 1", c.len())
	}
}

func TestLRURemove(t *testing.T) {
	c := newLRU(100)
	c.put(key(1), &blob{data: make([]byte, 10)})
	c.remove(key(1))
	if c.len() != 0 || c.used() != 0 {
		t.Fatalf("remove left residue: len=%d used=%d", c.len(), c.used())
	}
	c.remove(key(2)) // absent: no-op
}

// Property: the cache never exceeds its byte budget, and get after put
// returns the stored bytes while present.
func TestQuickLRUBudget(t *testing.T) {
	f := func(ops []uint16) bool {
		c := newLRU(256)
		rng := rand.New(rand.NewSource(7))
		for _, op := range ops {
			k := key(int(op % 19))
			size := int(op % 97)
			if op%3 == 0 {
				c.remove(k)
			} else {
				data := make([]byte, size)
				rng.Read(data)
				c.put(k, &blob{data: data})
				if got, ok := c.get(k); ok {
					if got.size() != size {
						return false
					}
				} else if size <= 256 {
					return false // must be present right after insertion
				}
			}
			if c.used() > 256 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
