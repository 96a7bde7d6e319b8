package store

import (
	"container/list"

	"github.com/gloss/active/internal/ids"
)

// lruCache is a byte-budgeted LRU of object copies — the mechanism behind
// promiscuous caching: any node may hold a copy of any object at any time
// without affecting correctness, so eviction needs no coordination.
type lruCache struct {
	capBytes  int64
	usedBytes int64
	ll        *list.List
	items     map[ids.ID]*list.Element
}

type lruItem struct {
	key ids.ID
	b   *blob
}

func newLRU(capBytes int64) *lruCache {
	return &lruCache{
		capBytes: capBytes,
		ll:       list.New(),
		items:    make(map[ids.ID]*list.Element),
	}
}

// get returns the cached copy and refreshes its recency.
func (c *lruCache) get(key ids.ID) (*blob, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruItem).b, true
}

// put inserts or refreshes a copy, evicting LRU entries to fit. Objects
// larger than the whole budget are not cached, and drop any older copy
// held under their key: a mutable key's next read must not find it.
func (c *lruCache) put(key ids.ID, b *blob) {
	size := int64(b.size())
	if size > c.capBytes {
		c.remove(key)
		return
	}
	if el, ok := c.items[key]; ok {
		it := el.Value.(*lruItem)
		c.usedBytes += size - int64(it.b.size())
		it.b = b
		c.ll.MoveToFront(el)
	} else {
		el := c.ll.PushFront(&lruItem{key: key, b: b})
		c.items[key] = el
		c.usedBytes += size
	}
	for c.usedBytes > c.capBytes {
		c.evictOldest()
	}
}

func (c *lruCache) evictOldest() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	it := el.Value.(*lruItem)
	c.ll.Remove(el)
	delete(c.items, it.key)
	c.usedBytes -= int64(it.b.size())
}

// remove drops a key if present.
func (c *lruCache) remove(key ids.ID) {
	if el, ok := c.items[key]; ok {
		it := el.Value.(*lruItem)
		c.ll.Remove(el)
		delete(c.items, key)
		c.usedBytes -= int64(it.b.size())
	}
}

// len returns the number of cached objects.
func (c *lruCache) len() int { return c.ll.Len() }

// used returns the occupied bytes.
func (c *lruCache) used() int64 { return c.usedBytes }
