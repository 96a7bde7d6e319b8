package match

import (
	"math"
	"strconv"
	"time"

	"github.com/gloss/active/internal/event"
)

// valKey reduces an attribute value to a hashable key that is equal for
// any two values Value.Equal calls equal (ints and floats meet in float64,
// so an index lookup may also return near misses beyond 2^53 — every
// candidate is unified against the bindings again). NaN equals nothing and
// gets a kind of its own, reachable only by its rendering.
type valKey struct {
	kind keyKind
	s    string
	n    float64
}

type keyKind uint8

const (
	keyAbsent keyKind = iota // the event lacks the attribute: not indexed
	keyInvalid
	keyStr
	keyNum
	keyBool
	keyNaN
)

func keyOf(v event.Value) valKey {
	switch v.K {
	case event.KindString:
		return valKey{kind: keyStr, s: v.S}
	case event.KindInt, event.KindFloat:
		n, _ := v.Num()
		if math.IsNaN(n) {
			return valKey{kind: keyNaN}
		}
		return valKey{kind: keyNum, n: n}
	case event.KindBool:
		if v.B {
			return valKey{kind: keyBool, n: 1}
		}
		return valKey{kind: keyBool}
	default:
		return valKey{kind: keyInvalid}
	}
}

// renderedKeys lists the keys of every value whose String() can be s: the
// knowledge base stores objects and subjects as text, so a probe driven
// from it must find the string, the number and the boolean that print
// that way.
func renderedKeys(dst []valKey, s string) []valKey {
	dst = append(dst, valKey{kind: keyStr, s: s})
	switch v := classify(s); {
	case s == "":
		dst = append(dst, valKey{kind: keyInvalid})
	case s == "true":
		dst = append(dst, valKey{kind: keyBool, n: 1})
	case s == "false":
		dst = append(dst, valKey{kind: keyBool})
	case v.K == event.KindFloat:
		dst = append(dst, keyOf(v))
	}
	return dst
}

// classify interprets a bare string as a number when possible. The first
// byte decides for almost every non-number, so the common case (a name)
// never reaches ParseFloat, whose failure allocates.
func classify(s string) event.Value {
	if s != "" {
		switch c := s[0]; {
		case c >= '0' && c <= '9', c == '+', c == '-', c == '.', c == 'i', c == 'I', c == 'n', c == 'N':
			if f, err := strconv.ParseFloat(s, 64); err == nil {
				return event.F(f)
			}
		}
	}
	return event.S(s)
}

// entry is one buffered event.
type entry struct {
	ev  *event.Event
	at  time.Duration // ev.Time when it was buffered
	seq uint64        // insertion sequence within the buffer
	// older/newer thread the insertion-order list; a free slot keeps the
	// next free one in older. -1 ends a list.
	older, newer int32
}

// attrIndex chains the buffered events that carry the same value of one
// attribute, newest first.
type attrIndex struct {
	attr  string
	heads map[valKey]int32 // newest slot per key
	// Per slot: the key it is chained under and its neighbours there.
	keys         []valKey
	older, newer []int32
}

// buffer holds the events one pattern has accepted inside the rule's
// window, at most Options.maxBuffer of them, in insertion order, with a
// hash index per attribute some join plan probes. Slots are recycled, so a
// warm buffer takes an event without allocating.
type buffer struct {
	entries        []entry
	free           int32
	newest, oldest int32
	n              int
	seq            uint64
	// minAt is a lower bound on the buffered events' times; the expiry
	// sweep runs only once the cutoff passes it.
	minAt time.Duration
	idx   []attrIndex
}

func newBuffer() buffer {
	return buffer{free: -1, newest: -1, oldest: -1, minAt: math.MaxInt64}
}

// indexOn returns the position of the index over attr, creating it on
// first request. Plans are compiled before any event is buffered.
func (b *buffer) indexOn(attr string) int {
	for i := range b.idx {
		if b.idx[i].attr == attr {
			return i
		}
	}
	b.idx = append(b.idx, attrIndex{attr: attr, heads: make(map[valKey]int32)})
	return len(b.idx) - 1
}

// add buffers ev as the newest entry.
func (b *buffer) add(ev *event.Event) {
	s := b.free
	if s >= 0 {
		b.free = b.entries[s].older
	} else {
		s = int32(len(b.entries))
		b.entries = append(b.entries, entry{})
		for i := range b.idx {
			ix := &b.idx[i]
			ix.keys = append(ix.keys, valKey{})
			ix.older = append(ix.older, -1)
			ix.newer = append(ix.newer, -1)
		}
	}
	b.seq++
	b.entries[s] = entry{ev: ev, at: ev.Time, seq: b.seq, older: b.newest, newer: -1}
	if b.newest >= 0 {
		b.entries[b.newest].newer = s
	} else {
		b.oldest = s
	}
	b.newest = s
	b.n++
	if ev.Time < b.minAt {
		b.minAt = ev.Time
	}
	for i := range b.idx {
		ix := &b.idx[i]
		k := valKey{}
		if v, ok := ev.Get(ix.attr); ok {
			k = keyOf(v)
		}
		ix.keys[s], ix.older[s], ix.newer[s] = k, -1, -1
		if k.kind == keyAbsent {
			continue
		}
		if head, ok := ix.heads[k]; ok {
			ix.older[s], ix.newer[head] = head, s
		}
		ix.heads[k] = s
	}
}

// remove unlinks slot s from the order list and every index.
func (b *buffer) remove(s int32) {
	en := &b.entries[s]
	if en.newer >= 0 {
		b.entries[en.newer].older = en.older
	} else {
		b.newest = en.older
	}
	if en.older >= 0 {
		b.entries[en.older].newer = en.newer
	} else {
		b.oldest = en.newer
	}
	for i := range b.idx {
		ix := &b.idx[i]
		k := ix.keys[s]
		if k.kind == keyAbsent {
			continue
		}
		o, n := ix.older[s], ix.newer[s]
		switch {
		case n >= 0:
			ix.older[n] = o
		case o >= 0:
			ix.heads[k] = o
		default:
			delete(ix.heads, k)
		}
		if o >= 0 {
			ix.newer[o] = n
		}
	}
	*en = entry{older: b.free}
	b.free = s
	b.n--
	if b.n == 0 {
		b.minAt = math.MaxInt64
	}
}

// expire drops every entry older than cutoff and returns how many.
func (b *buffer) expire(cutoff time.Duration) int {
	if b.minAt >= cutoff {
		return 0
	}
	dropped := 0
	b.minAt = math.MaxInt64
	for s := b.oldest; s >= 0; {
		en := &b.entries[s]
		next := en.newer
		if en.at < cutoff {
			b.remove(s)
			dropped++
		} else if en.at < b.minAt {
			b.minAt = en.at
		}
		s = next
	}
	return dropped
}

// appendAll appends every slot, newest first.
func (b *buffer) appendAll(dst []int32) []int32 {
	for s := b.newest; s >= 0; s = b.entries[s].older {
		dst = append(dst, s)
	}
	return dst
}

// appendChain appends the slots chained under k in index i, newest first.
func (b *buffer) appendChain(dst []int32, i int, k valKey) []int32 {
	ix := &b.idx[i]
	if s, ok := ix.heads[k]; ok {
		for ; s >= 0; s = ix.older[s] {
			dst = append(dst, s)
		}
	}
	return dst
}
