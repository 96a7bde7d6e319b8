package pubsub

import (
	"sort"
	"strings"

	"github.com/gloss/active/internal/event"
)

// cover is what a broker keeps per neighbour: the filters that neighbour
// should hold on this broker's behalf (its desired set), split into sent —
// those it does hold — and hidden — the rest, each naming a witness, the
// sent filter that covers it. sent is what a from-scratch minimal cover
// would compute: the maximal elements of the desired set under Covers, one
// per class of mutually covering filters (the incumbent stays).
//
// add scans sent once; remove re-evaluates only the entries whose witness
// was the retired filter. Neither sends anything: both log the change to
// the neighbour's table in subs/unsubs for Broker.flush.
type cover struct {
	covering bool                  // false: Options.DisableCovering, everything desired is sent
	sent     []coverEntry          // sorted by key; an antichain under Covers
	hidden   map[string]coverEntry // by key
	subs     []coverEntry          // promoted since the last flush, in order
	unsubs   []coverEntry          // retired since the last flush, in order
}

type coverEntry struct {
	key     string
	f       Filter
	sig     uint64 // eqSig(f); sent entries only
	witness string // key of the sent filter that covers f; hidden entries only
}

// eqSig summarises the values of f's string equalities, two bits each.
// Implies answers an equality only with an equal equality, so g can cover f
// only if eqSig(g)&^eqSig(f) == 0: disjoint per-user filters part ways here.
func eqSig(f Filter) (sig uint64) {
	for i := range f.Constraints {
		if c := &f.Constraints[i]; c.Op == OpEq && c.Val.K == event.KindString {
			h := uint64(14695981039346656037) // FNV-1a
			for j := 0; j < len(c.Val.S); j++ {
				h = (h ^ uint64(c.Val.S[j])) * 1099511628211
			}
			sig |= 1<<(h>>32&63) | 1<<(h>>40&63)
		}
	}
	return sig
}

// find locates key in sent: its index (or insertion point) and presence.
func (c *cover) find(key string) (int, bool) {
	return sort.Find(len(c.sent), func(j int) int { return strings.Compare(key, c.sent[j].key) })
}

// add puts f into the desired set. Already-desired keys are a no-op.
//
//vetactive:actoronly
func (c *cover) add(key string, f Filter) {
	_, hid := c.hidden[key]
	if _, dup := c.find(key); hid || dup {
		return
	}
	sig := eqSig(f)
	if c.covering {
		for i := range c.sent {
			if s := &c.sent[i]; s.sig&^sig == 0 && Covers(s.f, f) {
				c.hidden[key] = coverEntry{f: f, witness: s.key}
				return
			}
		}
		// f is maximal: the sent filters it covers step down behind it,
		// taking whatever they were hiding with them.
		kept := 0
		for i := range c.sent {
			s := &c.sent[i]
			if sig&^s.sig != 0 || !Covers(f, s.f) {
				if kept != i {
					c.sent[kept] = *s
				}
				kept++
				continue
			}
			c.hidden[s.key] = coverEntry{f: s.f, witness: key}
			c.log(&c.unsubs, &c.subs, *s)
		}
		if kept < len(c.sent) {
			c.sent = c.sent[:kept]
			for k, h := range c.hidden {
				if _, ok := c.find(h.witness); !ok {
					c.hidden[k] = coverEntry{f: h.f, witness: key}
				}
			}
		}
	}
	at, _ := c.find(key)
	c.sent = append(c.sent, coverEntry{})
	copy(c.sent[at+1:], c.sent[at:])
	c.sent[at] = coverEntry{key: key, f: f, sig: sig}
	c.log(&c.subs, &c.unsubs, c.sent[at])
}

// remove takes key out of the desired set. What a sent filter was hiding is
// added afresh, in key order: it finds another witness or is promoted.
//
//vetactive:actoronly
func (c *cover) remove(key string) {
	if _, hid := c.hidden[key]; hid {
		delete(c.hidden, key)
		return
	}
	at, ok := c.find(key)
	if !ok {
		return
	}
	gone := c.sent[at]
	c.sent = append(c.sent[:at], c.sent[at+1:]...)
	var orphans []coverEntry
	for k, h := range c.hidden {
		if h.witness == key {
			orphans = append(orphans, coverEntry{key: k, f: h.f})
			delete(c.hidden, k)
		}
	}
	sort.Slice(orphans, func(i, j int) bool { return orphans[i].key < orphans[j].key })
	for _, o := range orphans {
		c.add(o.key, o.f)
	}
	c.log(&c.unsubs, &c.subs, gone)
}

// log records e in list, unless the opposite change to the same filter is
// still pending in other: then the two cancel and the neighbour hears neither.
//
//vetactive:actoronly
func (c *cover) log(list, other *[]coverEntry, e coverEntry) {
	for i := range *other {
		if (*other)[i].key == e.key {
			*other = append((*other)[:i], (*other)[i+1:]...)
			return
		}
	}
	*list = append(*list, e)
}
