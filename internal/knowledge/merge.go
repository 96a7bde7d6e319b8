package knowledge

import "sort"

// MergeFactSets resolves concurrent sibling versions of one subject's
// fact set into a single set. It is deterministic and order-free over
// its inputs — every replica runs it independently and all must arrive
// at the same resolution. The result is the union of all sibling sets,
// with per-(S,P) newest-validity resolution for interval facts.
// Always-valid facts (zero From and To) union — concurrent
// writers adding different predicates or objects all survive. Interval
// facts about the same (S,P) compete: the one whose validity starts
// latest wins (a newer "Bob is at the office from 14:00" supersedes the
// morning's "at home from 09:00"), ties broken by To then O so the
// outcome never depends on input order.
func MergeFactSets(sets [][]Fact) []Fact {
	type slot struct{ s, p string }
	always := make(map[Fact]bool)
	timed := make(map[slot]Fact)
	newer := func(a, b Fact) bool {
		if a.From != b.From {
			return a.From > b.From
		}
		if a.To != b.To {
			return a.To > b.To
		}
		return a.O > b.O
	}
	for _, set := range sets {
		for _, f := range set {
			if f.From == 0 && f.To == 0 {
				always[f] = true
				continue
			}
			k := slot{f.S, f.P}
			if cur, ok := timed[k]; !ok || newer(f, cur) {
				timed[k] = f
			}
		}
	}
	out := make([]Fact, 0, len(always)+len(timed))
	for f := range always {
		out = append(out, f)
	}
	for _, f := range timed {
		out = append(out, f)
	}
	sortFacts(out)
	return out
}

// sortFacts orders facts canonically by (S, P, O, From, To).
func sortFacts(fs []Fact) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.S != b.S {
			return a.S < b.S
		}
		if a.P != b.P {
			return a.P < b.P
		}
		if a.O != b.O {
			return a.O < b.O
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
}
