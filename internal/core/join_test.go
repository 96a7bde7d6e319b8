package core

import (
	"slices"
	"testing"

	"github.com/gloss/active/internal/ids"
)

// leafHalf is plaxton.Options.LeafHalf's default, which NewWorld's nodes
// run with.
const leafHalf = 8

// ringLeaves is self's leaf set among all by brute force: the leafHalf
// nearest successors and the leafHalf nearest predecessors on the ring.
func ringLeaves(self ids.ID, all []ids.ID) []ids.ID {
	others := slices.DeleteFunc(slices.Clone(all), func(id ids.ID) bool { return id == self })
	slices.SortFunc(others, func(a, b ids.ID) int { return ids.Cmp(ids.Sub(a, self), ids.Sub(b, self)) })
	out := slices.Clone(others[:min(leafHalf, len(others))])
	slices.SortFunc(others, func(a, b ids.ID) int { return ids.Cmp(ids.Sub(self, a), ids.Sub(self, b)) })
	for _, id := range others[:min(leafHalf, len(others))] {
		if !slices.Contains(out, id) {
			out = append(out, id)
		}
	}
	return out
}

// TestNewWorldLeafSetsExact: when NewWorld returns, every node's leaf set
// is exactly its true ring neighbourhood, with liveness probing off, so
// no repair made it so. A join is complete only once the nodes it
// announced itself to have answered; a world that started the next join
// when the joiner had merely heard from the root would route that join
// through nodes that have not yet learned of the last one.
func TestNewWorldLeafSetsExact(t *testing.T) {
	for _, size := range []int{1, 2, 5, 9, 24, 40} {
		for seed := int64(1); seed <= 6; seed++ {
			w := testWorld(t, seed, size, NodeConfig{})
			all := make([]ids.ID, size)
			for i, n := range w.Nodes {
				all[i] = n.ID()
			}
			wrong := 0
			for _, n := range w.Nodes {
				got, want := n.Overlay.Leaves(), ringLeaves(n.ID(), all)
				slices.SortFunc(got, ids.Cmp)
				slices.SortFunc(want, ids.Cmp)
				if !slices.Equal(got, want) {
					wrong++
				}
			}
			if wrong > 0 {
				t.Errorf("%d nodes, seed %d: %d leaf sets differ from the ring's", size, seed, wrong)
			}
		}
	}
}
