package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/pubsub"
)

// treeChildren lists each node's children under parents, in index order.
func treeChildren(parents []int) [][]int {
	kids := make([][]int, len(parents))
	for i, p := range parents {
		if p >= 0 {
			kids[p] = append(kids[p], i)
		}
	}
	return kids
}

// treeAncestors is node i's chain under parents: parent, grandparent, …, root.
func treeAncestors(parents []int, i int) []int {
	var chain []int
	for p := parents[i]; p >= 0; p = parents[p] {
		chain = append(chain, p)
	}
	return chain
}

// inSubtree marks v and every node below it. A parent's index is below
// its child's, so one pass in index order suffices.
func inSubtree(parents []int, v int) []bool {
	in := make([]bool, len(parents))
	in[v] = true
	for i := v + 1; i < len(parents); i++ {
		if p := parents[i]; p >= 0 {
			in[i] = in[p]
		}
	}
	return in
}

// lastOutside is the highest-index node outside the subtree marked by in.
func lastOutside(in []bool) int {
	for i := len(in) - 1; i >= 0; i-- {
		if !in[i] {
			return i
		}
	}
	return -1
}

// checkBrokerParents holds parents to the rule's specification: node 0 is
// the root, every other parent index is below its child's, no node takes
// more than maxBrokerChildren children, and each parent was the nearest
// node with room when its child chose (equal distances to the lower ID).
func checkBrokerParents(t *testing.T, nodes []netapi.NodeInfo, parents []int) {
	t.Helper()
	if len(parents) != len(nodes) {
		t.Fatalf("%d parents for %d nodes", len(parents), len(nodes))
	}
	children := make([]int, len(nodes))
	for i, p := range parents {
		if i == 0 {
			if p != -1 {
				t.Fatalf("root's parent = %d, want -1", p)
			}
			continue
		}
		if p < 0 || p >= i {
			t.Fatalf("node %d's parent %d is not among nodes 0..%d", i, p, i-1)
		}
		if children[p] >= maxBrokerChildren {
			t.Fatalf("node %d joined node %d, which already has %d children", i, p, children[p])
		}
		pKm := nodes[i].Coord.DistanceKm(nodes[p].Coord)
		for j := range i {
			if j == p || children[j] >= maxBrokerChildren {
				continue
			}
			km := nodes[i].Coord.DistanceKm(nodes[j].Coord)
			if km < pKm || km == pKm && ids.Cmp(nodes[j].ID, nodes[p].ID) < 0 {
				t.Fatalf("node %d joined node %d (%.1f km), but node %d (%.1f km) had room", i, p, pKm, j, km)
			}
		}
		children[p]++
	}
}

// TestBrokerParentsRule checks the broker tree's shape rule without a
// world, over uniform random coordinates, DefaultRegions placements and
// nodes that all share one coordinate (as TCP nodes configured with none
// do), then pins a tie in both ID orders.
func TestBrokerParentsRule(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for n := 1; n <= 64; n++ {
		uniform := make([]netapi.NodeInfo, n)
		regional := make([]netapi.NodeInfo, n)
		collocated := make([]netapi.NodeInfo, n)
		for i := range n {
			uniform[i] = netapi.NodeInfo{
				ID:    ids.Random(rng),
				Coord: netapi.Coord{X: rng.Float64() * 20000, Y: rng.Float64() * 10000},
			}
			region, coord := placeNode(rng, i)
			regional[i] = netapi.NodeInfo{ID: ids.Random(rng), Region: region, Coord: coord}
			collocated[i] = netapi.NodeInfo{ID: ids.Random(rng)}
		}
		for _, nodes := range [][]netapi.NodeInfo{uniform, regional, collocated} {
			parents := brokerParents(nodes)
			checkBrokerParents(t, nodes, parents)
			if again := brokerParents(slices.Clone(nodes)); !slices.Equal(again, parents) {
				t.Fatalf("n=%d: rule not deterministic: %v then %v", n, parents, again)
			}
		}
		// Each region's first node joins another region's tree; every
		// later node has a same-region member with room, and that member
		// is nearer than any other region's.
		if n == 24 {
			crossing := 0
			for i, p := range brokerParents(regional) {
				if p >= 0 && regional[i].Region != regional[p].Region {
					crossing++
				}
			}
			if crossing != len(DefaultRegions)-1 {
				t.Fatalf("24 nodes in DefaultRegions: %d edges cross a region, want %d", crossing, len(DefaultRegions)-1)
			}
		}
	}

	// Node 2 midway between nodes 0 and 1 joins the lower ID's node.
	lo, hi := ids.FromString("a"), ids.FromString("b")
	if ids.Cmp(lo, hi) > 0 {
		lo, hi = hi, lo
	}
	for _, tc := range []struct {
		first, second ids.ID
		want          int
	}{{lo, hi, 0}, {hi, lo, 1}} {
		nodes := []netapi.NodeInfo{
			{ID: tc.first, Coord: netapi.Coord{X: 0}},
			{ID: tc.second, Coord: netapi.Coord{X: 10}},
			{ID: ids.FromString("c"), Coord: netapi.Coord{X: 5}},
		}
		if got := brokerParents(nodes)[2]; got != tc.want {
			t.Fatalf("midway node joined %d, want %d (the lower ID)", got, tc.want)
		}
	}
}

// TestBrokerTreeSpansWorld holds a booted world's broker-neighbour graph
// to the rule's tree: n-1 symmetric edges, connected, each one a rule
// edge. A publish from every node then reaches a subscriber on every
// other node exactly once.
func TestBrokerTreeSpansWorld(t *testing.T) {
	for _, n := range []int{9, 24} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			w := testWorld(t, 44, n, NodeConfig{AdvertInterval: -1})
			index := make(map[ids.ID]int, n)
			for i, node := range w.Nodes {
				index[node.ID()] = i
			}
			kids := treeChildren(w.parents)
			edges := 0
			for i, node := range w.Nodes {
				want := slices.Clone(kids[i])
				if p := w.parents[i]; p >= 0 {
					want = append(want, p)
				}
				var got []int
				for _, nb := range node.Broker.Neighbors() {
					j, ok := index[nb]
					if !ok {
						t.Fatalf("node %d lists unknown neighbour %s", i, nb.Short())
					}
					if !slices.Contains(w.Nodes[j].Broker.Neighbors(), node.ID()) {
						t.Fatalf("node %d lists %d, which does not list it back", i, j)
					}
					got = append(got, j)
				}
				slices.Sort(want)
				slices.Sort(got)
				if !slices.Equal(got, want) {
					t.Fatalf("node %d's neighbours %v, want the rule's %v", i, got, want)
				}
				edges += len(got)
			}
			if edges/2 != n-1 {
				t.Fatalf("%d broker edges for %d nodes, want %d", edges/2, n, n-1)
			}
			reached := map[int]bool{0: true}
			for frontier := []int{0}; len(frontier) > 0; {
				i := frontier[0]
				frontier = frontier[1:]
				for _, nb := range w.Nodes[i].Broker.Neighbors() {
					if j := index[nb]; !reached[j] {
						reached[j] = true
						frontier = append(frontier, j)
					}
				}
			}
			if len(reached) != n {
				t.Fatalf("broker graph reaches %d of %d nodes from the root", len(reached), n)
			}

			got := make([]map[string]int, n)
			for i, node := range w.Nodes {
				got[i] = make(map[string]int)
				node.Client.Subscribe(pubsub.NewFilter(pubsub.TypeIs("span.test")),
					func(e *event.Event) { got[i][e.Source]++ })
			}
			w.RunFor(5 * time.Second)
			for i, node := range w.Nodes {
				node.Client.Publish(event.New("span.test", fmt.Sprintf("n%d", i), w.Sim.Now()).Stamp(1))
			}
			w.RunFor(5 * time.Second)
			for r := range n {
				for s := range n {
					if c := got[r][fmt.Sprintf("n%d", s)]; s != r && c != 1 {
						t.Fatalf("node %d received node %d's publish %d times, want once", r, s, c)
					}
				}
			}
		})
	}
}

// TestBrokerTreeSelfHeals kills an interior broker of the event-service
// tree and verifies the orphaned subtree reattaches to an ancestor and
// event delivery resumes — the §1.2 topology-adaptation requirement.
func TestBrokerTreeSelfHeals(t *testing.T) {
	w := testWorld(t, 41, 9, NodeConfig{AdvertInterval: -1})
	keepers := w.StartBrokerKeepers(time.Second)
	w.RunFor(3 * time.Second)

	// Victim: a child of the root with a grandchild. Its child is cut off
	// when it dies; the subscriber sits below that child, and the
	// publisher outside the victim's subtree.
	kids := treeChildren(w.parents)
	victim, orphan, sub := -1, -1, -1
	for _, v := range kids[0] {
		for _, c := range kids[v] {
			if victim < 0 && len(kids[c]) > 0 {
				victim, orphan, sub = v, c, kids[c][0]
			}
		}
	}
	if victim < 0 {
		t.Fatalf("no child of the root has a grandchild: parents %v", w.parents)
	}
	pub := lastOutside(inSubtree(w.parents, victim))
	above := w.parents[victim]

	received := 0
	w.Node(sub).Client.Subscribe(pubsub.NewFilter(pubsub.TypeIs("heal.test")),
		func(*event.Event) { received++ })
	w.RunFor(3 * time.Second)
	publish := func(seq uint64) {
		w.Node(pub).Client.Publish(event.New("heal.test", "pub", w.Sim.Now()).Stamp(seq))
		w.RunFor(2 * time.Second)
	}
	publish(1)
	if received != 1 {
		t.Fatalf("baseline delivery failed: %d", received)
	}

	// Kill the victim — the broker between the subscriber's subtree and
	// the rest of the world.
	w.Sim.Node(w.Node(victim).ID()).Kill()
	w.RunFor(time.Second)
	publish(2) // lost or delivered depending on timing; not asserted
	before := received

	// Keepers detect and reattach the orphan to the victim's parent, its
	// nearest live ancestor.
	w.RunFor(10 * time.Second)
	if got := keepers[orphan].Upstream(); got != w.Node(above).ID() {
		t.Fatalf("node %d upstream = %s, want node %d (%s)", orphan, got.Short(), above, w.Node(above).ID().Short())
	}
	if keepers[orphan].Reattachments == 0 {
		t.Fatalf("node %d never reattached", orphan)
	}
	publish(3)
	publish(4)
	if received < before+2 {
		t.Fatalf("delivery did not resume after heal: %d then %d", before, received)
	}
	// The victim's parent pruned its dead child link.
	for _, n := range w.Node(above).Broker.Neighbors() {
		if n == w.Node(victim).ID() {
			t.Fatalf("node %d still lists the dead broker as a neighbour", above)
		}
	}
}

// TestBrokerKeeperClimbsPastDeadAncestor kills both the parent and the
// grandparent: the keeper must climb the chain to the next live ancestor.
func TestBrokerKeeperClimbsPastDeadAncestor(t *testing.T) {
	w := testWorld(t, 42, 9, NodeConfig{AdvertInterval: -1})
	keepers := w.StartBrokerKeepers(time.Second)
	w.RunFor(3 * time.Second)

	// The deepest node has a chain of at least three; kill its first two.
	deep := 0
	for i := range w.Nodes {
		if len(treeAncestors(w.parents, i)) > len(treeAncestors(w.parents, deep)) {
			deep = i
		}
	}
	chain := treeAncestors(w.parents, deep)
	if len(chain) < 3 {
		t.Fatalf("no node three levels deep: parents %v", w.parents)
	}
	w.Sim.Node(w.Node(chain[0]).ID()).Kill()
	w.Sim.Node(w.Node(chain[1]).ID()).Kill()
	w.RunFor(15 * time.Second)
	if got := keepers[deep].Upstream(); got != w.Node(chain[2]).ID() {
		t.Fatalf("node %d upstream = %s, want node %d", deep, got.Short(), chain[2])
	}
	if keepers[deep].Reattachments < 2 {
		t.Fatalf("expected ≥2 climbs, got %d", keepers[deep].Reattachments)
	}

	// End-to-end delivery from the healed position, published from
	// outside the dead grandparent's subtree.
	pub := lastOutside(inSubtree(w.parents, chain[1]))
	received := 0
	w.Node(deep).Client.Subscribe(pubsub.NewFilter(pubsub.TypeIs("deep.heal")),
		func(*event.Event) { received++ })
	w.RunFor(3 * time.Second)
	w.Node(pub).Client.Publish(event.New("deep.heal", "pub", w.Sim.Now()).Stamp(1))
	w.RunFor(3 * time.Second)
	if received != 1 {
		t.Fatalf("delivery after double heal: %d", received)
	}
}

// TestRemoveNeighborReconciles exercises the pubsub primitive directly:
// severing a link drops the subscriptions that arrived over it.
func TestRemoveNeighborReconciles(t *testing.T) {
	w := testWorld(t, 43, 4, NodeConfig{AdvertInterval: -1})
	// Subscribe at a node two levels down, below the root's child link.
	sub := -1
	for i := range w.Nodes {
		if sub < 0 && len(treeAncestors(w.parents, i)) >= 2 {
			sub = i
		}
	}
	if sub < 0 {
		t.Fatalf("no node two levels deep: parents %v", w.parents)
	}
	chain := treeAncestors(w.parents, sub)
	link := chain[len(chain)-2] // the root's child on the subscriber's side
	w.Node(sub).Client.Subscribe(pubsub.NewFilter(pubsub.TypeIs("x")), func(*event.Event) {})
	w.RunFor(3 * time.Second)
	root := w.Node(0).Broker
	if root.Stats().TableEntries == 0 {
		t.Fatal("subscription never reached the root")
	}
	root.RemoveNeighbor(w.Node(link).ID())
	if got := root.Stats().TableEntries; got != 0 {
		t.Fatalf("entries after severing the only subscribed link: %d", got)
	}
	if want := len(treeChildren(w.parents)[0]) - 1; len(root.Neighbors()) != want {
		t.Fatalf("neighbours: %v, want %d", root.Neighbors(), want)
	}
}
