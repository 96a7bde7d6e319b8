package plaxton

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/simnet"
	"github.com/gloss/active/internal/wire"
)

// holdStates wraps a node's endpoint: the state messages of its join are
// held instead of handled until release hands them to the overlay, in
// the order it is given, and the joiners it is told of are recorded.
type holdStates struct {
	netapi.Endpoint
	handle netapi.Handler // the overlay's plaxton.state handler
	held   []func()
	told   map[ids.ID]bool // joiners whose join it served or whose announce it got
}

func (h *holdStates) Handle(kind string, fn netapi.Handler) {
	switch kind {
	case "plaxton.state":
		h.handle = fn
		fn = func(ctx netapi.Ctx, from ids.ID, msg wire.Message) {
			h.held = append(h.held, func() { h.handle(ctx, from, msg) })
		}
	case "plaxton.join", "plaxton.announce":
		next := fn
		fn = func(ctx netapi.Ctx, from ids.ID, msg wire.Message) {
			joiner := from
			if jm, ok := msg.(*JoinMsg); ok {
				joiner = jm.Joiner
			}
			h.told[joiner] = true
			next(ctx, from, msg)
		}
	}
	h.Endpoint.Handle(kind, fn)
}

func (h *holdStates) release(order []int) {
	for _, i := range order {
		h.held[i]()
	}
}

// trueLeaves is the leaf set of self among all by brute force: the half
// nearest successors and the half nearest predecessors on the ring.
func trueLeaves(self ids.ID, all []ids.ID, half int) []ids.ID {
	var others []ids.ID
	for _, id := range all {
		if id != self {
			others = append(others, id)
		}
	}
	cw := slices.Clone(others)
	slices.SortFunc(cw, func(a, b ids.ID) int { return ids.Cmp(ids.Sub(a, self), ids.Sub(b, self)) })
	ccw := slices.Clone(others)
	slices.SortFunc(ccw, func(a, b ids.ID) int { return ids.Cmp(ids.Sub(self, a), ids.Sub(self, b)) })
	out := cw[:min(half, len(cw))]
	for _, id := range ccw[:min(half, len(ccw))] {
		if !slices.Contains(out, id) {
			out = append(out, id)
		}
	}
	return out
}

// scriptedJoins builds an overlay of n nodes by sequential joins, each
// through the member farthest from the joiner on the ring, so joins take
// hops. Every join's state messages are held; the i-th join's are
// released in the order script[i-1] once the join has run two virtual
// seconds. It stops at the first join that script has no order for and
// returns how many states that join held. When every join had an order
// it returns the nodes a joiner knew once its join had settled that
// neither served the join nor got its announce, and the nodes whose leaf
// set misses a true ring neighbour at the end.
func scriptedJoins(t *testing.T, n int, seed int64, script [][]int) (held int, unaware, wrong []ids.ID) {
	t.Helper()
	const half = 1 // leaf sets this small make the hops' views differ
	w := simnet.NewWorld(simnet.Config{Seed: seed})
	reg := testRegistry()
	rng := rand.New(rand.NewSource(seed))
	holds := make([]*holdStates, n)
	overlays := make([]*Overlay, n)
	all := make([]ids.ID, n)
	for i := range n {
		holds[i] = &holdStates{
			Endpoint: w.NewNode(ids.Random(rng), "r", netapi.Coord{X: rng.Float64() * 5000, Y: rng.Float64() * 5000}),
			told:     make(map[ids.ID]bool),
		}
		overlays[i] = New(holds[i], reg, wire.CodecBinary, Options{LeafHalf: half, HeartbeatInterval: -1})
		all[i] = holds[i].ID()
	}
	overlays[0].CreateNetwork()
	for i := 1; i < n; i++ {
		bootstrap := all[0]
		for _, id := range all[1:i] {
			if ids.Closer(all[i], bootstrap, id) {
				bootstrap = id
			}
		}
		overlays[i].Join(bootstrap, nil)
		w.RunFor(2 * time.Second)
		if i > len(script) {
			return len(holds[i].held), nil, nil
		}
		holds[i].release(script[i-1])
		w.RunFor(2 * time.Second)
		for j, id := range all[:i] {
			if slices.Contains(overlays[i].allKnown(), id) && !holds[j].told[all[i]] {
				unaware = append(unaware, id)
			}
		}
	}
	for _, o := range overlays {
		for _, want := range trueLeaves(o.ID(), all, half) {
			if !slices.Contains(o.Leaves(), want) {
				wrong = append(wrong, o.ID())
				break
			}
		}
	}
	return 0, unaware, wrong
}

// permutations lists every order of 0..k-1.
func permutations(k int) [][]int {
	if k == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(k - 1) {
		for i := 0; i <= len(p); i++ {
			out = append(out, slices.Insert(slices.Clone(p), i, k-1))
		}
	}
	return out
}

// TestJoinWaitsForEveryHopsState is hazard 7. A join's state messages
// come from different nodes, so the root's Done can reach the joiner
// before an earlier hop's state, and a joiner that announces itself then
// tells only part of the view it ends up with: a node it learns of from
// the late state, off the join route, never hears of it. Overlays of 3–6
// nodes are built with every arrival order of every join's states
// replayed. After each join every node the joiner knows must know of it,
// and at the end every leaf set must hold its true ring neighbours, with
// liveness probing off, so nothing repairs either later. (A root whose
// leaf set is right covers the joiner's neighbourhood, so the leaf sets
// hold even where the announce is lost; the lost announce leaves a node
// routing without the joiner.)
func TestJoinWaitsForEveryHopsState(t *testing.T) {
	scripts, reordered := 0, 0
	var walk func(n int, seed int64, script [][]int)
	walk = func(n int, seed int64, script [][]int) {
		held, unaware, wrong := scriptedJoins(t, n, seed, script)
		if len(script) < n-1 {
			if held > 1 {
				reordered++
			}
			for _, order := range permutations(held) {
				walk(n, seed, append(slices.Clone(script), order))
			}
			return
		}
		scripts++
		if len(unaware) > 0 {
			t.Errorf("n=%d seed %d: states released in orders %v: %d nodes a joiner knew were never told of it", n, seed, script, len(unaware))
		}
		if len(wrong) > 0 {
			t.Errorf("n=%d seed %d: states released in orders %v: %d nodes' leaf sets miss a ring neighbour", n, seed, script, len(wrong))
		}
	}
	for n := 3; n <= 6; n++ {
		for seed := int64(1); seed <= 20; seed++ {
			walk(n, seed, nil)
		}
	}
	if reordered == 0 {
		t.Fatal("no join took more than one hop: nothing was reordered")
	}
	t.Logf("%d join scripts replayed; %d joins had states to reorder", scripts, reordered)
}
