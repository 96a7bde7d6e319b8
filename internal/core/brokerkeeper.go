package core

import (
	"time"

	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/plaxton"
	"github.com/gloss/active/internal/pubsub"
	"github.com/gloss/active/internal/wire"
)

// BrokerKeeper self-heals the event-service topology (§1.2: the
// infrastructure must adapt to "changes in the topology of the physical
// infrastructure"). Brokers form a tree; when a node's upstream broker
// dies, the whole subtree is cut off from the event service. The keeper
// probes the node's broker neighbours and, when the upstream link dies,
// reattaches to the nearest live ancestor — preserving acyclicity (a tree
// edit) — then resynchronises subscription state over the new link.
type BrokerKeeper struct {
	ep     netapi.Endpoint
	broker *pubsub.Broker
	// ancestors is the upstream fallback chain: parent first, then
	// grandparent, …, root. Empty for the root itself.
	ancestors []ids.ID
	upstream  ids.ID // current upstream (zero for the root)
	interval  time.Duration
	timeout   time.Duration
	inflight  map[ids.ID]bool
	stopped   bool

	// Reattachments counts upstream topology repairs performed.
	Reattachments uint64
	// Pruned counts dead downstream links removed.
	Pruned uint64
}

// NewBrokerKeeper builds a keeper; call Start to begin probing. ancestors
// must be ordered parent-first. A node with no ancestors (the root) still
// prunes dead downstream neighbours.
func NewBrokerKeeper(ep netapi.Endpoint, broker *pubsub.Broker, ancestors []ids.ID, interval time.Duration) *BrokerKeeper {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	k := &BrokerKeeper{
		ep:        ep,
		broker:    broker,
		ancestors: append([]ids.ID(nil), ancestors...),
		interval:  interval,
		timeout:   interval / 2,
		inflight:  make(map[ids.ID]bool),
	}
	if len(ancestors) > 0 {
		k.upstream = ancestors[0]
	}
	return k
}

// Start begins periodic upstream probing.
func (k *BrokerKeeper) Start() {
	var tick func()
	tick = func() {
		if k.stopped {
			return
		}
		k.probe()
		k.ep.Clock().After(k.interval, tick)
	}
	k.ep.Clock().After(k.interval, tick)
}

// Stop halts probing.
func (k *BrokerKeeper) Stop() { k.stopped = true }

// Upstream returns the current upstream broker (zero for the root).
func (k *BrokerKeeper) Upstream() ids.ID { return k.upstream }

// probe pings every broker neighbour: a dead upstream triggers a
// reattachment climb; a dead downstream link is simply pruned so events
// stop flowing into the void.
func (k *BrokerKeeper) probe() {
	for _, n := range k.broker.Neighbors() {
		if k.inflight[n] {
			continue
		}
		k.inflight[n] = true
		k.ep.Request(n, &plaxton.PingMsg{}, k.timeout, func(_ wire.Message, err error) {
			delete(k.inflight, n)
			if err == nil {
				return
			}
			if n == k.upstream {
				k.reattach()
				return
			}
			k.Pruned++
			k.broker.RemoveNeighbor(n)
		})
	}
}

// reattach severs the dead upstream link and climbs the ancestor chain to
// the next candidate. The candidate is verified by the next probe round;
// if it is also dead, the climb continues.
func (k *BrokerKeeper) reattach() {
	dead := k.upstream
	k.broker.RemoveNeighbor(dead)
	next, ok := k.nextAncestor(dead)
	if !ok {
		k.upstream = ids.Zero // became a root: nothing live above us
		return
	}
	k.upstream = next
	k.Reattachments++
	joinBroker(k.ep, k.broker, next)
}

// joinBroker links broker to parent as a tree edge. Both ends must treat
// the link as broker-to-broker: the peer message makes the parent register
// the broker and resync its own state toward it, and AddNeighbor and
// Resync do the same on this side.
func joinBroker(ep netapi.Endpoint, broker *pubsub.Broker, parent ids.ID) {
	ep.Send(parent, &pubsub.PeerMsg{})
	broker.AddNeighbor(parent)
	broker.Resync()
}

// nextAncestor returns the ancestor after the given one in the chain.
func (k *BrokerKeeper) nextAncestor(after ids.ID) (ids.ID, bool) {
	for i, a := range k.ancestors {
		if a == after && i+1 < len(k.ancestors) {
			return k.ancestors[i+1], true
		}
	}
	return ids.Zero, false
}

// maxBrokerChildren caps how many children brokerParents gives a broker,
// and so each broker's fan-out. On world-sim a cap of 2 put the journey
// p50 at 178 virtual ms; 3 and 4 gave 113 and 110 (seed 1), and the same
// 113 on seed 7.
const maxBrokerChildren = 3

// brokerParents is the broker tree's shape, the one rule every world and
// every keeper reads. Node i's parent is the nearest of nodes 0..i-1 by
// Coord distance among those with fewer than maxBrokerChildren children;
// equal distances go to the lower ids.Cmp ID. parents[0] is -1: node 0 is
// the root. The rule reads only Coord, so it means the same on simnet and
// over TCP, and each parent index is below its child's, so the edges form
// a tree.
func brokerParents(nodes []netapi.NodeInfo) []int {
	parents := make([]int, len(nodes))
	children := make([]int, len(nodes))
	for i, n := range nodes {
		best, bestKm := -1, 0.0
		for j := range i {
			if children[j] >= maxBrokerChildren {
				continue
			}
			km := n.Coord.DistanceKm(nodes[j].Coord)
			if best < 0 || km < bestKm || km == bestKm && ids.Cmp(nodes[j].ID, nodes[best].ID) < 0 {
				best, bestKm = j, km
			}
		}
		parents[i] = best
		if best >= 0 {
			children[best]++
		}
	}
	return parents
}

// StartBrokerKeepers wires a keeper on every node of the world's broker
// tree and starts them. Node i's fallback chain is its parent,
// grandparent, …, root, read from the tree NewWorld built; the root only
// prunes dead downstream links. Returns the keepers by node index.
func (w *World) StartBrokerKeepers(interval time.Duration) map[int]*BrokerKeeper {
	keepers := make(map[int]*BrokerKeeper, len(w.Nodes))
	for i := range w.Nodes {
		var chain []ids.ID
		for p := w.parents[i]; p >= 0; p = w.parents[p] {
			chain = append(chain, w.Nodes[p].ID())
		}
		k := NewBrokerKeeper(w.Nodes[i].Endpoint(), w.Nodes[i].Broker, chain, interval)
		k.Start()
		keepers[i] = k
	}
	return keepers
}
