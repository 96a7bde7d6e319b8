package exp

import (
	"fmt"
	"strings"
	"time"

	"github.com/gloss/active/internal/knowledge"
	"github.com/gloss/active/internal/store"
)

// T17Knowledge measures the knowledge plane under concurrent writers:
// W brokers update the same subject at the same virtual instant (each
// adds its own observation plus a contested timed "location" slot), then
// every node fetches the subject once and the system runs until every
// node's KB holds the merged fact set — or a deadline passes. Causal sync
// with gossip anti-entropy converges to zero lost writes, at a measured
// wire cost (codec-accounted kb.* + store.* bytes from first publish to
// convergence).
func T17Knowledge(quick bool) *Table {
	t := &Table{
		ID:     "E-T17",
		Title:  "Knowledge plane convergence: concurrent writers × gossip period",
		Header: []string{"nodes", "writers", "gossip", "converged", "converge ms", "lost facts", "wire KB"},
	}
	// Seeds are per row (17000 was the retired last-writer-wins row), so
	// every row keeps the numbers EXPERIMENTS.md records for it.
	type cfg struct {
		seed           int64
		nodes, writers int
		gossip         time.Duration
	}
	rows := []cfg{
		{17001, 16, 2, time.Second},
		{17002, 16, 2, 2 * time.Second},
		{17003, 16, 4, time.Second},
		{17004, 32, 4, time.Second},
	}
	if quick {
		rows = []cfg{
			{17001, 10, 2, time.Second},
			{17002, 10, 3, time.Second},
		}
	}
	for _, r := range rows {
		gossip := fmt.Sprintf("%.0fs", r.gossip.Seconds())
		res, ok := t17Run(r.seed, r.nodes, r.writers, r.gossip)
		if !ok {
			t.AddRow(fmt.Sprint(r.nodes), fmt.Sprint(r.writers), gossip, "setup failed", "-", "-", "-")
			continue
		}
		conv := "never"
		if res.converged == r.nodes {
			conv = ms(res.convergeIn)
		}
		t.AddRow(fmt.Sprint(r.nodes), fmt.Sprint(r.writers), gossip,
			fmt.Sprintf("%d/%d", res.converged, r.nodes), conv,
			fmt.Sprint(res.lost), f1(res.wireKB))
	}
	t.Notes = append(t.Notes,
		"W writers publish concurrent updates to one subject at the same virtual instant; every node then fetches it once",
		"converged = nodes whose KB holds the full merged set (every writer's observation + the newest-validity location) at the 60 s deadline",
		"lost facts = merged-set facts missing from the worst node at the deadline",
		"wire KB = codec-accounted kb.* + store.* bytes from first publish until convergence (or deadline): store publishes and fetches plus gossip digests and version pushes")
	return t
}

type t17Result struct {
	converged  int
	convergeIn time.Duration
	lost       int
	wireKB     float64
}

// t17Run executes one concurrent-writer scenario and reports convergence.
func t17Run(seed int64, nodes, writers int, gossip time.Duration) (t17Result, bool) {
	c := buildCluster(clusterCfg{
		seed: seed, nodes: nodes, withStores: true,
		// Background repair off: the wire window should charge the
		// knowledge plane's own traffic, not replica maintenance.
		storeOpts: store.Options{RepairInterval: -1},
		codec:     "bin",
	})
	kbs := make([]*knowledge.KB, nodes)
	sys := make([]*knowledge.Syncer, nodes)
	for i := 0; i < nodes; i++ {
		kbs[i] = knowledge.NewKB()
		sys[i] = knowledge.NewSyncer(c.stores[i], kbs[i], knowledge.Options{
			GossipInterval: gossip,
		})
	}
	// Concurrent updates: writer w records its own observation plus a
	// competing timed location; the latest-starting interval must win.
	for w := 0; w < writers; w++ {
		kbs[w].AddSPO("bob", fmt.Sprintf("obs-%d", w), "seen")
		kbs[w].Add(knowledge.Fact{
			S: "bob", P: "location", O: fmt.Sprintf("loc-%d", w),
			From: time.Duration(10+w) * time.Hour, To: time.Duration(11+w) * time.Hour,
		})
	}
	wantLoc := fmt.Sprintf("loc-%d", writers-1)
	w0 := t17KnowledgeBytes(c)
	start := c.world.Now()
	for w := 0; w < writers; w++ {
		sys[w].PublishSubject("bob", func(error) {})
	}
	c.world.RunFor(2 * time.Second)
	for i := 0; i < nodes; i++ {
		sys[i].FetchSubject("bob", func(error) {})
	}

	nodeConverged := func(kb *knowledge.KB) bool {
		for w := 0; w < writers; w++ {
			if !kb.Ask("bob", fmt.Sprintf("obs-%d", w), "seen", -1) {
				return false
			}
		}
		o, _ := kb.One("bob", "location", -1)
		return o == wantLoc
	}
	allConverged := func() int {
		n := 0
		for _, kb := range kbs {
			if nodeConverged(kb) {
				n++
			}
		}
		return n
	}

	deadline := start + 60*time.Second
	var res t17Result
	for c.world.Now() < deadline {
		if res.converged = allConverged(); res.converged == nodes {
			break
		}
		c.world.RunFor(500 * time.Millisecond)
	}
	res.converged = allConverged()
	res.convergeIn = c.world.Now() - start
	res.wireKB = float64(t17KnowledgeBytes(c)-w0) / 1024

	// Lost writes: merged-set facts (writers' observations + the winning
	// location) missing from the worst node.
	total := writers + 1
	for _, kb := range kbs {
		have := 0
		for w := 0; w < writers; w++ {
			if kb.Ask("bob", fmt.Sprintf("obs-%d", w), "seen", -1) {
				have++
			}
		}
		if o, _ := kb.One("bob", "location", -1); o == wantLoc {
			have++
		}
		if lost := total - have; lost > res.lost {
			res.lost = lost
		}
	}
	return res, true
}

// t17KnowledgeBytes sums codec-accounted bytes over the knowledge plane:
// kb.* gossip frames plus the store.* traffic carrying publishes and
// fetches.
func t17KnowledgeBytes(c *overlayCluster) uint64 {
	var n uint64
	for kind, b := range c.world.Metrics().BytesByKind {
		if strings.HasPrefix(kind, "kb.") || strings.HasPrefix(kind, "store.") {
			n += b
		}
	}
	return n
}
