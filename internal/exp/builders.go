package exp

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/knowledge"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/plaxton"
	"github.com/gloss/active/internal/simnet"
	"github.com/gloss/active/internal/store"
	"github.com/gloss/active/internal/wire"
)

// overlayCluster is a joined Plaxton overlay (optionally with stores) on
// a simulated WAN, the substrate for the routing/storage experiments.
type overlayCluster struct {
	world    *simnet.World
	reg      *wire.Registry
	overlays []*plaxton.Overlay
	stores   []*store.Store
	rng      *rand.Rand
}

type clusterCfg struct {
	seed       int64
	nodes      int
	withStores bool
	storeOpts  store.Options
	overlay    plaxton.Options
	// codec enables wire-byte accounting in the world's Metrics:
	// "bin" installs the binary codec, "xml" the open XML reference
	// format, "" leaves accounting off (the default — sizing costs an
	// encode pass per message).
	codec string
}

// buildCluster boots the overlay; joins run sequentially.
func buildCluster(cfg clusterCfg) *overlayCluster {
	w := simnet.NewWorld(simnet.Config{Seed: cfg.seed})
	reg := wire.NewRegistry()
	plaxton.RegisterMessages(reg)
	store.RegisterMessages(reg)
	knowledge.RegisterMessages(reg)
	reg.Register(&probeMsg{}) //vetactive:xmlfallback experiment probe, not a production kind
	nodeCodec := wire.CodecXML
	switch cfg.codec {
	case "bin":
		w.SetCodec(wire.NewBinaryCodec(reg))
		nodeCodec = wire.CodecBinary
	case "xml":
		w.SetCodec(reg)
	}
	c := &overlayCluster{
		world: w,
		reg:   reg,
		rng:   rand.New(rand.NewSource(cfg.seed)),
	}
	for i := 0; i < cfg.nodes; i++ {
		id := ids.Random(c.rng)
		node := w.NewNode(id, fmt.Sprintf("r%d", i%3),
			netapi.Coord{X: c.rng.Float64() * 8000, Y: c.rng.Float64() * 4000})
		ov := plaxton.New(node, reg, nodeCodec, cfg.overlay)
		c.overlays = append(c.overlays, ov)
		if cfg.withStores {
			c.stores = append(c.stores, store.New(node, ov, cfg.storeOpts))
		}
	}
	c.overlays[0].CreateNetwork()
	for i := 1; i < cfg.nodes; i++ {
		c.overlays[i].Join(c.overlays[c.rng.Intn(i)].ID(), nil)
		w.RunFor(1500 * time.Millisecond)
	}
	w.RunFor(3 * time.Second)
	return c
}

// node returns the simnet node backing overlay i.
func (c *overlayCluster) node(i int) *simnet.Node {
	return c.world.Node(c.overlays[i].ID())
}
