package exp

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/plaxton"
	"github.com/gloss/active/internal/store"
	"github.com/gloss/active/internal/wire"
)

// T1PlaxtonRouting measures deterministic prefix routing as the network
// grows: hops must scale ~log16(N) with 100% delivery (§3, §4.5).
func T1PlaxtonRouting(quick bool) *Table {
	t := &Table{
		ID:     "E-T1",
		Title:  "Plaxton routing: hops and latency vs network size",
		Header: []string{"nodes", "probes", "delivered", "mean hops", "p99 hops", "mean latency ms"},
	}
	sizes := []int{16, 64, 256}
	probes := 300
	if quick {
		sizes = []int{16, 64}
		probes = 100
	}
	for _, n := range sizes {
		c := buildCluster(clusterCfg{seed: 1000 + int64(n), nodes: n,
			overlay: plaxton.Options{HeartbeatInterval: -1}})
		rng := rand.New(rand.NewSource(7))
		type probe struct {
			sent time.Duration
		}
		sentAt := make(map[ids.ID]probe, probes)
		var hops []time.Duration // reuse duration slice for percentile on hops
		var hopCounts []int
		var lats []time.Duration
		delivered := 0
		for _, ov := range c.overlays {
			ov.OnDeliver("test.probe", func(info plaxton.RouteInfo, _ wire.Message) {
				delivered++
				hopCounts = append(hopCounts, info.Hops)
				hops = append(hops, time.Duration(info.Hops))
				if p, ok := sentAt[info.Key]; ok {
					lats = append(lats, c.world.Now()-p.sent)
				}
			})
		}
		for i := 0; i < probes; i++ {
			key := ids.Random(rng)
			src := c.overlays[rng.Intn(n)]
			sentAt[key] = probe{sent: c.world.Now()}
			_ = src.Route(key, &probeMsg{})
			c.world.RunFor(50 * time.Millisecond)
		}
		c.world.RunFor(10 * time.Second)
		var hopSum int
		for _, h := range hopCounts {
			hopSum += h
		}
		meanHops := 0.0
		if len(hopCounts) > 0 {
			meanHops = float64(hopSum) / float64(len(hopCounts))
		}
		t.AddRow(
			fmt.Sprint(n), fmt.Sprint(probes),
			pct(uint64(delivered), uint64(probes)),
			f2(meanHops),
			fmt.Sprint(int(percentileDur(hops, 99))),
			ms(meanDur(lats)),
		)
	}
	t.Notes = append(t.Notes, "expect mean hops ≈ log16(N); delivery 100% in a static network")
	return t
}

// probeMsg is the routed no-op payload for T1.
type probeMsg struct{}

// Kind implements wire.Message.
func (probeMsg) Kind() string { return "test.probe" }

// T2ReplicaResilience measures object availability after killing a
// fraction of nodes, with and without the RAID-like self-healing of §4.6.
func T2ReplicaResilience(quick bool) *Table {
	t := &Table{
		ID:     "E-T2",
		Title:  "Replica resilience under node failure (k=3)",
		Header: []string{"killed %", "healing", "objects", "available", "repair pushes"},
	}
	// Full mode runs the storage plane at 100× the seed table's object
	// count and body size (4000 × ~2 KiB vs 40 × ~20 B): the digest
	// repair and chunked-transfer machinery must hold up at volume, not
	// just on toy workloads.
	nodes, objects, pad := 48, 4000, 2048
	if quick {
		nodes, objects, pad = 24, 20, 0
	}
	// Failures arrive in three waves with time between them: self-healing
	// restores the replication degree between waves (the RAID analogy of
	// §4.6); without healing, losses accumulate until whole replica sets
	// are gone.
	for _, frac := range []float64{0.25, 0.50} {
		for _, healing := range []bool{false, true} {
			repair := time.Duration(-1)
			if healing {
				repair = 2 * time.Second
			}
			c := buildCluster(clusterCfg{
				seed: 2000 + int64(frac*100), nodes: nodes, withStores: true,
				overlay:   plaxton.Options{HeartbeatInterval: time.Second, ProbeTimeout: 300 * time.Millisecond},
				storeOpts: store.Options{Replicas: 3, RepairInterval: repair, RequestTimeout: 2 * time.Second},
			})
			// Store objects from random nodes, paced so thousands of puts
			// don't all race the same settle window.
			guids := make([]ids.ID, objects)
			for i := 0; i < objects; i++ {
				content := []byte(fmt.Sprintf("object-%d-%v", i, healing))
				if pad > 0 {
					content = append(content, make([]byte, pad)...)
				}
				guids[i] = store.GUIDFor(content)
				c.stores[i%nodes].Put(content, func(ids.ID, error) {})
				if i%50 == 49 {
					c.world.RunFor(500 * time.Millisecond)
				}
			}
			c.world.RunFor(10 * time.Second)
			var basePushes uint64
			for _, s := range c.stores {
				basePushes += s.Stats().RepairPushes
			}
			// Kill in 3 waves (never node 0, the reader), healing window
			// between waves.
			rng := rand.New(rand.NewSource(99))
			kill := int(frac * float64(nodes))
			killed := map[int]bool{}
			for wave := 0; wave < 3; wave++ {
				target := kill * (wave + 1) / 3
				for len(killed) < target {
					v := 1 + rng.Intn(nodes-1)
					if !killed[v] {
						killed[v] = true
						c.node(v).Kill()
					}
				}
				c.world.RunFor(12 * time.Second)
			}
			// Availability probe from survivor 0, pipelined in small bursts
			// so the full-scale run's 4000 reads stay inside sim minutes.
			ok := 0
			for i, g := range guids {
				c.stores[0].Get(g, func(_ []byte, err error) {
					if err == nil {
						ok++
					}
				})
				if quick || i%10 == 9 {
					c.world.RunFor(200 * time.Millisecond)
				}
			}
			c.world.RunFor(15 * time.Second)
			var pushes uint64
			for i, s := range c.stores {
				if !killed[i] {
					pushes += s.Stats().RepairPushes
				}
			}
			if pushes > basePushes {
				pushes -= basePushes
			} else {
				pushes = 0
			}
			t.AddRow(
				fmt.Sprintf("%.0f%%", frac*100),
				fmt.Sprint(healing),
				fmt.Sprint(objects),
				pct(uint64(ok), uint64(objects)),
				fmt.Sprint(pushes),
			)
		}
	}
	t.Notes = append(t.Notes,
		"failures arrive in 3 waves with 12s healing windows between them",
		"healing=true runs replica maintenance every 2s; healing=false disables it")
	return t
}

// T3PromiscuousCaching measures read latency and origin load under a
// Zipf-skewed read workload, with the promiscuous cache on and off (§4.5).
func T3PromiscuousCaching(quick bool) *Table {
	t := &Table{
		ID:     "E-T3",
		Title:  "Promiscuous caching under Zipf reads",
		Header: []string{"cache", "reads", "mean latency ms", "p99 ms", "root answers", "path cache hits", "local hits"},
	}
	nodes, objects, reads := 40, 30, 400
	if quick {
		nodes, objects, reads = 24, 15, 150
	}
	for _, disable := range []bool{true, false} {
		c := buildCluster(clusterCfg{
			seed: 3000, nodes: nodes, withStores: true,
			overlay: plaxton.Options{HeartbeatInterval: -1},
			storeOpts: store.Options{
				Replicas: 1, RepairInterval: -1,
				DisableCache: disable,
			},
		})
		guids := make([]ids.ID, objects)
		for i := 0; i < objects; i++ {
			content := []byte(fmt.Sprintf("cached-object-%03d with some body text to give it weight", i))
			guids[i] = store.GUIDFor(content)
			c.stores[i%nodes].Put(content, func(ids.ID, error) {})
		}
		c.world.RunFor(10 * time.Second)

		rng := rand.New(rand.NewSource(5))
		zipf := rand.NewZipf(rng, 1.2, 1, uint64(objects-1))
		var lats []time.Duration
		okReads := 0
		for i := 0; i < reads; i++ {
			obj := guids[int(zipf.Uint64())]
			reader := c.stores[rng.Intn(nodes)]
			start := c.world.Now()
			reader.Get(obj, func(_ []byte, err error) {
				if err == nil {
					okReads++
					lats = append(lats, c.world.Now()-start)
				}
			})
			c.world.RunFor(150 * time.Millisecond)
		}
		c.world.RunFor(10 * time.Second)
		var roots, cacheHits, localHits uint64
		for _, s := range c.stores {
			st := s.Stats()
			roots += st.RootAnswers
			cacheHits += st.CacheHits
			localHits += st.LocalHits
		}
		mode := "on"
		if disable {
			mode = "off"
		}
		t.AddRow(mode, fmt.Sprint(okReads), ms(meanDur(lats)), ms(percentileDur(lats, 99)),
			fmt.Sprint(roots), fmt.Sprint(cacheHits), fmt.Sprint(localHits))
	}
	t.Notes = append(t.Notes, "Zipf s=1.2 over the object population; k=1 so every miss must reach the root")
	return t
}
