package exp

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/pubsub"
	"github.com/gloss/active/internal/simnet"
)

// busWorld is a broker chain with clients for the pub/sub experiments.
type busWorld struct {
	world   *simnet.World
	brokers []*pubsub.Broker
	clients []*pubsub.Client
}

func buildBus(seed int64, brokers, clientsPerBroker int, opts pubsub.Options) *busWorld {
	w := simnet.NewWorld(simnet.Config{Seed: seed})
	b := &busWorld{world: w}
	for i := 0; i < brokers; i++ {
		n := w.NewNode(ids.FromString(fmt.Sprintf("bus-broker-%d", i)), "r",
			netapi.Coord{X: float64(i) * 200})
		b.brokers = append(b.brokers, pubsub.NewBroker(n, opts))
		if i > 0 {
			pubsub.ConnectBrokers(b.brokers[i-1], b.brokers[i])
		}
	}
	for i := 0; i < brokers*clientsPerBroker; i++ {
		bi := i % brokers
		n := w.NewNode(ids.FromString(fmt.Sprintf("bus-client-%d", i)), "r",
			netapi.Coord{X: float64(bi) * 200})
		b.clients = append(b.clients, pubsub.NewClient(n, b.brokers[bi].ID()))
	}
	return b
}

// T4PubSubScaling measures broker routing state and per-publish cost as
// subscriptions grow, with covering-based pruning on and off (§4.1).
// The widest setting (1200 subscriptions over 24 brokers, 300 distinct
// users) drives the broker tables into the regime where the predicate
// index matters.
func T4PubSubScaling(quick bool) *Table {
	t := &Table{
		ID:     "E-T4",
		Title:  "Content-based pub/sub scaling; covering ablation",
		Header: []string{"brokers", "subs", "covering", "table entries", "fwd subs", "broker fwds/pub", "deliveries/pub"},
	}
	brokerCounts := []int{8, 24}
	subCounts := []int{120, 360, 1200}
	if quick {
		brokerCounts = []int{8}
		subCounts = []int{120}
	}
	for _, nb := range brokerCounts {
		for _, ns := range subCounts {
			// Scale the user population with the subscription count so
			// large runs grow the number of *distinct* filters (and with
			// it the predicate index), not just subscriber fan-in.
			users := 30
			if ns >= 1200 {
				users = 300
			}
			for _, disableCovering := range []bool{false, true} {
				b := buildBus(4000+int64(nb), nb, 4, pubsub.Options{DisableCovering: disableCovering})
				rng := rand.New(rand.NewSource(11))
				delivered := 0
				// Subscription mix: 1/4 broad (type only), 3/4 narrow
				// (type + user) — narrow subs are covered by broad ones
				// at shared brokers.
				for i := 0; i < ns; i++ {
					cl := b.clients[rng.Intn(len(b.clients))]
					var f pubsub.Filter
					if i%4 == 0 {
						f = pubsub.NewFilter(pubsub.TypeIs("gps.location"))
					} else {
						user := fmt.Sprintf("user-%02d", rng.Intn(users))
						f = pubsub.NewFilter(pubsub.TypeIs("gps.location"),
							pubsub.Eq("user", event.S(user)))
					}
					cl.Subscribe(f, func(*event.Event) { delivered++ })
				}
				b.world.RunFor(30 * time.Second)

				// Reset stats, publish a batch, measure marginal cost.
				var beforeFwds, beforeDeliv uint64
				for _, br := range b.brokers {
					st := br.Stats()
					beforeFwds += st.NeighborFwds
					beforeDeliv += st.ClientDelivers
				}
				const pubs = 100
				for i := 0; i < pubs; i++ {
					cl := b.clients[rng.Intn(len(b.clients))]
					cl.Publish(event.New("gps.location", "gps", b.world.Now()).
						Set("user", event.S(fmt.Sprintf("user-%02d", rng.Intn(users)))).
						Set("x", event.F(1)).Set("y", event.F(2)).
						Stamp(uint64(1000 + i)))
					b.world.RunFor(200 * time.Millisecond)
				}
				b.world.RunFor(10 * time.Second)

				var entries, fwdSubs int
				var fwds, deliv uint64
				for _, br := range b.brokers {
					st := br.Stats()
					entries += st.TableEntries
					fwdSubs += st.ForwardedSubs
					fwds += st.NeighborFwds
					deliv += st.ClientDelivers
				}
				t.AddRow(
					fmt.Sprint(nb), fmt.Sprint(ns), fmt.Sprint(!disableCovering),
					fmt.Sprint(entries), fmt.Sprint(fwdSubs),
					f2(float64(fwds-beforeFwds)/pubs),
					f2(float64(deliv-beforeDeliv)/pubs),
				)
			}
		}
	}
	t.Notes = append(t.Notes, "covering=true prunes subscription propagation; deliveries are identical either way")
	return t
}

// T9MobilityHandoff compares the Mobikit-style buffering proxy against a
// naive unsubscribe/resubscribe move (§3).
func T9MobilityHandoff(quick bool) *Table {
	t := &Table{
		ID:     "E-T9",
		Title:  "Mobile subscriber handoff: proxy vs naive",
		Header: []string{"mode", "published", "received", "lost", "duplicates", "handoff ms"},
	}
	pubCount := 40
	if quick {
		pubCount = 20
	}
	for _, mode := range []string{"naive", "proxy"} {
		b := buildBus(9000, 6, 1, pubsub.Options{})
		mobile := b.clients[0]
		publisher := b.clients[5]
		received := 0
		f := pubsub.NewFilter(pubsub.TypeIs("stream.tick"))
		mobile.Subscribe(f, func(*event.Event) { received++ })
		b.world.RunFor(5 * time.Second)

		seq := uint64(0)
		publish := func() {
			seq++
			publisher.Publish(event.New("stream.tick", "pub", b.world.Now()).Stamp(seq))
			b.world.RunFor(250 * time.Millisecond)
		}
		// Phase 1: attached at broker 0.
		for i := 0; i < pubCount/4; i++ {
			publish()
		}
		// Phase 2: travelling.
		var handoff time.Duration
		if mode == "proxy" {
			mobile.Detach()
		} else {
			mobile.Unsubscribe(f)
		}
		b.world.RunFor(2 * time.Second)
		for i := 0; i < pubCount/2; i++ {
			publish()
		}
		// Phase 3: reattach at broker 4.
		start := b.world.Now()
		if mode == "proxy" {
			var completedAt time.Duration
			mobile.AttachTo(b.brokers[4].ID(), 10*time.Second, func(int, error) {
				completedAt = b.world.Now()
			})
			b.world.RunFor(5 * time.Second)
			handoff = completedAt - start
		} else {
			// Naive: plain re-subscription at the new broker; events
			// published while detached are gone.
			mobile.AttachTo(b.brokers[4].ID(), 10*time.Second, nil)
			mobile.Subscribe(f, func(*event.Event) { received++ })
			b.world.RunFor(5 * time.Second)
			handoff = 0 // nothing to hand off
		}
		for i := 0; i < pubCount/4; i++ {
			publish()
		}
		b.world.RunFor(5 * time.Second)

		lost := int(seq) - received
		t.AddRow(mode, fmt.Sprint(seq), fmt.Sprint(received), fmt.Sprint(lost),
			fmt.Sprint(mobile.Duplicates), ms(handoff))
	}
	t.Notes = append(t.Notes, "half the stream is published while the subscriber is detached")
	return t
}
