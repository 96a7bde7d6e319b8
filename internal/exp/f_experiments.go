package exp

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/gloss/active/internal/bundle"
	"github.com/gloss/active/internal/core"
	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/match"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/pipeline"
	"github.com/gloss/active/internal/pubsub"
	"github.com/gloss/active/internal/simnet"
	"github.com/gloss/active/internal/wire"
)

// F1GlobalMatching reproduces Figure 1: the whole population's sensor
// streams flow through the global infrastructure; matchlets distil them
// into per-user meaningful events.
func F1GlobalMatching(quick bool) *Table {
	t := &Table{
		ID:     "E-F1",
		Title:  "Figure 1 — global matching: distillation and latency",
		Header: []string{"users", "low-level events", "suggestions", "distill ratio", "mean e2e ms", "evicted"},
	}
	userCounts := []int{8, 16, 32}
	if quick {
		userCounts = []int{8, 16}
	}
	for _, users := range userCounts {
		w := buildCore(100+int64(users), 9, 5*time.Second)
		w.RunFor(core.ScenarioStart - w.Sim.Now())
		// Keep every matchlet the service starts, to read its engine.
		var matchlets []*match.Matchlet
		for _, n := range w.Nodes {
			factory := match.NewMatchletFactory(n.KB, n.GIS)
			n.Programs.Register("matchlet", func(params map[string]string, data []byte) (bundle.Program, error) {
				p, err := factory(params, data)
				if err == nil {
					matchlets = append(matchlets, p.(*match.Matchlet))
				}
				return p, err
			})
		}
		svc, err := w.DeployService(core.IceCreamService(2, "eu"), 0)
		if err != nil {
			panic(err)
		}
		w.RunFor(20 * time.Second)
		_ = svc

		// Device clients subscribe for their own suggestions; one device
		// per user spread over nodes.
		rng := rand.New(rand.NewSource(23))
		suggestions := 0
		var latencies []time.Duration
		for u := 0; u < users; u++ {
			user := userName(u)
			node := w.Node(rng.Intn(len(w.Nodes)))
			node.Client.Subscribe(pubsub.NewFilter(
				pubsub.TypeIs("suggestion.meet"),
				pubsub.Eq("user", event.S(user)),
			), func(ev *event.Event) {
				suggestions++
				if src := ev.GetNum("srcTime"); src > 0 {
					latencies = append(latencies, w.Sim.Now()-time.Duration(int64(src)))
				}
			})
		}
		// Knowledge: everybody likes ice cream and has spare time; the
		// social graph links users u and u+4 — which pairs up exactly the
		// users strolling near the shop (u % 4 == 0).
		for u := 0; u < users; u++ {
			user := userName(u)
			for _, n := range w.Nodes {
				n.KB.AddSPO(user, "likes", "ice cream")
				n.KB.AddSPO(user, "hot-threshold", "18")
				n.KB.AddSPO(user, "knows", userName((u+4)%users))
				n.KB.AddSPO(user, "has-spare-time", "true")
			}
		}
		w.RunFor(5 * time.Second)

		// Sensor storm: each user walks near the shop area; two
		// thermometers report; most location events are far away and
		// produce nothing.
		published := 0
		seq := uint64(0)
		publish := func(ev *event.Event) {
			published++
			w.Node(int(seq) % len(w.Nodes)).Client.Publish(ev)
		}
		const rounds = 20
		for round := 0; round < rounds; round++ {
			seq++
			publish(event.New("weather.report", "thermo-eu", w.Sim.Now()).
				Set("region", event.S("eu")).Set("tempC", event.F(19.5)).Stamp(seq))
			for u := 0; u < users; u++ {
				seq++
				user := userName(u)
				// A quarter of users stroll near Market Street; the rest
				// are scattered far away.
				x, y := 400.0+float64(u), 400.0
				if u%4 == 0 {
					x, y = 10.2+float64(u)*0.01, 4.0
				}
				publish(event.New("gps.location", "gps-"+user, w.Sim.Now()).
					Set("user", event.S(user)).
					Set("x", event.F(x)).Set("y", event.F(y)).
					Stamp(seq))
			}
			w.RunFor(30 * time.Second)
		}
		w.RunFor(30 * time.Second)

		ratio := "∞"
		if suggestions > 0 {
			ratio = f1(float64(published) / float64(suggestions))
		}
		evicted := uint64(0)
		for _, m := range matchlets {
			evicted += m.Engine().Stats().Evicted
		}
		t.AddRow(fmt.Sprint(users), fmt.Sprint(published), fmt.Sprint(suggestions),
			ratio, ms(meanDur(latencies)), fmt.Sprint(evicted))
	}
	t.Notes = append(t.Notes, "suggestions only arise for acquainted users strolling near the shop in warm weather",
		"evicted: in-window events the matchlets' 64-event pattern buffers pushed out, summed over instances")
	return t
}

func userName(u int) string { return fmt.Sprintf("user-%02d", u) }

// F2Pipelines reproduces Figure 2: an XML pipeline distributed over two
// nodes, comparing intra-node and inter-node event flow.
func F2Pipelines(quick bool) *Table {
	t := &Table{
		ID:     "E-F2",
		Title:  "Figure 2 — distributed XML pipelines",
		Header: []string{"layout", "components", "events", "delivered", "mean latency ms"},
	}
	events := 400
	if quick {
		events = 150
	}
	for _, layout := range []string{"intra-node", "inter-node"} {
		for _, components := range []int{2, 6} {
			w := simnet.NewWorld(simnet.Config{Seed: 42})
			reg := wire.NewRegistry()
			pipeline.RegisterMessages(reg)
			nodeA := w.NewNode(ids.FromString("f2-a"), "eu", netapi.Coord{})
			nodeB := w.NewNode(ids.FromString("f2-b"), "us", netapi.Coord{X: 6000})

			delivered := 0
			var lats []time.Duration
			sinkDeps := pipeline.Deps{
				Clock: nodeB.Clock(),
				Deliver: func(ev *event.Event) {
					delivered++
					lats = append(lats, w.Now()-ev.Time)
				},
			}
			if layout == "intra-node" {
				sinkDeps.Clock = nodeA.Clock()
			}

			// Build the downstream half: counters then deliver.
			spec := &pipeline.Spec{Name: "down"}
			prev := ""
			for c := 0; c < components-1; c++ {
				name := fmt.Sprintf("c%d", c)
				spec.Components = append(spec.Components, pipeline.ComponentSpec{Name: name, Type: "counter"})
				if prev != "" {
					spec.Links = append(spec.Links, pipeline.LinkSpec{From: prev, To: name})
				}
				prev = name
			}
			spec.Components = append(spec.Components, pipeline.ComponentSpec{Name: "out", Type: "deliver"})
			if prev != "" {
				spec.Links = append(spec.Links, pipeline.LinkSpec{From: prev, To: "out"})
			}
			down, err := pipeline.Assemble(spec, pipeline.NewRegistry(), sinkDeps)
			if err != nil {
				panic(err)
			}

			var ingress func(*event.Event)
			if layout == "intra-node" {
				ingress = down.Put
			} else {
				rtB := pipeline.NewRuntime(nodeB)
				rtB.Add(down)
				upSpec := &pipeline.Spec{
					Name: "up",
					Components: []pipeline.ComponentSpec{{
						Name: "ship", Type: "remote",
						Params: []pipeline.Param{
							{Key: "target", Value: nodeB.ID().String()},
							{Key: "pipeline", Value: "down"},
						},
					}},
				}
				up, err := pipeline.Assemble(upSpec, pipeline.NewRegistry(),
					pipeline.Deps{Clock: nodeA.Clock(), Endpoint: nodeA})
				if err != nil {
					panic(err)
				}
				ingress = up.Put
			}

			for i := 0; i < events; i++ {
				ev := event.New("f2.tick", "gen", w.Now()).Set("n", event.I(int64(i))).Stamp(uint64(i))
				ingress(ev)
				w.RunFor(10 * time.Millisecond)
			}
			w.RunFor(5 * time.Second)
			t.AddRow(layout, fmt.Sprint(components), fmt.Sprint(events),
				fmt.Sprint(delivered), ms(meanDur(lats)))
		}
	}
	t.Notes = append(t.Notes, "inter-node latency is dominated by the 6000 km link (~61 ms)")
	return t
}

// F3Deployment reproduces Figure 3: thin servers assembling pipelines
// from code bundles pushed over the network.
func F3Deployment(quick bool) *Table {
	t := &Table{
		ID:     "E-F3",
		Title:  "Figure 3 — bundle deployment and pipeline assembly",
		Header: []string{"payload", "bundles", "deploy ok", "mean deploy RTT ms", "domains up"},
	}
	bundles := 12
	if quick {
		bundles = 6
	}
	for _, payloadKB := range []int{1, 16, 64} {
		w := buildCore(300+int64(payloadKB), 6, -1) // no advertising noise
		// Payload: a matchlet rule padded with a comment to size.
		rule := core.IceCreamRule()
		data, err := match.MarshalRule(rule)
		if err != nil {
			panic(err)
		}
		pad := make([]byte, payloadKB*1024-len(data)%1024)
		for i := range pad {
			pad[i] = 'x'
		}
		payload := append(data, []byte(fmt.Sprintf("<!-- %s -->", pad))...)

		// Matchlet payloads must parse; keep the rule untouched and pad
		// in a trailing comment (valid XML).
		deployed := 0
		var rtts []time.Duration
		for i := 0; i < bundles; i++ {
			target := w.Node(1 + i%(len(w.Nodes)-1))
			b, err := w.Mint(fmt.Sprintf("matchlet/f3-%d", i), "matchlet", payload)
			if err != nil {
				panic(err)
			}
			start := w.Sim.Now()
			bundle.Deploy(w.Node(0).Endpoint(), target.ID(), b, 10*time.Second, func(err error) {
				if err == nil {
					deployed++
					rtts = append(rtts, w.Sim.Now()-start)
				}
			})
			w.RunFor(500 * time.Millisecond)
		}
		w.RunFor(10 * time.Second)
		domains := 0
		for _, n := range w.Nodes {
			domains += len(n.Server.Domains())
		}
		t.AddRow(fmt.Sprintf("%d KiB", payloadKB), fmt.Sprint(bundles),
			fmt.Sprint(deployed), ms(meanDur(rtts)), fmt.Sprint(domains))
	}
	t.Notes = append(t.Notes, "RTT includes signature verification, capability checks and matchlet start")
	return t
}
