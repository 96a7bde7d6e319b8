package active

// One benchmark per experiment in EXPERIMENTS.md (E-F1..E-F3 reproduce
// the paper's figures; E-T1..E-T10 back its quantitative claims), plus
// micro-benchmarks of the hottest code paths. The macro benchmarks run a
// full deterministic world per iteration and report the headline metric
// via b.ReportMetric; run cmd/benchtab for the full tables.

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/exp"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/knowledge"
	"github.com/gloss/active/internal/match"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/pubsub"
	"github.com/gloss/active/internal/simnet"
	"github.com/gloss/active/internal/vclock"
	"github.com/gloss/active/internal/wire"
)

// report parses a numeric table cell and reports it as a benchmark metric.
func report(b *testing.B, tab *exp.Table, row, col int, unit string) {
	b.Helper()
	reportCell(b, tab.Rows[row][col], unit)
}

// reportBy is report for tables whose row set changes with the code under
// test: the row is named by its labels (exp.Table.Cell), so a dropped or
// reordered row fails the benchmark instead of re-pointing the metric.
func reportBy(b *testing.B, tab *exp.Table, col, unit string, where ...string) {
	b.Helper()
	reportCell(b, tab.Cell(col, where...), unit)
}

func reportCell(b *testing.B, cell, unit string) {
	b.Helper()
	cell = strings.TrimSuffix(cell, "%")
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		b.Fatalf("cell %q not numeric: %v", cell, err)
	}
	b.ReportMetric(v, unit)
}

func BenchmarkE_F1_GlobalMatching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := exp.F1GlobalMatching(true)
		report(b, tab, 0, 3, "distill-ratio")
	}
}

func BenchmarkE_F2_Pipelines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := exp.F2Pipelines(true)
		report(b, tab, 2, 4, "inter-node-ms")
	}
}

func BenchmarkE_F3_Deployment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := exp.F3Deployment(true)
		report(b, tab, 0, 3, "deploy-rtt-ms")
	}
}

func BenchmarkE_T1_PlaxtonRouting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := exp.T1PlaxtonRouting(true)
		report(b, tab, len(tab.Rows)-1, 3, "mean-hops")
	}
}

func BenchmarkE_T2_ReplicaResilience(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := exp.T2ReplicaResilience(true)
		report(b, tab, len(tab.Rows)-1, 3, "healed-avail-pct")
	}
}

func BenchmarkE_T3_PromiscuousCaching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := exp.T3PromiscuousCaching(true)
		report(b, tab, 1, 2, "cached-read-ms")
	}
}

func BenchmarkE_T4_PubSubScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := exp.T4PubSubScaling(true)
		report(b, tab, 0, 4, "fwd-subs")
	}
}

func BenchmarkE_T5_MatchThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := exp.T5MatchThroughput(true)
		report(b, tab, 0, 3, "events-per-sec")
	}
}

func BenchmarkE_T6_EvolutionRepair(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := exp.T6EvolutionRepair(true)
		report(b, tab, 0, 2, "repair-ms")
	}
}

func BenchmarkE_T7_PlacementPolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := exp.T7PlacementPolicies(true)
		report(b, tab, 2, 3, "latency-policy-ms")
	}
}

func BenchmarkE_T8_TypeProjection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := exp.T8TypeProjection(true)
		report(b, tab, 0, 2, "us-per-doc")
	}
}

func BenchmarkE_T9_MobilityHandoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := exp.T9MobilityHandoff(true)
		report(b, tab, 1, 5, "handoff-ms")
	}
}

func BenchmarkE_T10_Discovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := exp.T10Discovery(true)
		report(b, tab, 0, 1, "discovery-ms")
	}
}

func BenchmarkE_T11_WireFormat(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := exp.T11WireFormat(true)
		report(b, tab, 0, 3, "bytes-ratio")
		report(b, tab, 0, 6, "enc-speedup")
	}
}

func BenchmarkE_T13_Backpressure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := exp.T13Backpressure(true)
		reportBy(b, tab, "drop %", "sim-smallest-budget-drop-pct", "path", "sim/burst", "budget", "31KiB") // must stay > 0: budget engaged
		reportBy(b, tab, "drop %", "tcp-largest-budget-drop-pct", "path", "tcp/burst", "budget", "4MiB")   // should stay ~0: budget absorbs the burst
	}
}

func BenchmarkE_T16_StoragePlane(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := exp.T16StoragePlane(true)
		reportBy(b, tab, "payload KB", "digest-payload-kb", "object KiB", "64", "chunk KiB", "16", "codec", "bin")
		reportBy(b, tab, "wire KB", "erasure-wire-kb", "repair", "erasure")
		reportBy(b, tab, "wire KB", "recopy-wire-kb", "repair", "recopy") // acceptance: ≥3x the erasure row at full size (exp_test.go)
	}
}

func BenchmarkE_T17_Knowledge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := exp.T17Knowledge(true)
		reportBy(b, tab, "converge ms", "causal-converge-ms", "writers", "2")
		reportBy(b, tab, "lost facts", "causal-lost-facts", "writers", "2") // acceptance: 0
		reportBy(b, tab, "wire KB", "causal-wire-kb", "writers", "2")
	}
}

// --- micro-benchmarks of hot paths ------------------------------------------

// BenchmarkBrokerPublishWorld measures the full per-publish path through
// the simulated network — client → broker chain → matched subscribers —
// with the counting predicate index doing the matching at every hop.
// (internal/pubsub's BenchmarkBrokerPublish isolates matching cost alone,
// index vs the linear-scan oracle.)
func BenchmarkBrokerPublishWorld(b *testing.B) {
	w := simnet.NewWorld(simnet.Config{Seed: 7})
	var brokers []*pubsub.Broker
	for i := 0; i < 4; i++ {
		n := w.NewNode(ids.FromString(fmt.Sprintf("bb-%d", i)), "eu",
			netapi.Coord{X: float64(i) * 100})
		brokers = append(brokers, pubsub.NewBroker(n, pubsub.Options{}))
		if i > 0 {
			pubsub.ConnectBrokers(brokers[i-1], brokers[i])
		}
	}
	delivered := 0
	for i := 0; i < 100; i++ {
		n := w.NewNode(ids.FromString(fmt.Sprintf("bb-sub-%d", i)), "eu",
			netapi.Coord{X: float64(i % 4 * 100)})
		c := pubsub.NewClient(n, brokers[i%4].ID())
		c.Subscribe(pubsub.NewFilter(pubsub.TypeIs("gps.location"),
			pubsub.Eq("user", event.S(fmt.Sprintf("user-%02d", i)))),
			func(*event.Event) { delivered++ })
	}
	pn := w.NewNode(ids.FromString("bb-pub"), "eu", netapi.Coord{})
	pub := pubsub.NewClient(pn, brokers[0].ID())
	w.RunFor(30 * time.Second)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pub.Publish(event.New("gps.location", "gps", w.Now()).
			Set("user", event.S(fmt.Sprintf("user-%02d", i%100))).
			Stamp(uint64(i)))
		w.RunFor(time.Second)
	}
	if delivered == 0 {
		b.Fatal("no deliveries")
	}
}

func BenchmarkFilterMatch(b *testing.B) {
	f := NewFilter(TypeIs("gps.location"), Eq("user", S("bob")), Gt("x", F(5)))
	ev := NewEvent("gps.location", "gps", 0).
		Set("user", S("bob")).Set("x", F(10)).Set("y", F(4)).Stamp(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !f.Matches(ev) {
			b.Fatal("must match")
		}
	}
}

func BenchmarkFilterCovers(b *testing.B) {
	broad := NewFilter(TypeIs("gps.location"), Gt("x", F(0)))
	narrow := NewFilter(TypeIs("gps.location"), Eq("user", S("bob")), Gt("x", F(5)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !pubsub.Covers(broad, narrow) {
			b.Fatal("must cover")
		}
	}
}

// BenchmarkEnvelopeEncode measures both codecs on the E-T11 envelope
// shapes: a pub/sub event publish at three payload sizes. The bytes/msg
// metric is the encoded frame length — the quantity simnet's bandwidth
// accounting and the transport both pay per message.
func BenchmarkEnvelopeEncode(b *testing.B) {
	reg := wire.NewRegistry()
	pubsub.RegisterMessages(reg)
	bin := wire.NewBinaryCodec(reg)
	mkEvent := func(attrs, body int) *event.Event {
		ev := NewEvent("weather.report", "thermo-eu", time.Second)
		for i := 0; i < attrs; i++ {
			switch i % 3 {
			case 0:
				ev.Set(fmt.Sprintf("s%02d", i), S(fmt.Sprintf("value-%d", i)))
			case 1:
				ev.Set(fmt.Sprintf("n%02d", i), I(int64(i)*1001))
			default:
				ev.Set(fmt.Sprintf("f%02d", i), F(float64(i)*3.25))
			}
		}
		if body > 0 {
			ev.SetBody("<payload>" + strings.Repeat("x", body) + "</payload>")
		}
		return ev.Stamp(1)
	}
	sizes := []struct {
		name        string
		attrs, body int
	}{
		{"small", 3, 0},
		{"medium", 8, 0},
		{"large", 24, 512},
	}
	for _, size := range sizes {
		env := &wire.Envelope{
			From: ids.FromString("bench-from"),
			To:   ids.FromString("bench-to"),
			Msg:  &pubsub.PubMsg{Event: mkEvent(size.attrs, size.body)},
		}
		for _, codec := range []wire.Codec{reg, bin} {
			b.Run(size.name+"/"+codec.Name(), func(b *testing.B) {
				frame, err := codec.Encode(env)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(frame)), "bytes/msg")
				b.SetBytes(int64(len(frame)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := codec.Encode(env); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkEnvelopeDecode is the receive-side counterpart.
func BenchmarkEnvelopeDecode(b *testing.B) {
	reg := wire.NewRegistry()
	pubsub.RegisterMessages(reg)
	bin := wire.NewBinaryCodec(reg)
	env := &wire.Envelope{
		From: ids.FromString("bench-from"),
		To:   ids.FromString("bench-to"),
		Msg: &pubsub.PubMsg{Event: NewEvent("weather.report", "thermo-eu", time.Second).
			Set("region", S("eu")).Set("tempC", F(20.5)).Set("n", I(7)).Stamp(1)},
	}
	for _, codec := range []wire.Codec{reg, bin} {
		b.Run(codec.Name(), func(b *testing.B) {
			frame, err := codec.Encode(env)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(frame)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := codec.Decode(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEventXMLRoundTrip(b *testing.B) {
	ev := NewEvent("weather.report", "thermo-eu", time.Second).
		Set("region", S("eu")).Set("tempC", F(20.5)).Set("n", I(7)).Stamp(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := event.Marshal(ev)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := event.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnginePut(b *testing.B) {
	sched := vclock.NewScheduler()
	kb := knowledge.NewKB()
	kb.AddSPO("bob", "likes", "ice cream")
	gis := knowledge.NewGIS()
	eng := match.NewEngine(sched, kb, gis, match.Options{})
	rule := &match.Rule{
		Name:     "hot",
		WindowMs: 60_000,
		Patterns: []match.Pattern{{
			Alias:  "w",
			Filter: pubsub.NewFilter(pubsub.TypeIs("weather.report")),
		}},
		Where: []match.Condition{{Type: "cmp", Left: "$w.tempC", Op: "gt", Right: "30"}},
		Emit:  match.Emit{Type: "alert.heat", Attrs: []match.EmitAttr{{Name: "t", From: "$w.tempC", Volatile: true}}},
	}
	if err := eng.AddRule(rule); err != nil {
		b.Fatal(err)
	}
	evs := make([]*event.Event, 256)
	for i := range evs {
		evs[i] = event.New("weather.report", "thermo", 0).
			Set("tempC", event.F(float64(i%40))).
			Set("region", event.S("eu")).
			Stamp(uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Put(evs[i%len(evs)])
	}
}
