package match

import (
	"fmt"
	"testing"
	"time"

	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/knowledge"
	"github.com/gloss/active/internal/pubsub"
	"github.com/gloss/active/internal/vclock"
)

// The two rule shapes the end-to-end benchmark runs, as engine-only
// fixtures: what activebench's ctx-chain installs on node c (ten
// single-pattern heat alerts and the nearby-friends self-join, 200 users
// acquainted in pairs) and the three-pattern ice-cream rule world-sim
// deploys (200 users, a quarter of them strolling near the shop).

const benchUsers = 200

// benchHash is splitmix64 over the event number.
func benchHash(n int) uint64 {
	z := uint64(n+1) * 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// benchClock stands still, just before every event's timestamp, so
// nothing expires and every Put sees full buffers.
type benchClock time.Duration

func (c benchClock) Now() time.Duration                     { return time.Duration(c) }
func (benchClock) After(time.Duration, func()) vclock.Timer { return nil }

func benchUser(u int) string { return fmt.Sprintf("u%03d", u) }

// ctxChainFixture is the ctx-chain mix: a third weather reports over
// ten regions (a fifth of them hot), a third GPS fixes, a third RFID
// reads no rule covers.
func ctxChainFixture(tb testing.TB, events int) (*Engine, []*event.Event) {
	kb := knowledge.NewKB()
	for u := 0; u < benchUsers; u++ {
		kb.AddSPO(benchUser(u), "knows", benchUser(u^1))
	}
	eng := NewEngine(benchClock(0), kb, knowledge.NewGIS(), Options{})
	for r := 0; r < 10; r++ {
		region := fmt.Sprintf("r%d", r)
		mustAdd(tb, eng, &Rule{
			Name: "hot-" + region, WindowMs: 60000, SuppressMs: -1,
			Patterns: []Pattern{{
				Alias:  "w",
				Filter: pubsub.NewFilter(pubsub.TypeIs("weather.report"), pubsub.Eq("region", event.S(region))),
			}},
			Where: []Condition{{Type: "cmp", Left: "$w.tempC", Op: "ge", Right: "30"}},
			Emit: Emit{Type: "alert.heat", Attrs: []EmitAttr{
				{Name: "region", From: "$w.region"},
				{Name: "tempC", From: "$w.tempC", Volatile: true},
			}},
		})
	}
	gps := filterForType("gps.location")
	mustAdd(tb, eng, &Rule{
		Name: "nearby-friends", WindowMs: 60000, SuppressMs: -1,
		Patterns: []Pattern{
			{Alias: "loc", Filter: gps, Bind: []Binding{{Attr: "user", Var: "U"}}},
			{Alias: "floc", Filter: gps, Bind: []Binding{{Attr: "user", Var: "F"}}},
		},
		Where: []Condition{
			{Type: "cmp", Left: "$U", Op: "ne", Right: "$F"},
			{Type: "kb", S: "$U", P: "knows", O: "$F"},
			{Type: "withinKm", A: "$loc", B: "$floc", Km: 0.5},
		},
		Emit: Emit{Type: "suggestion.nearby", Attrs: []EmitAttr{
			{Name: "user", From: "$U"},
			{Name: "friend", From: "$F"},
			{Name: "n", From: "$loc.n", Volatile: true},
		}},
	})
	evs := make([]*event.Event, events)
	for n := range evs {
		h := benchHash(n)
		at := time.Hour + time.Duration(n)
		var ev *event.Event
		switch n % 3 {
		case 0:
			region := fmt.Sprintf("r%d", h%10)
			ev = event.New("weather.report", "thermo-"+region, at).
				Set("region", event.S(region)).
				Set("tempC", event.F(10+float64((h>>8)%250)/10))
		case 1:
			// Pairs (u, u^1) share a spot; three fixes in five are at it.
			u := int(h % benchUsers)
			x, y := float64(u/2)*10, 0.0
			if (h>>16)%5 < 2 {
				x += 5 + 3*float64(u&1)
			} else {
				x += float64((h>>24)%100) / 1000
				y += float64((h>>32)%100) / 1000
			}
			ev = event.New("gps.location", "gps-"+benchUser(u), at).
				Set("user", event.S(benchUser(u))).
				Set("x", event.F(x)).Set("y", event.F(y)).
				Set("mode", event.S("foot"))
		default:
			ev = event.New("rfid.read", "rfid", at).
				Set("user", event.S(benchUser(int(h%benchUsers)))).
				Set("enter", event.B(h&1 == 0))
		}
		evs[n] = ev.Set("n", event.I(int64(n))).Stamp(uint64(n)).Freeze()
	}
	return eng, evs
}

// iceCreamFixture is the §1.1 rule over 200 users' GPS fixes and a
// region's weather reports, one in ten: u knows u+4, a quarter of the
// users are near the shop, it is warm two reports in three.
func iceCreamFixture(tb testing.TB, events int) (*Engine, []*event.Event) {
	kb := knowledge.NewKB()
	for u := 0; u < benchUsers; u++ {
		user := benchUser(u)
		kb.AddSPO(user, "likes", "ice cream")
		kb.AddSPO(user, "hot-threshold", "18")
		kb.AddSPO(user, "knows", benchUser((u+4)%benchUsers))
		kb.AddSPO(user, "has-spare-time", "true")
	}
	gis := scenarioGIS()
	rule := iceCreamRule()
	rule.SuppressMs = -1
	// Mid-morning on day 21: the shop is open.
	const morning = 21*24*time.Hour + 10*time.Hour
	eng := NewEngine(benchClock(morning), kb, gis, Options{})
	mustAdd(tb, eng, rule)
	evs := make([]*event.Event, events)
	for n := range evs {
		h := benchHash(n)
		at := morning + time.Duration(n)
		if n%10 == 0 {
			evs[n] = weatherEv("st-andrews", 12+float64(h%12), at, uint64(n)).Freeze()
			continue
		}
		u := int(h>>8) % benchUsers
		x, y := 400+float64(u), 400.0
		if u%4 == 0 {
			x, y = 10.20+float64((h>>24)%20)/100, 4.00+float64((h>>32)%10)/100
		}
		evs[n] = locEv(benchUser(u), x, y, at, uint64(n)).Freeze()
	}
	return eng, evs
}

func mustAdd(tb testing.TB, eng *Engine, r *Rule) {
	tb.Helper()
	if err := eng.AddRule(r); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkEnginePut measures one Put on warm buffers, emissions
// included, and reports how many complete tuples it examines per event.
func BenchmarkEnginePut(b *testing.B) {
	for _, bc := range []struct {
		name    string
		fixture func(testing.TB, int) (*Engine, []*event.Event)
	}{
		{"ctx-chain", ctxChainFixture},
		{"ice-cream", iceCreamFixture},
	} {
		b.Run(bc.name, func(b *testing.B) {
			eng, evs := bc.fixture(b, 1<<15)
			for _, ev := range evs[:4096] {
				eng.Put(ev) // fill the buffers
			}
			before := eng.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Put(evs[(4096+i)%len(evs)])
			}
			b.StopTimer()
			st := eng.Stats()
			b.ReportMetric(float64(st.Joins-before.Joins)/float64(b.N), "joins/ev")
			b.ReportMetric(float64(st.Emitted-before.Emitted)/float64(b.N), "emits/ev")
		})
	}
}
