package exp

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/simnet"
	"github.com/gloss/active/internal/transport"
	"github.com/gloss/active/internal/wire"
)

// T13Backpressure measures the overload story of the send path: drop
// rate and delivery latency as a function of the per-peer outbox byte
// budget under burst load.
//
// Simulated rows drive bursts over a 20ms link with the in-flight byte
// budget mirror (simnet.Config.OutboxHighWater): the budget caps the
// bytes a sender may have in flight per destination, so the drop rate
// falls as the budget grows while latency stays at the modelled link
// delay (the simulator has no queueing model). TCP rows push bursts at
// a deliberately slow receiver over loopback: small budgets drop most
// of each burst but keep the queue — and therefore the delivery tail —
// short; large budgets approach losslessness at the price of queueing
// delay (bufferbloat, visible in p99).
func T13Backpressure(quick bool) *Table {
	t := &Table{
		ID:     "E-T13",
		Title:  "Outbox backpressure: drop rate and tail latency vs byte budget",
		Header: []string{"path", "budget", "msgs", "drop %", "p50 ms", "p99 ms"},
	}
	simSteps, simPerStep := 100, 100
	tcpBurst, tcpRounds := 3000, 4
	if quick {
		simSteps, simPerStep = 40, 50
		tcpBurst, tcpRounds = 1200, 2
	}

	// One encoded t13 message, sized by the same XML codec the world
	// charges, anchors the simulated budgets in bytes.
	msgSize := simMsgSize()
	for _, budgetMsgs := range []int{250, 1000, 4000, 0} {
		attempts, dropped, p50, p99 := simBackpressureRun(budgetMsgs*msgSize, simSteps, simPerStep)
		label := "unbounded"
		if budgetMsgs > 0 {
			label = fmt.Sprintf("%dKiB", budgetMsgs*msgSize/1024)
		}
		t.AddRow("sim/burst", label, fmt.Sprint(attempts), pct(dropped, attempts), ms(p50), ms(p99))
	}
	for _, mode := range []struct {
		name string
		opts transport.Options
	}{
		{"64KiB", transport.Options{OutboxHighWater: 64 << 10}},
		{"512KiB", transport.Options{OutboxHighWater: 512 << 10}},
		{"4MiB", transport.Options{OutboxHighWater: 4 << 20}},
	} {
		attempts, dropped, p50, p99 := tcpBackpressureRun(tcpBurst, tcpRounds, mode.name, mode.opts)
		t.AddRow("tcp/burst", mode.name, fmt.Sprint(attempts), pct(dropped, attempts), ms(p50), ms(p99))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("sim: bursts of %d msgs/ms for %dms over a 20ms link; budget caps in-flight bytes per destination (1 msg = %d B XML)", simPerStep, simSteps, msgSize),
		fmt.Sprintf("tcp: %d rounds of %d-msg bursts (~2 KiB frames) at a slow loopback receiver; queue drains fully between bursts", tcpRounds, tcpBurst),
		"drops are all DroppedOverflow: the watermark refusing sends above the byte budget",
		"sim latency is flat by construction (no queueing model); tcp p99 grows with the budget — the drop/latency trade the budget tunes")
	return t
}

// t13Msg carries a send timestamp (virtual nanoseconds under simnet,
// wall-clock under TCP) and padding that sets the frame size.
type t13Msg struct {
	Stamp int64  `xml:"stamp,attr"`
	Pad   string `xml:"pad,attr,omitempty"`
}

func (t13Msg) Kind() string { return "t13.msg" }

// simMsgSize measures one encoded sim-row message.
func simMsgSize() int {
	reg := wire.NewRegistry()
	reg.Register(&t13Msg{}) //vetactive:xmlfallback experiment payload, not a production kind
	frame, err := reg.Encode(&wire.Envelope{
		From: ids.FromString("t13-size-a"),
		To:   ids.FromString("t13-size-b"),
		Msg:  &t13Msg{Stamp: 1}})
	if err != nil {
		panic(err)
	}
	return len(frame)
}

// simBackpressureRun bursts messages over a fixed-latency simulated
// link under an in-flight byte budget (0 = unbounded) and reports
// attempts, overflow drops and delivery-latency percentiles.
func simBackpressureRun(budgetBytes, steps, perStep int) (attempts, dropped uint64, p50, p99 time.Duration) {
	reg := wire.NewRegistry()
	reg.Register(&t13Msg{}) //vetactive:xmlfallback experiment payload, not a production kind
	w := simnet.NewWorld(simnet.Config{
		Seed: 13, DisableJitter: true, Codec: reg,
		OutboxHighWater: budgetBytes,
	})
	// 1900 km at 10µs/km + 1ms base = 20ms one way.
	a := w.NewNode(ids.FromString("t13-sim-a"), "eu", netapi.Coord{})
	b := w.NewNode(ids.FromString("t13-sim-b"), "us", netapi.Coord{X: 1900})
	var lats []time.Duration
	b.Handle("t13.msg", func(_ netapi.Ctx, _ ids.ID, msg wire.Message) {
		lats = append(lats, w.Now()-time.Duration(msg.(*t13Msg).Stamp))
	})
	for s := 0; s < steps; s++ {
		for j := 0; j < perStep; j++ {
			a.Send(b.ID(), &t13Msg{Stamp: int64(w.Now())})
		}
		w.RunFor(time.Millisecond)
	}
	w.RunFor(time.Second)
	return uint64(steps * perStep), w.Metrics().DroppedOverflow,
		percentileDur(lats, 50), percentileDur(lats, 99)
}

// tcpBackpressureRun pushes rounds of bursts at a deliberately slow
// receiver over loopback TCP and reports attempts, overflow drops and
// delivery-latency percentiles. The queue drains fully between rounds,
// so drops measure how much of one burst the configured outbox absorbs.
func tcpBackpressureRun(burst, rounds int, suffix string, opts transport.Options) (attempts, dropped uint64, p50, p99 time.Duration) {
	reg := wire.NewRegistry()
	transport.RegisterMessages(reg)
	reg.Register(&t13Msg{}) //vetactive:xmlfallback experiment payload, not a production kind
	opts.Seed = 1
	a, err := transport.Listen(ids.FromString("t13-tcp-a-"+suffix), reg, opts)
	if err != nil {
		panic(err)
	}
	defer a.Close()
	b, err := transport.Listen(ids.FromString("t13-tcp-b-"+suffix), reg, transport.Options{Seed: 2})
	if err != nil {
		panic(err)
	}
	defer b.Close()
	a.AddPeer(b.ID(), b.Addr())

	var (
		mu       sync.Mutex
		lats     []time.Duration
		received atomic.Uint64
	)
	b.Handle("t13.msg", func(_ netapi.Ctx, _ ids.ID, msg wire.Message) {
		time.Sleep(20 * time.Microsecond) // slow consumer: the overload source
		lat := time.Since(time.Unix(0, msg.(*t13Msg).Stamp))
		mu.Lock()
		lats = append(lats, lat)
		mu.Unlock()
		received.Add(1)
	})

	pad := strings.Repeat("x", 2048)
	for r := 0; r < rounds; r++ {
		// A round's burst is one actor turn: sends run on the loop.
		a.Do(func() {
			for j := 0; j < burst; j++ {
				a.Send(b.ID(), &t13Msg{Stamp: time.Now().UnixNano(), Pad: pad})
			}
		})
		// Drain completely before the next round so every round hits the
		// configured bound from empty.
		deadline := time.Now().Add(30 * time.Second)
		for received.Load() < a.Stats().Sent && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	st := a.Stats()
	mu.Lock()
	defer mu.Unlock()
	return uint64(rounds * burst), st.DroppedOverflow,
		percentileDur(lats, 50), percentileDur(lats, 99)
}
