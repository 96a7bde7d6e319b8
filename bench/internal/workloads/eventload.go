package workloads

import (
	"context"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/gloss/active/bench/internal/calib"
	"github.com/gloss/active/bench/internal/pace"
	"github.com/gloss/active/bench/internal/rig"
	"github.com/gloss/active/bench/internal/stats"
	"github.com/gloss/active/bench/internal/trace"
)

// ring maps an event number to a slot of a fixed table; only events
// within the in-flight window are ever looked up, so 2^16 slots never
// collide.
const ringMask = 1<<16 - 1

// dueRing remembers each in-flight event's due time (unix ns).
type dueRing [ringMask + 1]atomic.Int64

func (r *dueRing) set(n int64, t time.Time) { r[n&ringMask].Store(t.UnixNano()) }
func (r *dueRing) get(n int64) int64        { return r[n&ringMask].Load() }

// mix is a splitmix64 step: the per-event random draw, a pure function
// of (seed, n) so an oracle can regenerate any event.
func mix(seed int64, n int64) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(n+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// loadBase is the state the three TCP pub/sub workloads share: one
// generator goroutine publishing numbered events, a window bounding
// those in flight, and the switch that turns journey timing and span
// recording on for the measured phases.
type loadBase struct {
	p   Params
	res *Result
	rec *trace.Recorder // nil unless this is the traced pass
	cl  *rig.Cluster
	// probe samples the host's speed from the generator goroutine, beside
	// the load (see calib); generator goroutine only.
	probe *calib.Probe

	due        dueRing
	window     atomic.Pointer[pace.Window]
	on         atomic.Bool // spans are being recorded
	recording  atomic.Bool // journeys are being timed
	next       int64       // next event number; generator goroutine only
	saturating bool        // the closed-loop phase is running; generator goroutine only
}

// sampled reports whether event n's spans are kept right now.
func (b *loadBase) sampled(n, every int64) bool { return b.on.Load() && n%every == 0 }

// release frees n window slots of whichever phase is running.
func (b *loadBase) release(n int) {
	if win := b.window.Load(); win != nil {
		win.Release(n)
	}
}

// span records a harness-side span around fn.
func (b *loadBase) span(name string, node int, journey int64, fn func()) {
	idx := b.rec.Begin(trace.Span{Name: b.rec.Name(name), Node: int16(node), Journey: journey, Start: b.rec.Now()})
	fn()
	b.rec.End(idx, b.rec.Now())
}

// post runs the publish of event n on from's actor loop — where a
// sensor's Client.Publish belongs — recording, for sampled events, how
// long the call waited for the loop and how long it took.
func (b *loadBase) post(from *rig.Node, n int64, due time.Time, traced bool, publish func()) {
	b.due.set(n, due)
	if !traced {
		from.EP.Do(publish)
		return
	}
	from.EP.Do(func() {
		// The wait belongs to no node's busy time, hence node -1.
		b.rec.Add(trace.Span{Name: b.rec.Name(spanInject), Node: -1, Journey: n, Start: b.rec.At(due), End: b.rec.Now()})
		b.span(spanPublish, from.Index, n, publish)
	})
}

// eventLoad is what a pub/sub workload supplies to runEventLoad.
type eventLoad interface {
	base() *loadBase
	// boot builds the cluster and returns its teardown.
	boot() (func(), error)
	// publish emits event n, due at due, from the generator goroutine.
	publish(n int64, due time.Time)
	// settle waits for everything published to be fully processed.
	settle()
	// takeLatencies moves the journey times recorded so far out of the
	// actor loops that collected them.
	takeLatencies() journeys
	// ends returns the sampled journeys the traced pass completed.
	ends() []journeyEnd
	// layerMetrics adds the workload's own per-layer metrics after the
	// traced pass; verify checks the oracle after either pass.
	layerMetrics()
	verify(dog *rig.Watchdog)
}

// runEventLoad is the run shape of every TCP pub/sub workload: timed
// set-up, discarded warm-up, then the end-to-end pass or the traced one.
func runEventLoad(ctx context.Context, w eventLoad, rate float64, satWindow int) (*Result, error) {
	b := w.base()
	p, res := b.p, b.res
	res.Rates["paced_eps"] = rate
	res.Rates["saturate_window"] = float64(satWindow)
	b.probe = newHostProbe(p)
	defer b.probe.Close()
	if p.Trace {
		b.rec = trace.NewRecorder(1 << 20)
	}
	if err := bootMedian(p, res, w.boot); err != nil {
		return nil, err
	}
	defer pace.Pin()()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	dog := rig.StartWatchdog(b.cl.Nodes, cancel)
	defer func() { b.cl.Close(); dog.Stop() }()

	r := &loadRun{ctx: ctx, w: w, b: b, rate: rate, satWindow: satWindow}
	r.paced(p.warmup()) // discarded
	w.settle()
	w.takeLatencies()
	if p.Trace {
		r.tracedPass(dog)
	} else {
		r.endToEndPass(dog)
	}
	return res, nil
}

// loadRun drives one run's phases from the generator goroutine.
type loadRun struct {
	ctx       context.Context
	w         eventLoad
	b         *loadBase
	rate      float64
	satWindow int
}

// paced publishes at the frozen rate for dur, open loop.
func (r *loadRun) paced(dur time.Duration) (int, pace.Lateness) {
	win := pace.NewWindow(pacedWindow)
	r.b.window.Store(win)
	return pace.Open(r.ctx, pace.Wall{}, win, r.rate, dur, func(_ int, due time.Time) {
		r.w.publish(r.b.next, due)
		r.b.next++
		r.b.probe.Tick(due)
	})
}

// endToEndPass measures with the spy absent. The paced and the saturate
// phase alternate in segments, so each metric's slices are spread over
// the whole run and a host that is slow for a few seconds spoils
// neither phase entirely.
func (r *loadRun) endToEndPass(dog *rig.Watchdog) {
	b, w := r.b, r.w
	p, res := b.p, b.res
	first, second := p.phases()
	segments := segmentsPerRun
	if p.Smoke {
		segments = 1
	}
	var (
		sent, n int
		late    pace.Lateness
		wall    time.Duration
		used    rig.Usage
		meter   = sliceMeter{host: b.probe}
	)
	for seg := 0; seg < segments; seg++ {
		b.recording.Store(true)
		k, l := r.paced(first / time.Duration(segments))
		w.settle()
		b.recording.Store(false)
		sent += k
		late.N, late.Sum, late.Max = late.N+l.N, late.Sum+l.Sum, max(late.Max, l.Max)

		win := pace.NewWindow(r.satWindow)
		b.window.Store(win)
		b.saturating = true
		before, t0 := rig.ReadUsage(), time.Now()
		meter.restart(t0)
		n += pace.Closed(r.ctx, pace.Wall{}, win, second/time.Duration(segments), func(i int, at time.Time) {
			w.publish(b.next, at)
			b.next++
			b.probe.Tick(at)
			meter.tick(at, i)
		})
		w.settle()
		b.saturating = false
		wall += time.Since(t0)
		used = used.Add(rig.ReadUsage().Sub(before))
	}
	journey := w.takeLatencies().summarize(b.probe)
	p.logf("%s paced: %d events at %.0f/s, journey %s, generator late max %.3f ms",
		res.Workload, sent, r.rate, journey, msOf(late.Max))
	res.set("journey_p50_ms", journey.P50, "ms", journey.N)
	res.set("journey_p90_ms", journey.P90, "ms", journey.N)
	res.set("core.gen_late_max_ms", msOf(late.Max), "ms", late.N)
	setPerEvent(res, n, wall, used, &meter)
	p.logf("%s saturate: %d events in %.2f s with %d in flight; %s",
		res.Workload, n, wall.Seconds(), r.satWindow, &meter)
	w.verify(dog)
}

// tracedPass paces with the spy installed but idle (the baseline the
// tracing overhead is taken against), then with it recording, and
// turns the spans into the per-layer metrics.
func (r *loadRun) tracedPass(dog *rig.Watchdog) {
	b, w := r.b, r.w
	p, res := b.p, b.res
	first, second := p.phases()
	b.recording.Store(true)
	r.paced(first)
	w.settle()
	base := w.takeLatencies().summarize(b.probe)
	res.set("journey_p90_ms", base.P90, "ms", base.N)

	before := rig.ReadUsage()
	b.on.Store(true)
	_, late := r.paced(second)
	w.settle()
	b.on.Store(false)
	b.recording.Store(false)
	gc := rig.ReadUsage().Sub(before).GCPause
	traced := w.takeLatencies().summarize(b.probe)
	p.logf("%s traced: journey %s", res.Workload, traced)
	p.logf("%s untraced: journey %s", res.Workload, base)
	ends := w.ends()
	counterMetrics(res, b.cl.Nodes)
	w.layerMetrics()
	w.verify(dog)
	// The spans are read only once nothing can still be writing one:
	// Close waits for every actor loop, socket loop and pool worker.
	b.cl.Close()
	spanMetrics(b, ends, base, traced, late, gc)
}

// setPerEvent fills the throughput-phase metrics shared by every
// workload: rate and CPU cost are the median of the phase's half-second
// slices at nominal host speed (see sliceWidth; the whole phase as
// measured when it has under three), the allocation counts are
// whole-phase totals.
func setPerEvent(res *Result, n int, wall time.Duration, used rig.Usage, m *sliceMeter) {
	if n == 0 || wall <= 0 {
		res.fail(1, "throughput phase completed no operations")
		n = 1
	}
	rate, cpu := float64(n)/wall.Seconds(), float64(used.CPU)/1e3/float64(n)
	if len(m.rates) >= 3 {
		rate, cpu = stats.Median(m.rates), stats.Median(m.cpus)
	}
	res.set("capacity_eps", rate, "1/s", n)
	res.set("cpu_us_per_event", cpu, "us", n)
	res.set("allocs_per_event", float64(used.Mallocs)/float64(n), "count", n)
	res.set("alloc_bytes_per_event", float64(used.Bytes)/float64(n), "B", n)
}

// spanMetrics turns the recorded spans into the per-layer metrics every
// TCP pub/sub workload shares, prints the budget and writes the trace
// file. The cluster must be closed.
func spanMetrics(b *loadBase, ends []journeyEnd, base, traced journeySummary, late pace.Lateness, gc time.Duration) {
	res := b.res
	setLayerTimings(res, b.rec, perInvocation(b.rec))
	bud := buildBudget(b.rec, ends)
	bud.print(b.p, res.Workload)
	res.set("core.budget_coverage", bud.coverage, "ratio", len(bud.total))
	for _, layer := range []string{layerPoolWait, layerPublish} {
		// Per sampled journey, not per call: only the budget sees these.
		res.set(layer, usOf(stats.Median(bud.layers[layer])), "us", len(bud.layers[layer]))
	}
	res.set("core.journey_p99_ms", traced.P99, "ms", traced.N)
	res.set("core.gen_late_max_ms", msOf(late.Max), "ms", late.N)
	res.set("core.gc_pause_ms", msOf(gc), "ms", 1)
	res.set("core.host_cpu_slowdown", traced.CPU, "ratio", traced.Slices)
	res.set("core.host_wake_slowdown", traced.Wake, "ratio", traced.Slices)
	if base.P50 > 0 {
		res.set("core.trace_overhead_ratio", traced.P50/base.P50, "ratio", traced.N)
	}
	if b.p.OutDir != "" {
		path := filepath.Join(b.p.OutDir, "trace-"+res.Workload+".json")
		if err := b.rec.WriteJSON(path); err != nil {
			res.fail(1, "%v", err)
		}
	}
}

// drainActors pushes a barrier through the given nodes' actor loops, in
// order, twice, pausing after each for its fan-out workers and sockets:
// every link is FIFO, so whatever was in flight along that path when
// the call began has been handled when it returns. (Broker.DrainFanout
// would be exact, but it may only be called once publishes have
// stopped, and suggestions can still be on their way.)
func drainActors(nodes ...*rig.Node) {
	for i := 0; i < 2; i++ {
		for _, n := range nodes {
			_ = n.Call(func() {}) // a stall is the watchdog's to report
			time.Sleep(2 * time.Millisecond)
		}
	}
}
