// Package workloads holds the benchmark's five workloads. Each boots the
// real stack, drives it from one generator goroutine with inputs made
// from the seed, checks every output against an oracle, and returns its
// metrics by name. The sizes and rates below are frozen: they were
// measured once on a 2-core host at 20–40 % of capacity and must not
// depend on the commit under test.
package workloads

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"time"

	"github.com/gloss/active/bench/internal/calib"
	"github.com/gloss/active/bench/internal/rig"
	"github.com/gloss/active/bench/internal/stats"
)

// Params selects one run of one workload.
type Params struct {
	// Seed drives every generator; the program sees only generated inputs.
	Seed int64
	// Seconds is how long the run measures, split between its phases.
	Seconds float64
	// Trace selects the traced pass: the spy decorator is installed and
	// the per-layer metrics are produced instead of the end-to-end ones.
	Trace bool
	// Smoke shrinks every table and rate to a tenth, for the unit tests.
	Smoke bool
	// OutDir, when set, receives trace-<workload>.json after a traced run.
	OutDir string
	// Log receives progress lines and the per-layer budget.
	Log io.Writer
}

// Metric is one named measurement.
type Metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// Result is what one run of one workload reports.
type Result struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// Rates records the frozen rates and sizes the run used.
	Rates map[string]float64 `json:"rates"`
	// Problems lists oracle mismatches and watchdog reports.
	Problems []string `json:"problems,omitempty"`
}

func newResult(name string, p Params) *Result {
	return &Result{Workload: name, Traced: p.Trace, Metrics: make(map[string]Metric), Rates: make(map[string]float64)}
}

func (r *Result) set(name string, v float64, unit string, samples int) {
	r.Metrics[name] = Metric{Value: v, Unit: unit, Samples: samples}
}

// fail counts n failed operations and keeps the first few reasons.
func (r *Result) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.Failed += n
	if len(r.Problems) < 12 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// Correct reports whether every output matched its oracle.
func (r *Result) Correct() bool { return r.Failed == 0 }

// Workload is one named set of inputs.
type Workload struct {
	Name string
	// Why is the one-sentence reason the workload exists: which layer
	// does the work.
	Why string
	Run func(ctx context.Context, p Params) (*Result, error)
}

// All lists the workloads in the order they run.
func All() []Workload {
	return []Workload{
		{Name: "ctx-chain", Why: whyCtxChain, Run: runCtxChain},
		{Name: "fanout-wide", Why: whyFanoutWide, Run: runFanoutWide},
		{Name: "mobile-subs", Why: whyMobileSubs, Run: runMobileSubs},
		{Name: "store-mixed", Why: whyStoreMixed, Run: runStoreMixed},
		{Name: "world-sim", Why: whyWorldSim, Run: runWorldSim},
	}
}

// ByName finds a workload.
func ByName(name string) (Workload, bool) {
	for _, w := range All() {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

const (
	// warmup is discarded: it lets dials, hello/codec negotiation and
	// caches settle before anything is timed.
	warmup = 1500 * time.Millisecond
	// setupRepeats is how many times a run boots its cluster to report a
	// median set-up time, unless setupBudget runs out first (never under
	// three); the last boot is the one the run measures.
	setupRepeats = 15
	setupBudget  = 2500 * time.Millisecond
	// pacedWindow caps the operations in flight during the open-loop
	// phase: below the 1 024-slot actor inbox, so an overloaded program
	// shows as latency (timed from the due time), never as a wedge.
	pacedWindow = 256
	// segmentsPerRun is how many times an end-to-end run alternates its
	// paced and saturate phases.
	segmentsPerRun = 4
	// drainTimeout bounds the wait for outstanding deliveries once the
	// generator stops; whatever is still missing then counts as failed.
	drainTimeout = 3 * time.Second
)

func (p Params) logf(format string, args ...any) {
	if p.Log != nil {
		fmt.Fprintf(p.Log, format+"\n", args...)
	}
}

// scale shrinks a size for smoke runs, never below lo.
func (p Params) scale(n, lo int) int {
	if !p.Smoke {
		return n
	}
	if n /= 10; n < lo {
		n = lo
	}
	return n
}

func (p Params) warmup() time.Duration {
	if p.Smoke {
		return 300 * time.Millisecond
	}
	return warmup
}

// phases splits the measured time: untraced runs pace for 65 % and
// saturate for 35 %; traced runs pace untraced for half (the baseline
// the tracing overhead is taken against) and traced for the other half,
// so both best slices are the best of equally many.
func (p Params) phases() (first, second time.Duration) {
	total := time.Duration(p.Seconds * float64(time.Second))
	if p.Trace {
		first = total / 2
	} else {
		first = total * 65 / 100
	}
	return first, total - first
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }
func usOf(ns float64) float64      { return ns / 1e3 }

// bootMedian boots the workload's cluster several times, tearing down
// all but the last, and reports the median boot time as setup_s.
func bootMedian(p Params, res *Result, boot func() (func(), error)) error {
	repeats := setupRepeats
	if p.Smoke {
		repeats = 1
	}
	var times []float64
	var cleanup func()
	start := time.Now()
	for i := 0; i < repeats && (i < 3 || time.Since(start) < setupBudget); i++ {
		if cleanup != nil {
			cleanup()
		}
		t0 := time.Now()
		var err error
		if cleanup, err = boot(); err != nil {
			return err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	res.set("setup_s", stats.Median(times), "s", len(times))
	return nil
}

// How a wall-clock metric is reported. The hosts this runs on (2-vCPU
// VMs on shared machines) slow down with what their neighbours do, for
// seconds or for minutes: identical code then completes 20–40 % fewer
// events per second, pays up to 75 % more CPU time for each, and takes
// half as long again over a journey, and no second of such a run is an
// undisturbed one. So every wall-clock end-to-end metric is computed per
// half-second slice, each slice is brought to nominal host speed by
// what the host-speed references (package calib: a fixed kernel and a
// fixed relay chain that the generator runs beside its load, neither
// touching the program under test) measured over that very slice, and
// the median slice is reported.
//
// A slice's correction is its slowdown raised to an exponent that says
// how much of the reference's slowdown the program shares. The two
// exponents were fitted once — the slope of log metric against log
// slowdown over some two thousand slices of ctx-chain, on a host
// swinging between quiet and busy — and are frozen like the rates: a
// saturated program slows down by about the square root of what the
// kernel does (the kernel's working set is evicted by the program
// between two of its runs and so lives in the shared cache, where the
// neighbours are felt most), and a journey by somewhat less than a
// trip through the chain (part of a journey is computing, and no trip
// is).
const (
	sliceWidth = 500 * time.Millisecond
	sliceStep  = 250 * time.Millisecond
	// expThroughput applies the kernel's slowdown to rates and to CPU
	// time per operation.
	expThroughput = 0.5
	// expLatency applies the chain's slowdown to journey times.
	expLatency = 0.9
)

// hostSpeed is what a slice is corrected by: how much slower than
// nominal the host computed, and woke sleepers, over [from, to) (unix
// ns). 1 means nominal — or not known, which leaves the slice as
// measured. *calib.Probe implements it.
type hostSpeed interface {
	Slowdown(from, to int64) float64
	WakeSlowdown(from, to int64) float64
}

// newHostProbe starts the host-speed references of a TCP workload. A
// host on which the chain's loopback connections cannot be opened could
// not run the workload either; the error is logged and journeys are
// reported as measured.
func newHostProbe(p Params) *calib.Probe {
	probe := calib.NewProbe()
	if err := probe.StartChain(); err != nil {
		p.logf("host probe: %v; journeys are reported as measured", err)
	}
	return probe
}

// atNominal scales a time measured while the host ran slowdown times
// slower than nominal to what it would have been at nominal speed.
func atNominal(v, slowdown, exp float64) float64 { return v / math.Pow(slowdown, exp) }

// timed is one journey: when its operation was due (unix ns) and how
// long it took (ns).
type timed struct {
	at int64
	ns float64
}

// journeys is a phase's journey sample.
type journeys []timed

// journeySummary reports a journey sample in ms. P50 and P90 are the
// medians, over the phase's half-second slices, of each slice's own p50
// and p90 at nominal host speed. For the log and the per-layer metrics:
// RawP50 is the median slice's p50 as measured, Wake and CPU the median
// slice's two host slowdowns. P99 and Tail (the highest percentile the
// sample supports) are of the whole sample, as measured.
type journeySummary struct {
	N, Slices int
	P50, P90  float64
	RawP50    float64
	Wake, CPU float64
	P99       float64
	TailP     float64
	Tail      float64
}

// summarize cuts the sample into slices by due time and corrects each
// by what host measured over it.
func (j journeys) summarize(host hostSpeed) journeySummary {
	out := journeySummary{N: len(j), Wake: 1, CPU: 1}
	if len(j) == 0 {
		return out
	}
	sorted := append(journeys(nil), j...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].at < sorted[b].at })
	all := make([]float64, len(sorted))
	for i, t := range sorted {
		all[i] = t.ns / 1e6
	}
	whole := stats.Summarize(all)
	out.TailP, out.Tail = whole.TailP, whole.Tail
	out.P99 = stats.Percentile(stats.Sorted(all), 0.99)

	// Slices are half a second wide and start every quarter. Only full
	// ones count: one that overlaps the edge of a paced segment holds a
	// handful of journeys.
	type window struct {
		lo, hi   int
		from, to int64
	}
	var windows []window
	fullest := 0
	first, last := sorted[0].at, sorted[len(sorted)-1].at
	lo, hi := 0, 0
	for start := first; start <= last; start += int64(sliceStep) {
		for lo < len(sorted) && sorted[lo].at < start {
			lo++
		}
		for hi < len(sorted) && sorted[hi].at < start+int64(sliceWidth) {
			hi++
		}
		windows = append(windows, window{lo, hi, start, start + int64(sliceWidth)})
		fullest = max(fullest, hi-lo)
	}
	var p50s, p90s, raw, wake, cpu []float64
	for _, w := range windows {
		if n := w.hi - w.lo; n < 20 || n*10 < fullest*8 {
			continue
		}
		s := host.WakeSlowdown(w.from, w.to)
		slice := stats.Sorted(all[w.lo:w.hi])
		p50, p90 := stats.Percentile(slice, 0.5), stats.Percentile(slice, 0.9)
		raw = append(raw, p50)
		wake = append(wake, s)
		cpu = append(cpu, host.Slowdown(w.from, w.to))
		p50s = append(p50s, atNominal(p50, s, expLatency))
		p90s = append(p90s, atNominal(p90, s, expLatency))
	}
	if len(p50s) == 0 {
		out.P50, out.P90, out.RawP50 = whole.P50, whole.P90, whole.P50
		return out
	}
	out.Slices = len(p50s)
	out.P50, out.P90 = stats.Median(p50s), stats.Median(p90s)
	out.RawP50, out.Wake, out.CPU = stats.Median(raw), stats.Median(wake), stats.Median(cpu)
	return out
}

func (s journeySummary) String() string {
	tail := ""
	if s.TailP > 0 {
		tail = fmt.Sprintf(", p%g %.3f ms", s.TailP*100, s.Tail)
	}
	return fmt.Sprintf("p50 %.3f ms, p90 %.3f ms at nominal host speed (median of %d slices; wake-up slowdown %.2f; as measured p50 %.3f ms)%s (n=%d)",
		s.P50, s.P90, s.Slices, s.Wake, s.RawP50, tail, s.N)
}

// sliceMeter cuts a throughput phase into half-second slices as the
// generator emits, keeping each slice's rate and CPU cost per operation,
// as measured and at nominal host speed.
type sliceMeter struct {
	host    hostSpeed
	lastT   time.Time
	lastN   int
	lastCPU time.Duration
	rates   []float64 // operations per second, at nominal host speed
	cpus    []float64 // CPU µs per operation, at nominal host speed
	raw     []float64 // operations per second, as measured
	slow    []float64 // the host's CPU slowdown over each slice
}

func newSliceMeter(now time.Time, host hostSpeed) *sliceMeter {
	m := &sliceMeter{host: host}
	m.restart(now)
	return m
}

// restart begins a new run of slices (a new segment whose operation
// count starts from zero), keeping the slices closed so far.
func (m *sliceMeter) restart(now time.Time) {
	m.lastT, m.lastN, m.lastCPU = now, 0, rig.CPUTime()
}

// tick is called with the running operation count; it closes a slice
// whenever half a second has passed.
func (m *sliceMeter) tick(now time.Time, n int) {
	d := now.Sub(m.lastT)
	if d < sliceWidth || n == m.lastN {
		return
	}
	cpu := rig.CPUTime()
	ops := float64(n - m.lastN)
	m.close(ops/d.Seconds(), float64(cpu-m.lastCPU)/1e3/ops, m.host.Slowdown(m.lastT.UnixNano(), now.UnixNano()))
	m.lastT, m.lastN, m.lastCPU = now, n, cpu
}

// close records one slice: its rate and CPU µs per operation as
// measured while the host computed slowdown times slower than nominal.
func (m *sliceMeter) close(rate, cpuPerOp, slowdown float64) {
	m.raw = append(m.raw, rate)
	m.slow = append(m.slow, slowdown)
	m.rates = append(m.rates, rate*math.Pow(slowdown, expThroughput))
	m.cpus = append(m.cpus, atNominal(cpuPerOp, slowdown, expThroughput))
}

// String describes the slices for the log: what is reported beside
// what was measured.
func (m *sliceMeter) String() string {
	if len(m.rates) == 0 {
		return "no full slice"
	}
	return fmt.Sprintf("median of %d slices %.0f/s and %.1f CPU µs each at nominal host speed (CPU slowdown %.2f; as measured: median slice %.0f/s, best %.0f/s)",
		len(m.rates), stats.Median(m.rates), stats.Median(m.cpus), stats.Median(m.slow), stats.Median(m.raw), slices.Max(m.raw))
}

// latencies collects one timing sample (ns) and summarises it in ms.
type latencies []float64

func (l latencies) ms() stats.Summary {
	out := make([]float64, len(l))
	for i, v := range l {
		out[i] = v / 1e6
	}
	return stats.Summarize(out)
}
