package workloads

import (
	"math"
	"testing"
	"time"

	"github.com/gloss/active/bench/internal/rig"
)

// stepHost is a host that ran at nominal speed until slowAt (unix ns)
// and cpu/wake times slower from then on.
type stepHost struct {
	slowAt    int64
	cpu, wake float64
}

func (h stepHost) Slowdown(from, _ int64) float64 {
	if from >= h.slowAt {
		return h.cpu
	}
	return 1
}

func (h stepHost) WakeSlowdown(from, _ int64) float64 {
	if from >= h.slowAt {
		return h.wake
	}
	return 1
}

func near(got, want, tolerance float64) bool { return math.Abs(got-want) <= tolerance*want }

// A program whose journeys take 1 ms at nominal host speed, measured for
// ten seconds of which the host spent the last six waking sleepers three
// times slower: the slices of those six seconds read 3^expLatency ms,
// and the summary must still say 1 ms.
func TestJourneysAreReportedAtNominalHostSpeed(t *testing.T) {
	host := stepHost{slowAt: int64(4 * time.Second), cpu: 1, wake: 3}
	var j journeys
	for at := int64(0); at < int64(10*time.Second); at += int64(time.Millisecond) {
		ms := 1.0
		if at >= host.slowAt {
			ms = math.Pow(host.wake, expLatency)
		}
		// ±10 % around the slice's level, so p50 and p90 differ.
		ms *= 0.9 + 0.2*float64(at/int64(time.Millisecond)%11)/10
		j = append(j, timed{at: at, ns: ms * 1e6})
	}
	got := j.summarize(host)
	if !near(got.P50, 1.0, 0.02) {
		t.Errorf("p50 at nominal speed = %.3f ms, want 1.000", got.P50)
	}
	if !near(got.P90, 1.08, 0.02) {
		t.Errorf("p90 at nominal speed = %.3f ms, want 1.080", got.P90)
	}
	if want := math.Pow(3, expLatency); !near(got.RawP50, want, 0.02) {
		t.Errorf("as measured, the median slice's p50 = %.3f ms, want %.3f (most slices were slow)", got.RawP50, want)
	}
	if got.Wake != 3 || got.CPU != 1 {
		t.Errorf("median slice's slowdowns = wake %.2f, cpu %.2f; want 3, 1", got.Wake, got.CPU)
	}
	if got.Slices < 30 {
		t.Errorf("%d slices of 10 s at one per quarter second", got.Slices)
	}
}

// A slice at the edge of a paced segment holds a handful of journeys; it
// must not count.
func TestPartialSlicesDoNotCount(t *testing.T) {
	var j journeys
	for at := int64(0); at < int64(2*time.Second); at += int64(time.Millisecond) {
		j = append(j, timed{at: at, ns: 1e6})
	}
	// A straggler segment: 30 slow journeys in 30 ms, three seconds later.
	for i := int64(0); i < 30; i++ {
		j = append(j, timed{at: int64(5*time.Second) + i*int64(time.Millisecond), ns: 50e6})
	}
	got := j.summarize(stepHost{slowAt: math.MaxInt64})
	if got.P50 != 1 || got.P90 != 1 {
		t.Errorf("p50 %.3f, p90 %.3f: a 30-journey slice beside 500-journey ones was counted", got.P50, got.P90)
	}
}

// Rates rise and CPU costs fall by slowdown^expThroughput, and the
// median slice is what a phase reports.
func TestThroughputSlicesAreReportedAtNominalHostSpeed(t *testing.T) {
	m := &sliceMeter{host: stepHost{}}
	k := math.Pow(2, expThroughput)
	m.close(10000, 40, 1)
	m.close(10000/k, 40*k, 2) // the same program on a host twice as slow
	m.close(10000/k, 40*k, 2)
	res := newResult("x", Params{})
	setPerEvent(res, 30000, 3*time.Second, rig.Usage{CPU: time.Second, Mallocs: 60000, Bytes: 3 << 20}, m)
	if v := res.Metrics["capacity_eps"].Value; !near(v, 10000, 1e-9) {
		t.Errorf("capacity_eps = %.1f, want 10000", v)
	}
	if v := res.Metrics["cpu_us_per_event"].Value; !near(v, 40, 1e-9) {
		t.Errorf("cpu_us_per_event = %.2f, want 40", v)
	}
}
