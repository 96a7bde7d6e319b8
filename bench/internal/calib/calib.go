// Package calib measures how fast the host runs while a workload is
// measured. The hosts this benchmark runs on are small VMs on shared
// machines: for minutes at a time identical code gets 20–40 % less done
// per second, pays up to 75 % more CPU time per event and takes twice
// as long to wake an idle vCPU, because of what the neighbours do. No
// choice of slice within a run finds a quiet moment when there is none,
// so the generator goroutine runs two fixed references of its own beside
// the load it generates, neither using anything of the program under
// test:
//
//   - a kernel — a microsecond of map lookups and copying — a few
//     thousand times a second: its median time over a slice, divided by
//     its time on an undisturbed host, is the slice's CPU slowdown;
//   - a chain — a 16-byte message relayed over four loopback TCP
//     connections by four goroutines, five hundred times a second: its
//     median trip time, divided likewise, is the slice's wake-up
//     slowdown, since such a trip is four wake-ups and little else.
//
// The workloads divide the first out of their rates and CPU costs and
// the second out of their journey times.
package calib

import (
	"slices"
	"sort"
	"strconv"
	"time"
)

// Nominal is what one run of the kernel takes on an undisturbed host of
// the class the benchmark was sized on. It is frozen: a metric reported
// "at nominal host speed" means relative to this.
const Nominal = 1300 * time.Nanosecond

// minGap spaces the kernel's runs: at most 5 000 a second (well under
// one percent of one core), however fast the generator emits.
const minGap = 200 * time.Microsecond

// minSamples is how many kernel runs a window needs before their median
// is taken for the host's speed.
const minSamples = 16

// The kernel's data: 4 096 string keys in a map (≈300 KiB with its
// buckets: resident in L2, not in L1) and two 256 KiB buffers.
var (
	keys  []string
	table map[string]int
	src   = make([]byte, 256<<10)
	dst   = make([]byte, 256<<10)
)

func init() {
	table = make(map[string]int, 4096)
	for i := 0; i < 4096; i++ {
		k := "key-" + strconv.Itoa(i*7919)
		keys = append(keys, k)
		table[k] = i
	}
	for i := range src {
		src[i] = byte(i * 31)
	}
}

// Probe records the references' times. One goroutine — the generator —
// owns it and is the only one to call its methods.
type Probe struct {
	at   []int64 // unix ns, ascending
	ns   []int32
	last int64
	i    int
	sink uint64

	chain *chain // nil until StartChain
}

// NewProbe returns a probe with room for a run's samples. It runs the
// kernel only; StartChain adds the chain.
func NewProbe() *Probe {
	return &Probe{at: make([]int64, 0, 1<<18), ns: make([]int32, 0, 1<<18)}
}

// Tick is called by the generator as often as it likes with its current
// time: it sends a chain message and runs the kernel, each unless it
// did so a moment ago.
func (p *Probe) Tick(now time.Time) {
	t := now.UnixNano()
	if p.chain != nil {
		p.chain.send(t)
	}
	if t-p.last < int64(minGap) {
		return
	}
	p.last = t
	t0 := time.Now()
	var acc uint64
	for k := 0; k < 24; k++ {
		p.i = (p.i + 61) & 4095
		acc += uint64(table[keys[p.i]])
	}
	off := (p.i * 64) & (len(src) - 4096)
	copy(dst[off:off+2048], src[off:off+2048])
	acc += uint64(dst[off+int(acc&1023)])
	p.sink += acc
	t1 := time.Now()
	p.at = append(p.at, t1.UnixNano())
	p.ns = append(p.ns, int32(min(t1.Sub(t0), time.Second)))
}

// Slowdown is the kernel's median time over [from, to) (unix ns) divided
// by Nominal: 1 on an undisturbed host, 1.4 when the kernel takes 40 %
// longer. A window with too few samples reports 1: no correction.
func (p *Probe) Slowdown(from, to int64) float64 {
	return orOne(medianOver(p.at, p.ns, from, to) / float64(Nominal))
}

// orOne turns "too few samples" into "no correction".
func orOne(ratio float64) float64 {
	if ratio <= 0 {
		return 1
	}
	return ratio
}

// medianOver is the median of the samples taken in [from, to): ns[i]
// was taken at at[i], ascending. Too few samples give 0.
func medianOver(at []int64, ns []int32, from, to int64) float64 {
	lo := sort.Search(len(at), func(i int) bool { return at[i] >= from })
	hi := sort.Search(len(at), func(i int) bool { return at[i] >= to })
	if hi-lo < minSamples {
		return 0
	}
	window := slices.Clone(ns[lo:hi])
	slices.Sort(window)
	return float64(window[len(window)/2])
}
