// Package pace is the benchmark's load generator core: an open loop
// that emits on a fixed schedule and times each operation from when it
// was due, a closed loop that emits as fast as a bounded in-flight
// window allows, and the window itself. One goroutine drives either
// loop; it sleeps or blocks on the window, never spins.
package pace

import (
	"context"
	"time"
)

// Clock is the generator's view of time, injectable so tests can stall it.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

// Wall is the real clock.
type Wall struct{}

// Now implements Clock.
func (Wall) Now() time.Time { return time.Now() }

// Sleep implements Clock with the platform's precise sleep: the Go
// runtime rounds a sub-millisecond time.Sleep up to about 1 ms when the
// process is otherwise idle, which would put a millisecond of generator
// lateness into every journey timed from its due time.
func (Wall) Sleep(d time.Duration) { preciseSleep(d) }

// Window bounds the operations in flight. The generator takes a slot
// before each emit and blocks while none is free; completions give
// slots back from any goroutine.
type Window struct {
	slots chan struct{}
}

// NewWindow returns a window with n free slots.
func NewWindow(n int) *Window {
	w := &Window{slots: make(chan struct{}, n)} // one buffered token per in-flight slot
	for i := 0; i < n; i++ {
		w.slots <- struct{}{}
	}
	return w
}

// Acquire takes a slot, blocking until one is free. False when ctx ends first.
func (w *Window) Acquire(ctx context.Context) bool {
	select {
	case <-w.slots:
		return true
	default:
	}
	select {
	case <-w.slots:
		return true
	case <-ctx.Done():
		return false
	}
}

// Release frees n slots. Surplus releases are dropped, so a completion
// signalled twice cannot grow the window.
func (w *Window) Release(n int) {
	for i := 0; i < n; i++ {
		select {
		case w.slots <- struct{}{}:
		default:
			return
		}
	}
}

// InFlight is how many slots are taken right now.
func (w *Window) InFlight() int { return cap(w.slots) - len(w.slots) }

// Lateness records how far behind its schedule an open-loop generator
// ran: the delay between an operation's due time and its emit.
type Lateness struct {
	N   int
	Max time.Duration
	Sum time.Duration
}

// Mean is the average lateness.
func (l Lateness) Mean() time.Duration {
	if l.N == 0 {
		return 0
	}
	return l.Sum / time.Duration(l.N)
}

// Open emits operations at rate per second for dur: operation i is due
// at start + i/rate and is handed its due time, which is what the
// caller times it from — a stalled generator or a full window delays
// the emit, not the due time, so the wait a stall imposes on later
// operations is counted. Returns how many operations were emitted.
func Open(ctx context.Context, clk Clock, w *Window, rate float64, dur time.Duration,
	emit func(i int, due time.Time)) (int, Lateness) {
	var late Lateness
	start := clk.Now()
	interval := time.Duration(float64(time.Second) / rate)
	total := int(float64(dur) / float64(interval))
	for i := 0; i < total; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := due.Sub(clk.Now()); wait > 0 {
			clk.Sleep(wait)
		}
		if ctx.Err() != nil || !w.Acquire(ctx) {
			return i, late
		}
		d := clk.Now().Sub(due)
		if d < 0 {
			d = 0
		}
		late.N++
		late.Sum += d
		if d > late.Max {
			late.Max = d
		}
		emit(i, due)
	}
	return total, late
}

// Closed emits operations back to back for dur, each as soon as the
// window has a free slot: the next operation is sent only once an
// earlier one completes. Returns how many operations were emitted.
func Closed(ctx context.Context, clk Clock, w *Window, dur time.Duration,
	emit func(i int, at time.Time)) int {
	end := clk.Now().Add(dur)
	for i := 0; ; i++ {
		if ctx.Err() != nil || !w.Acquire(ctx) {
			return i
		}
		now := clk.Now()
		if !now.Before(end) {
			w.Release(1)
			return i
		}
		emit(i, now)
	}
}
