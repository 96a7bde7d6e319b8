package pace

import (
	"context"
	"testing"
	"time"
)

// fakeClock advances only when slept on; stallAt makes one sleep
// overshoot, as a descheduled generator would.
type fakeClock struct {
	now     time.Time
	sleeps  int
	stallAt int
	stall   time.Duration
}

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) Sleep(d time.Duration) {
	c.sleeps++
	if c.sleeps == c.stallAt {
		d += c.stall
	}
	c.now = c.now.Add(d)
}

// An open loop hands every operation the time it was due, stall or not,
// so the wait a stall imposes on later operations is counted.
func TestOpenLoopTimesFromDueTimeUnderAStall(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start, stallAt: 5, stall: 50 * time.Millisecond}
	var dues []time.Time
	var emitted []time.Time
	n, late := Open(context.Background(), clk, NewWindow(1000), 100, time.Second,
		func(i int, due time.Time) {
			dues = append(dues, due)
			emitted = append(emitted, clk.Now())
		})
	if n != 100 || len(dues) != 100 {
		t.Fatalf("emitted %d operations, want 100", n)
	}
	for i, due := range dues {
		if want := start.Add(time.Duration(i) * 10 * time.Millisecond); !due.Equal(want) {
			t.Fatalf("operation %d due %v, want %v", i, due.Sub(start), want.Sub(start))
		}
	}
	// The stall delays operation 5 by 50 ms and the four after it by
	// 40, 30, 20, 10 ms: the generator catches up without sleeping.
	if late.Max != 50*time.Millisecond {
		t.Errorf("max lateness %v, want 50ms", late.Max)
	}
	if got := emitted[5].Sub(dues[5]); got != 50*time.Millisecond {
		t.Errorf("stalled operation emitted %v after its due time", got)
	}
	if got := emitted[9].Sub(dues[9]); got != 10*time.Millisecond {
		t.Errorf("catch-up operation emitted %v after its due time", got)
	}
	if got := emitted[10].Sub(dues[10]); got != 0 {
		t.Errorf("generator still %v late after catching up", got)
	}
	if late.Sum != 150*time.Millisecond || late.N != 100 {
		t.Errorf("lateness sum %v over %d", late.Sum, late.N)
	}
}

func TestWindowBoundsInFlight(t *testing.T) {
	w := NewWindow(2)
	ctx := context.Background()
	if !w.Acquire(ctx) || !w.Acquire(ctx) || w.InFlight() != 2 {
		t.Fatal("two slots must be free")
	}
	blocked, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if w.Acquire(blocked) {
		t.Fatal("third acquire must block until a release")
	}
	w.Release(1)
	if !w.Acquire(ctx) {
		t.Fatal("released slot not reusable")
	}
	w.Release(5) // surplus is dropped
	if w.InFlight() != 0 {
		t.Fatalf("in flight %d after releasing everything", w.InFlight())
	}
}

// A closed loop sends the next operation only when an earlier one
// completes: with no completions it stops at the window.
func TestClosedLoopBlocksOnTheWindow(t *testing.T) {
	w := NewWindow(3)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if n := Closed(ctx, Wall{}, w, time.Second, func(int, time.Time) {}); n != 3 {
		t.Fatalf("emitted %d with a window of 3 and no completions", n)
	}
}
