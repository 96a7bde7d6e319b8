// Package vclock provides the virtual clock and discrete-event scheduler
// that drive the simulated world. All protocol code in this repository is
// written against the Clock interface, so the same code runs either under
// the deterministic simulator (Scheduler) or against wall-clock time
// (Real, in internal/transport).
package vclock

import (
	"container/heap"
	"time"
)

// Clock supplies time and timer scheduling to protocol code.
//
// Implementations must execute callbacks serially with respect to the
// component that scheduled them; under the simulator the entire world is
// serialised, which makes protocol code lock-free and deterministic.
type Clock interface {
	// Now returns the current virtual (or wall) time measured from an
	// arbitrary epoch.
	Now() time.Duration
	// After schedules fn to run once, d from now. It returns a Timer
	// that can cancel the callback before it fires.
	After(d time.Duration, fn func()) Timer
}

// Timer is a handle to a scheduled callback.
type Timer interface {
	// Stop cancels the timer. It reports whether the callback was
	// prevented from running (false if it already ran or was stopped).
	Stop() bool
}

// Task is one unit of scheduled work. A hot path schedules values it
// already has, so an event costs the scheduler no allocation.
type Task interface {
	Run()
}

// Func makes a plain function a Task. A func value is one pointer, so
// the conversion allocates nothing.
type Func func()

// Run calls f.
func (f Func) Run() { f() }

// Handle cancels one scheduling of a task. It is a Timer, and it is meant
// to be embedded in the task it cancels, so a stoppable task is one
// allocation. A handle serves one pending scheduling at a time.
type Handle struct {
	stopped, ran bool
}

// Stop reports whether it prevented the task from running: false once
// the task has started or the handle was already stopped.
func (h *Handle) Stop() bool {
	if h.stopped || h.ran {
		return false
	}
	h.stopped = true
	return true
}

// item is one scheduled task inside a bucket, stored by value; h is nil
// for a task nothing can cancel.
type item struct {
	task Task
	h    *Handle
}

func (it item) stopped() bool { return it.h != nil && it.h.stopped }

// bucket groups every event scheduled for one instant. The heap orders
// buckets, not events, so scheduling N same-deadline deliveries (a
// publish fan-out under fixed latency) costs one heap operation total
// plus N slice appends — the timer-wheel analogue for a discrete-event
// world where deadlines repeat exactly rather than falling into coarse
// slots.
type bucket struct {
	at    time.Duration
	seq   uint64 // creation order; heap tiebreak if equal times ever coexist
	items []item
	next  int // index of the first unexecuted item
	index int // heap position
}

type bucketQueue []*bucket

func (q bucketQueue) Len() int { return len(q) }

func (q bucketQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q bucketQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *bucketQueue) Push(x any) {
	b := x.(*bucket)
	b.index = len(*q)
	*q = append(*q, b)
}

func (q *bucketQueue) Pop() any {
	old := *q
	n := len(old)
	b := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return b
}

// Scheduler is a deterministic discrete-event scheduler. It is not safe
// for concurrent use: the entire simulated world runs on one goroutine.
//
// Internally it is a bucketed timer wheel: events scheduled for the same
// virtual instant share one bucket and the priority queue holds buckets,
// so hot fan-out workloads (thousands of messages due at one deadline)
// pay O(1) amortised scheduling instead of O(log n) heap churn each.
// Within a bucket events run in scheduling order, which preserves the
// original global FIFO tiebreak for equal times exactly.
type Scheduler struct {
	now     time.Duration
	seq     uint64 // bucket creation counter
	buckets map[time.Duration]*bucket
	queue   bucketQueue
	steps   uint64
	free    []*bucket // drained buckets, recycled so a deadline costs no allocation
}

// NewScheduler returns a scheduler positioned at time zero.
func NewScheduler() *Scheduler {
	return &Scheduler{buckets: make(map[time.Duration]*bucket)}
}

var _ Clock = (*Scheduler)(nil)

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// After schedules fn at now+d; negative d is treated as zero. The
// returned handle is its one allocation.
func (s *Scheduler) After(d time.Duration, fn func()) Timer {
	h := new(Handle)
	s.Schedule(d, Func(fn), h)
	return h
}

// Schedule runs t at now+d; negative d is treated as zero. Stopping h,
// when it is non-nil, keeps t from running. Same-instant tasks run in
// the order they were scheduled.
func (s *Scheduler) Schedule(d time.Duration, t Task, h *Handle) {
	if d < 0 {
		d = 0
	}
	at := s.now + d
	b, ok := s.buckets[at]
	if !ok {
		if n := len(s.free); n > 0 {
			b = s.free[n-1]
			s.free[n-1] = nil
			s.free = s.free[:n-1]
			b.at, b.items, b.next = at, b.items[:0], 0
		} else {
			b = &bucket{at: at}
		}
		b.seq = s.seq
		s.seq++
		s.buckets[at] = b
		heap.Push(&s.queue, b)
	}
	if h != nil {
		*h = Handle{}
	}
	b.items = append(b.items, item{task: t, h: h})
}

// Pending returns the number of scheduled, unstopped events.
func (s *Scheduler) Pending() int {
	n := 0
	for _, b := range s.buckets {
		for _, it := range b.items[b.next:] {
			if !it.stopped() {
				n++
			}
		}
	}
	return n
}

// Steps returns the number of events executed so far.
func (s *Scheduler) Steps() uint64 { return s.steps }

// top returns the earliest bucket that still holds unexecuted items,
// retiring drained buckets along the way.
func (s *Scheduler) top() *bucket {
	for len(s.queue) > 0 {
		b := s.queue[0]
		if b.next < len(b.items) {
			return b
		}
		s.retire(b)
	}
	return nil
}

// retire removes a fully drained bucket from the queue and the wheel and
// recycles it. Its items were zeroed as they were consumed.
func (s *Scheduler) retire(b *bucket) {
	heap.Remove(&s.queue, b.index)
	delete(s.buckets, b.at)
	s.free = append(s.free, b)
}

// step executes the earliest event. It reports false when the queue is empty.
func (s *Scheduler) step() bool {
	for {
		b := s.top()
		if b == nil {
			return false
		}
		for b.next < len(b.items) {
			it := b.items[b.next]
			b.items[b.next] = item{}
			b.next++
			if b.next == len(b.items) {
				// Retire before running: a callback scheduling at this
				// same instant must land in a fresh bucket that runs next.
				s.retire(b)
			}
			if it.stopped() {
				continue
			}
			if it.h != nil {
				it.h.ran = true
			}
			s.now = b.at
			s.steps++
			it.task.Run()
			return true
		}
	}
}

// RunUntil executes events in order until virtual time would exceed t or
// no events remain. The clock is left at min(t, time of last event run)
// — advanced to t if the queue drains earlier.
func (s *Scheduler) RunUntil(t time.Duration) {
	for {
		next, ok := s.peekAt()
		if !ok || next > t {
			break
		}
		s.step()
	}
	if s.now < t {
		s.now = t
	}
}

// RunFor advances the clock by d, executing all events due in the window.
func (s *Scheduler) RunFor(d time.Duration) { s.RunUntil(s.now + d) }

// Drain executes events until none remain or maxSteps events have run.
// It reports whether the queue was fully drained. Protocols with
// periodic timers never drain; use RunUntil for those worlds.
func (s *Scheduler) Drain(maxSteps uint64) bool {
	for i := uint64(0); i < maxSteps; i++ {
		if !s.step() {
			return true
		}
	}
	_, ok := s.peekAt()
	return !ok
}

// peekAt returns the deadline of the earliest unstopped event. Stopped
// items at the front of the wheel are discarded on the way (they would
// be skipped by step anyway).
func (s *Scheduler) peekAt() (time.Duration, bool) {
	for {
		b := s.top()
		if b == nil {
			return 0, false
		}
		for b.next < len(b.items) {
			if !b.items[b.next].stopped() {
				return b.at, true
			}
			b.items[b.next] = item{}
			b.next++
		}
	}
}
