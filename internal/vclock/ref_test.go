package vclock

import (
	"container/heap"
	"fmt"
	"testing"
	"time"
)

// refScheduler is the scheduler as it was before tasks: a closure and a
// heap item per event, buckets of item pointers, at most 64 drained
// buckets kept for reuse. It is the oracle TestSchedulerMatchesReference
// holds the task scheduler to.
type refScheduler struct {
	now     time.Duration
	seq     uint64
	buckets map[time.Duration]*refBucket
	queue   refQueue
	steps   uint64
	free    []*refBucket
}

type refItem struct {
	fn      func()
	stopped bool
}

func (it *refItem) Stop() bool {
	if it.stopped || it.fn == nil {
		return false
	}
	it.stopped = true
	return true
}

type refBucket struct {
	at    time.Duration
	seq   uint64
	items []*refItem
	next  int
	index int
}

type refQueue []*refBucket

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *refQueue) Push(x any) {
	b := x.(*refBucket)
	b.index = len(*q)
	*q = append(*q, b)
}
func (q *refQueue) Pop() any {
	old := *q
	b := old[len(old)-1]
	*q = old[:len(old)-1]
	return b
}

func newRefScheduler() *refScheduler {
	return &refScheduler{buckets: make(map[time.Duration]*refBucket)}
}

func (s *refScheduler) Now() time.Duration { return s.now }
func (s *refScheduler) Steps() uint64      { return s.steps }

func (s *refScheduler) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	at := s.now + d
	b, ok := s.buckets[at]
	if !ok {
		if n := len(s.free); n > 0 {
			b = s.free[n-1]
			s.free = s.free[:n-1]
			b.at, b.items, b.next = at, b.items[:0], 0
		} else {
			b = &refBucket{at: at}
		}
		b.seq = s.seq
		s.seq++
		s.buckets[at] = b
		heap.Push(&s.queue, b)
	}
	it := &refItem{fn: fn}
	b.items = append(b.items, it)
	return it
}

func (s *refScheduler) Pending() int {
	n := 0
	for _, b := range s.buckets {
		for _, it := range b.items[b.next:] {
			if !it.stopped {
				n++
			}
		}
	}
	return n
}

func (s *refScheduler) top() *refBucket {
	for len(s.queue) > 0 {
		b := s.queue[0]
		if b.next < len(b.items) {
			return b
		}
		s.retire(b)
	}
	return nil
}

func (s *refScheduler) retire(b *refBucket) {
	heap.Remove(&s.queue, b.index)
	delete(s.buckets, b.at)
	for i := range b.items {
		b.items[i] = nil
	}
	if len(s.free) < 64 {
		s.free = append(s.free, b)
	}
}

func (s *refScheduler) step() bool {
	for {
		b := s.top()
		if b == nil {
			return false
		}
		for b.next < len(b.items) {
			it := b.items[b.next]
			b.items[b.next] = nil
			b.next++
			if b.next == len(b.items) {
				s.retire(b)
			}
			if it.stopped {
				continue
			}
			s.now = b.at
			fn := it.fn
			it.fn = nil
			s.steps++
			fn()
			return true
		}
	}
}

func (s *refScheduler) peekAt() (time.Duration, bool) {
	for {
		b := s.top()
		if b == nil {
			return 0, false
		}
		for b.next < len(b.items) {
			if !b.items[b.next].stopped {
				return b.at, true
			}
			b.items[b.next] = nil
			b.next++
		}
	}
}

func (s *refScheduler) RunUntil(t time.Duration) {
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

func (s *refScheduler) Drain(maxSteps uint64) bool {
	for i := uint64(0); i < maxSteps; i++ {
		if !s.step() {
			return true
		}
	}
	_, ok := s.peekAt()
	return !ok
}

// wheel is what the differential drives on both schedulers.
type wheel interface {
	Now() time.Duration
	Steps() uint64
	Pending() int
	RunUntil(time.Duration)
	Drain(uint64) bool
}

// prng is a splitmix64 stream: cheap enough to seed one per event.
type prng uint64

func newPrng(seed int64) *prng {
	p := prng(seed)
	return &p
}

func (p *prng) Intn(n int) int {
	*p += 0x9E3779B97F4A7C15
	z := uint64(*p)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return int((z ^ z>>31) % uint64(n))
}

// stopTask is a task with its handle embedded, the shape simnet's
// requests and node timers take.
type stopTask struct {
	Handle
	fn func()
}

func (t *stopTask) Run() { t.fn() }

// script runs one random program against a scheduler and returns its
// trace: every event run with its instant, every Stop result, and Now,
// Steps and Pending after every top-level step. Each event's actions come
// from its own seeded source, so both schedulers see the same program.
func script(seed int64, w wheel, schedule func(id int, d time.Duration, fn func()) Timer) []string {
	var (
		trace  []string
		timers []Timer // by event id; nil for a task nothing can stop
		add    func(r *prng)
	)
	delay := func(r *prng) time.Duration {
		switch r.Intn(4) {
		case 0:
			return 0 // the current instant
		case 1:
			return -time.Millisecond
		default:
			return time.Duration(r.Intn(8)) * time.Millisecond
		}
	}
	stop := func(r *prng) {
		if len(timers) == 0 {
			return
		}
		id := r.Intn(len(timers))
		if timers[id] != nil {
			trace = append(trace, fmt.Sprintf("stop %d: %v", id, timers[id].Stop()))
		}
	}
	add = func(r *prng) {
		id := len(timers)
		timers = append(timers, nil)
		timers[id] = schedule(id, delay(r), func() {
			trace = append(trace, fmt.Sprintf("run %d at %v", id, w.Now()))
			rr := newPrng(seed*7919 + int64(id))
			for n := rr.Intn(3); n > 0 && len(timers) < 400; n-- {
				add(rr)
			}
			for n := rr.Intn(2); n > 0; n-- {
				stop(rr)
			}
			if rr.Intn(4) == 0 {
				trace = append(trace, fmt.Sprintf("self-stop %d: %v", id, timers[id] != nil && timers[id].Stop()))
			}
		})
	}
	r := newPrng(seed)
	for op := 0; op < 200; op++ {
		switch r.Intn(5) {
		case 0, 1:
			add(r)
		case 2:
			stop(r)
		case 3:
			w.RunUntil(w.Now() + time.Duration(r.Intn(6))*time.Millisecond)
		case 4:
			trace = append(trace, fmt.Sprintf("drain: %v", w.Drain(uint64(r.Intn(5)))))
		}
		trace = append(trace, fmt.Sprintf("now %v steps %d pending %d", w.Now(), w.Steps(), w.Pending()))
	}
	trace = append(trace, fmt.Sprintf("drain: %v steps %d", w.Drain(1<<20), w.Steps()))
	return trace
}

// TestSchedulerMatchesReference drives the task scheduler and the
// closure-per-item oracle with the same random After/Stop/RunUntil/Drain
// programs — callbacks that schedule at their own
// instant and stop other timers included — and demands the same run
// order, Now, Steps, Pending and Stop results.
func TestSchedulerMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		ref := newRefScheduler()
		want := script(seed, ref, func(id int, d time.Duration, fn func()) Timer {
			if tm := ref.After(d, fn); id%3 != 2 {
				return tm
			}
			return nil // scheduled below without a handle
		})
		s := NewScheduler()
		got := script(seed, s, func(id int, d time.Duration, fn func()) Timer {
			switch id % 3 {
			case 0:
				return s.After(d, fn)
			case 1:
				task := &stopTask{fn: fn}
				s.Schedule(d, task, &task.Handle)
				return &task.Handle
			default:
				s.Schedule(d, Func(fn), nil)
				return nil
			}
		})
		if len(got) != len(want) {
			t.Fatalf("seed %d: trace of %d lines, oracle %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: line %d is %q, oracle %q", seed, i, got[i], want[i])
			}
		}
	}
}

// BenchmarkSchedulerAfter: schedule and run one event through After and
// through a task that embeds its handle; allocs/op is the scheduler's
// cost per event (the handle for After, nothing for the task).
func BenchmarkSchedulerAfter(b *testing.B) {
	fn := func() {}
	b.Run("after", func(b *testing.B) {
		s := NewScheduler()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.After(time.Duration(i&1), fn)
			s.RunUntil(s.Now() + 1)
		}
	})
	b.Run("task", func(b *testing.B) {
		s := NewScheduler()
		task := &stopTask{fn: fn}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Schedule(time.Duration(i&1), task, &task.Handle)
			s.RunUntil(s.Now() + 1)
		}
	})
}

// BenchmarkSchedulerDeadlines schedules and runs 1 000 tasks per
// iteration: all at one deadline, the fan-out case buckets exist for, and
// at 1 000 distinct deadlines, where every task opens a bucket of its own.
func BenchmarkSchedulerDeadlines(b *testing.B) {
	const tasks = 1000
	task := Func(func() {})
	for _, bc := range []struct {
		name string
		at   func(i int) time.Duration
	}{
		{"same-instant", func(int) time.Duration { return time.Millisecond }},
		{"spread", func(i int) time.Duration { return time.Duration(tasks-i) * time.Microsecond }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := NewScheduler()
			b.ReportAllocs()
			for b.Loop() {
				for i := range tasks {
					s.Schedule(bc.at(i), task, nil)
				}
				s.RunUntil(s.Now() + time.Second)
			}
		})
	}
}
