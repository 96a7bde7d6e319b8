// Package trace is the benchmark-side span recorder. Spans are taken
// around calls into the program's public functions (never inside it),
// kept in a preallocated buffer while a workload runs, and analysed or
// written out only afterwards.
package trace

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// NoJourney marks a span that belongs to no sampled journey.
const NoJourney int64 = -1

// NoParent marks a span that is not nested in another span.
const NoParent int32 = -1

// Span is one timed interval at a layer boundary.
type Span struct {
	Name    uint16 // index into the recorder's name table
	Node    int16  // node the work ran on
	Parent  int32  // innermost span containing this one on its node; set by the analysis
	Journey int64  // the journey id (the event's "n"), or NoJourney
	Start   int64  // ns since the recorder's epoch
	End     int64
	To      uint64 // send spans: bitmask of destination node indexes
}

// Dur is the span's length in ns.
func (s *Span) Dur() int64 { return s.End - s.Start }

// Recorder holds spans in a fixed buffer. Begin may be called from any
// goroutine; a full buffer drops the span and counts it.
type Recorder struct {
	epoch   time.Time
	spans   []Span
	next    atomic.Int64
	dropped atomic.Int64

	mu    sync.RWMutex
	names []string
	index map[string]uint16
}

// NewRecorder preallocates room for capacity spans.
func NewRecorder(capacity int) *Recorder {
	return &Recorder{
		epoch: time.Now(),
		spans: make([]Span, capacity),
		index: make(map[string]uint16),
	}
}

// Now is the recorder's clock: ns since its epoch.
func (r *Recorder) Now() int64 { return int64(time.Since(r.epoch)) }

// At converts a wall-clock instant to the recorder's clock.
func (r *Recorder) At(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// Name interns a span name.
func (r *Recorder) Name(name string) uint16 {
	r.mu.RLock()
	id, ok := r.index[name]
	r.mu.RUnlock()
	if ok {
		return id
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.index[name]; ok {
		return id
	}
	id = uint16(len(r.names))
	r.names = append(r.names, name)
	r.index[name] = id
	return id
}

// NameOf resolves an interned name.
func (r *Recorder) NameOf(id uint16) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.names[id]
}

// Begin records a span's opening and returns its index, or NoParent
// when the buffer is full. The caller closes it with End.
func (r *Recorder) Begin(s Span) int32 {
	i := r.next.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return NoParent
	}
	s.Parent = NoParent // nesting is worked out after the run
	r.spans[i] = s
	return int32(i)
}

// End closes the span opened as idx.
func (r *Recorder) End(idx int32, end int64) {
	if idx >= 0 {
		r.spans[idx].End = end
	}
}

// Add records an already-closed span.
func (r *Recorder) Add(s Span) int32 { return r.Begin(s) }

// Spans returns the recorded spans. Call only after every producer has
// stopped.
func (r *Recorder) Spans() []Span {
	n := r.next.Load()
	if n > int64(len(r.spans)) {
		n = int64(len(r.spans))
	}
	return r.spans[:n]
}

// Dropped counts spans lost to a full buffer.
func (r *Recorder) Dropped() int64 { return r.dropped.Load() }

// SelfTimes returns, for every span, its duration minus the part of
// that interval its child spans cover (children are spans whose Parent
// is its index; overlapping children are not counted twice).
func SelfTimes(spans []Span) []int64 {
	children := make(map[int32][]int32)
	for i := range spans {
		if p := spans[i].Parent; p >= 0 && int(p) < len(spans) {
			children[p] = append(children[p], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		p := &spans[i]
		self[i] = p.Dur()
		kids := children[int32(i)]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), p.Start
		for _, k := range kids {
			s, e := spans[k].Start, spans[k].End
			if s < edge {
				s = edge
			}
			if e > p.End {
				e = p.End
			}
			if e > s {
				covered += e - s
				edge = e
			}
		}
		self[i] -= covered
	}
	return self
}

// Attribute splits the interval [from, to] among the given spans: every
// instant goes to the innermost span covering it (the one that started
// last), which is that span's self time; instants no span covers are
// gaps, named by gap from the span that ended last before the gap and
// the span that starts next after it (either may be nil). The result
// maps a name index (spans) or gap name to ns.
func Attribute(spans []*Span, from, to int64, gap func(prev, next *Span) string) (bySpan map[uint16]int64, byGap map[string]int64) {
	bySpan = make(map[uint16]int64)
	byGap = make(map[string]int64)
	if to <= from {
		return bySpan, byGap
	}
	cuts := []int64{from, to}
	for _, s := range spans {
		if s.Start > from && s.Start < to {
			cuts = append(cuts, s.Start)
		}
		if s.End > from && s.End < to {
			cuts = append(cuts, s.End)
		}
	}
	sort.Slice(cuts, func(a, b int) bool { return cuts[a] < cuts[b] })
	for k := 0; k+1 < len(cuts); k++ {
		lo, hi := cuts[k], cuts[k+1]
		if hi == lo {
			continue
		}
		var active *Span
		for _, s := range spans {
			if s.Start <= lo && s.End >= hi && (active == nil || s.Start > active.Start ||
				(s.Start == active.Start && s.End < active.End)) {
				active = s
			}
		}
		if active != nil {
			bySpan[active.Name] += hi - lo
			continue
		}
		var prev, next *Span
		for _, s := range spans {
			if s.End <= lo && (prev == nil || s.End > prev.End) {
				prev = s
			}
			if s.Start >= hi && (next == nil || s.Start < next.Start) {
				next = s
			}
		}
		byGap[gap(prev, next)] += hi - lo
	}
	return bySpan, byGap
}

// WriteJSON writes every span as one JSON object per line inside an
// array: name, node, journey id, start and end in µs, parent index.
func (r *Recorder) WriteJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "[")
	spans := r.Spans()
	for i := range spans {
		s := &spans[i]
		sep := ","
		if i == len(spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, `{"i":%d,"name":%q,"node":%d,"journey":%d,"start_us":%.3f,"end_us":%.3f,"parent":%d}%s`+"\n",
			i, r.NameOf(s.Name), s.Node, s.Journey, float64(s.Start)/1e3, float64(s.End)/1e3, s.Parent, sep)
	}
	fmt.Fprintln(w, "]")
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: close %s: %w", path, err)
	}
	return nil
}
