package trace

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSelfTimeSubtractsWhatChildrenCover(t *testing.T) {
	spans := []Span{
		{Start: 0, End: 100, Parent: NoParent}, // 0: handler
		{Start: 10, End: 30, Parent: 0},        // 1: send
		{Start: 20, End: 50, Parent: 0},        // 2: overlaps 1 — covered once
		{Start: 90, End: 130, Parent: 0},       // 3: runs past the parent's end
		{Start: 22, End: 25, Parent: 2},        // 4: grandchild
		{Start: 200, End: 260, Parent: NoParent},
	}
	want := []int64{100 - (40 + 10), 20, 30 - 3, 40, 3, 60}
	got := SelfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestAttributeInnermostSpanAndNamedGaps(t *testing.T) {
	spans := []*Span{
		{Name: 1, Node: 0, Start: 0, End: 40},    // handler on node 0
		{Name: 2, Node: 0, Start: 10, End: 20},   // send inside it
		{Name: 3, Node: 1, Start: 70, End: 90},   // handler on node 1, after a hop
		{Name: 4, Node: 1, Start: 100, End: 110}, // pool send after a queue wait
	}
	gap := func(prev, next *Span) string {
		if next == nil {
			return "tail"
		}
		if next.Name == 3 {
			return "hop"
		}
		return "wait"
	}
	bySpan, byGap := Attribute(spans, 0, 120, gap)
	if bySpan[1] != 30 || bySpan[2] != 10 || bySpan[3] != 20 || bySpan[4] != 10 {
		t.Errorf("span attribution %v", bySpan)
	}
	if byGap["hop"] != 30 || byGap["wait"] != 10 || byGap["tail"] != 10 {
		t.Errorf("gap attribution %v", byGap)
	}
	total := int64(0)
	for _, v := range bySpan {
		total += v
	}
	for _, v := range byGap {
		total += v
	}
	if total != 120 {
		t.Errorf("attributed %d ns of 120", total)
	}
}

func TestRecorderDropsWhenFullAndWrites(t *testing.T) {
	r := NewRecorder(2)
	a := r.Begin(Span{Name: r.Name("h:x"), Journey: 16, Start: r.Now()})
	r.End(a, r.Now()+5)
	r.Add(Span{Name: r.Name("s:x"), Journey: NoJourney, Start: 1, End: 2})
	if idx := r.Begin(Span{}); idx != NoParent || r.Dropped() != 1 {
		t.Fatalf("third span: idx %d dropped %d", idx, r.Dropped())
	}
	if r.Name("h:x") != r.Name("h:x") || r.NameOf(r.Name("s:x")) != "s:x" {
		t.Fatal("names are not interned")
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := r.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"name":"h:x"`) || !strings.Contains(string(data), `"journey":16`) {
		t.Errorf("trace file: %s", data)
	}
}
