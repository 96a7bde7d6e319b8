package calib

import (
	"testing"
	"time"
)

// probeWith returns a probe holding one sample per given time (ns), a
// millisecond apart from t = 0.
func probeWith(ns ...int32) *Probe {
	p := NewProbe()
	for i, v := range ns {
		p.at = append(p.at, int64(i)*int64(time.Millisecond))
		p.ns = append(p.ns, v)
	}
	return p
}

func TestSlowdownIsTheWindowsMedianOverNominal(t *testing.T) {
	var ns []int32
	for i := 0; i < 40; i++ {
		v := int32(Nominal) // first 20 ms: an undisturbed host
		if i >= 20 {
			v = 2 * int32(Nominal) // then one twice as slow
		}
		ns = append(ns, v)
	}
	ns[3], ns[27] = 1_000_000, 1_000_000 // a preempted run must not move a median
	p := probeWith(ns...)
	ms := int64(time.Millisecond)
	if got := p.Slowdown(0, 20*ms); got != 1 {
		t.Errorf("quiet window: slowdown %v, want 1", got)
	}
	if got := p.Slowdown(20*ms, 40*ms); got != 2 {
		t.Errorf("slow window: slowdown %v, want 2", got)
	}
}

func TestSlowdownWithoutEnoughSamplesIsOne(t *testing.T) {
	p := probeWith(5000, 5000, 5000)
	if got := p.Slowdown(0, int64(time.Second)); got != 1 {
		t.Errorf("3 samples: slowdown %v, want 1 (no correction)", got)
	}
	if got := NewProbe().Slowdown(0, 1); got != 1 {
		t.Errorf("empty probe: slowdown %v, want 1", got)
	}
}

func TestTickIsRateLimited(t *testing.T) {
	p := NewProbe()
	now := time.Now()
	for i := 0; i < 100; i++ {
		p.Tick(now.Add(time.Duration(i) * minGap / 10)) // ten calls per gap
	}
	if got := len(p.at); got < 9 || got > 11 {
		t.Errorf("100 calls over 10 gaps recorded %d samples, want about 10", got)
	}
	for _, v := range p.ns {
		if v <= 0 {
			t.Fatalf("a kernel run took %d ns", v)
		}
	}
}
