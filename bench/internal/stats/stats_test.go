package stats

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileInterpolates(t *testing.T) {
	s := Sorted([]float64{40, 10, 30, 20})
	for _, c := range []struct{ p, want float64 }{{0, 10}, {0.5, 25}, {1, 40}, {0.9, 37}} {
		if got := Percentile(s, c.p); !near(got, c.want) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("empty sample must read 0")
	}
}

// The tail percentile quoted is the highest with at least ten samples
// beyond it.
func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{{99, 0, false}, {100, 0.90, true}, {999, 0.90, true}, {1000, 0.99, true}, {10000, 0.999, true}, {100000, 0.9999, true}} {
		p, ok := TailPercentile(c.n)
		if ok != c.ok || !near(p, c.want) {
			t.Errorf("TailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := Summarize(xs)
	if s.N != 1000 || !near(s.P50, 500.5) || s.TailP != 0.99 || s.Max != 1000 {
		t.Errorf("Summarize = %+v", s)
	}
	if got := Summarize(xs[:50]); got.TailP != 0 || got.Tail != 0 {
		t.Errorf("50 samples support no tail percentile, got %+v", got)
	}
}

// Quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which the benchmark's acceptance rule is written in.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := Quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("Quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = Quartiles([]float64{5, 1, 9})
	if !near(q1, 1) || !near(q3, 9) {
		t.Errorf("Quartiles(1,5,9) = %v, %v; want 1, 9", q1, q3)
	}
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("Spread = %v, want 1 (IQR 5.5 over median 5.5)", got)
	}
}
