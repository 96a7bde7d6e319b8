// Package stats holds the benchmark's sample arithmetic: percentiles,
// the rule for which tail percentile a sample supports, and the
// quartile spread the self-check compares against a metric's bound.
package stats

import (
	"math"
	"sort"
)

// Sorted returns an ascending copy of xs.
func Sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// Percentile reads the p-quantile (0 ≤ p ≤ 1) of an ascending sample by
// linear interpolation between closest ranks. Zero for an empty sample.
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo < 0 {
		lo = 0
	}
	if hi >= n {
		hi = n - 1
	}
	frac := pos - float64(lo)
	return sorted[lo] + (sorted[hi]-sorted[lo])*frac
}

// Median is the 0.5-quantile of an unsorted sample.
func Median(xs []float64) float64 { return Percentile(Sorted(xs), 0.5) }

// tailCandidates are the tail percentiles a report may quote, highest
// last: the percentile and the one-in-how-many samples that lie beyond it.
var tailCandidates = []struct {
	p     float64
	oneIn int
}{{0.90, 10}, {0.99, 100}, {0.999, 1000}, {0.9999, 10000}}

// MinBeyond is how many samples must lie beyond a percentile before it
// is quoted: fewer, and the figure is one or two outliers, not a tail.
const MinBeyond = 10

// TailPercentile picks the highest candidate percentile that still has
// at least MinBeyond of the n samples beyond it. ok is false when even
// p90 is unsupported (n < 100).
func TailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailCandidates {
		if n/c.oneIn >= MinBeyond {
			p, ok = c.p, true
		}
	}
	return p, ok
}

// Summary describes one timing sample the way every report quotes it:
// the count, the median and the highest supported tail percentile.
type Summary struct {
	N     int
	P50   float64
	P90   float64
	TailP float64 // 0 when the sample supports no tail percentile
	Tail  float64
	Max   float64
}

// Summarize computes a Summary over an unsorted sample.
func Summarize(xs []float64) Summary {
	s := Sorted(xs)
	out := Summary{N: len(s)}
	if len(s) == 0 {
		return out
	}
	out.P50 = Percentile(s, 0.5)
	out.P90 = Percentile(s, 0.9)
	out.Max = s[len(s)-1]
	if p, ok := TailPercentile(len(s)); ok {
		out.TailP = p
		out.Tail = Percentile(s, p)
	}
	return out
}

// Quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which
// is what the benchmark's acceptance rule is stated in.
func Quartiles(xs []float64) (q1, q3 float64) {
	s := Sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*delta
	}
	return at(1), at(3)
}

// Spread is the interquartile distance as a share of the median: the
// run-to-run noise figure a metric's bound is compared with.
func Spread(xs []float64) float64 {
	m := Median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := Quartiles(xs)
	return math.Abs(q3-q1) / math.Abs(m)
}
