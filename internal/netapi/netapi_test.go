package netapi

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDistanceKm(t *testing.T) {
	a := Coord{X: 0, Y: 0}
	b := Coord{X: 3, Y: 4}
	if got := a.DistanceKm(b); got != 5 {
		t.Fatalf("distance = %v, want 5", got)
	}
	if got := a.DistanceKm(a); got != 0 {
		t.Fatalf("self distance = %v", got)
	}
}

// Property: distance is symmetric, non-negative, and satisfies the
// triangle inequality.
func TestQuickDistanceMetric(t *testing.T) {
	bound := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return math.Mod(v, 1e6)
	}
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a := Coord{X: bound(ax), Y: bound(ay)}
		b := Coord{X: bound(bx), Y: bound(by)}
		c := Coord{X: bound(cx), Y: bound(cy)}
		ab, ba := a.DistanceKm(b), b.DistanceKm(a)
		if ab != ba || ab < 0 {
			return false
		}
		// Triangle inequality with a small float tolerance.
		return a.DistanceKm(c) <= ab+b.DistanceKm(c)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
