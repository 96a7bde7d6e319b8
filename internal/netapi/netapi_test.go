package netapi

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/vclock"
	"github.com/gloss/active/internal/wire"
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

// stubEndpoint is the minimal Endpoint for capability-probe tests.
type stubEndpoint struct{}

func (stubEndpoint) ID() ids.ID                                             { return ids.ID{} }
func (stubEndpoint) Info() NodeInfo                                         { return NodeInfo{} }
func (stubEndpoint) Clock() vclock.Clock                                    { return nil }
func (stubEndpoint) Rand() *rand.Rand                                       { return nil }
func (stubEndpoint) Send(ids.ID, wire.Message)                              {}
func (stubEndpoint) Request(ids.ID, wire.Message, time.Duration, ReplyFunc) {}
func (stubEndpoint) Handle(string, Handler)                                 {}

type localStub struct {
	stubEndpoint
	queued []wire.Message
}

func (l *localStub) DeliverLocal(msg wire.Message) { l.queued = append(l.queued, msg) }

// hidingStub wraps an endpoint the way the benchmark's spy does: it
// forwards the Endpoint interface and nothing else.
type hidingStub struct{ Endpoint }

func TestCapabilitiesLocal(t *testing.T) {
	if Capabilities(stubEndpoint{}).Local != nil {
		t.Fatal("plain endpoint must not report a local run queue")
	}
	l := &localStub{}
	if Capabilities(l).Local == nil {
		t.Fatal("a LocalDeliverer must set Caps.Local")
	}
	if Capabilities(hidingStub{l}).Local != nil {
		t.Fatal("a wrapper that forwards only Endpoint must hide the run queue")
	}
}
