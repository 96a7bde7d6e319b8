package plaxton

import (
	"slices"
	"testing"
	"time"

	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/wire"
)

// pingCounter wraps a node's endpoint and counts the pings its overlay
// receives, per sender.
type pingCounter struct {
	netapi.Endpoint
	from map[ids.ID]int
}

func (p *pingCounter) Handle(kind string, fn netapi.Handler) {
	if kind == "plaxton.ping" {
		next := fn
		fn = func(ctx netapi.Ctx, from ids.ID, msg wire.Message) {
			p.from[from]++
			next(ctx, from, msg)
		}
	}
	p.Endpoint.Handle(kind, fn)
}

const (
	testHeartbeat = 2 * time.Second
	testProbe     = 500 * time.Millisecond
	// maxLinkDelay bounds one message's latency in buildRing's worlds:
	// 1 ms, plus 10 µs per km of a 5 000 km square's diagonal, plus jitter.
	maxLinkDelay = 75 * time.Millisecond
)

// countedRing is a joined ring with heartbeats on whose nodes count the
// pings they receive.
func countedRing(t *testing.T, seed int64, n int) (*ring, map[ids.ID]*pingCounter) {
	t.Helper()
	counters := make(map[ids.ID]*pingCounter)
	r := buildRingOn(t, seed, n, Options{HeartbeatInterval: testHeartbeat, ProbeTimeout: testProbe},
		func(ep netapi.Endpoint) netapi.Endpoint {
			c := &pingCounter{Endpoint: ep, from: make(map[ids.ID]int)}
			counters[ep.ID()] = c
			return c
		})
	return r, counters
}

// TestMutualLeavesPingOncePerInterval: two nodes that list each other in
// their leaf sets exchange one ping per heartbeat interval between them,
// not one each way, and at least one, so each still hears from the other.
func TestMutualLeavesPingOncePerInterval(t *testing.T) {
	const intervals = 20
	r, counters := countedRing(t, 3, 8)
	r.world.RunFor(5 * testHeartbeat)
	for _, c := range counters {
		clear(c.from)
	}
	r.world.RunFor(intervals * testHeartbeat)
	pairs := 0
	for _, a := range r.overlays {
		for _, b := range r.overlays {
			if !ids.Less(a.ID(), b.ID()) || !a.leaves.contains(b.ID()) || !b.leaves.contains(a.ID()) {
				continue
			}
			pairs++
			pings := counters[a.ID()].from[b.ID()] + counters[b.ID()].from[a.ID()]
			if pings > intervals+1 || pings < intervals-1 {
				t.Errorf("%s and %s exchanged %d pings in %d intervals, want one per interval",
					a.ID().Short(), b.ID().Short(), pings, intervals)
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no two nodes list each other")
	}
}

// TestKilledNodeForgottenWithinBound kills one node at instants spread
// over a heartbeat interval: every node whose leaf set held it must
// forget it within 2×HeartbeatInterval + ProbeTimeout of the kill (plus
// the one link delay its last ping may still have been in flight), and
// no ping record may keep it, or keep an entry older than an interval
// after a heartbeat.
func TestKilledNodeForgottenWithinBound(t *testing.T) {
	const step = 10 * time.Millisecond
	bound := 2*testHeartbeat + testProbe + maxLinkDelay
	for trial := 0; trial < 8; trial++ {
		r, _ := countedRing(t, int64(20+trial), 10)
		r.world.RunFor(3*testHeartbeat + time.Duration(trial)*testHeartbeat/8)
		victim := r.overlays[trial%len(r.overlays)]
		var watchers []*Overlay
		for _, o := range r.overlays {
			if o != victim && o.leaves.contains(victim.ID()) {
				watchers = append(watchers, o)
			}
		}
		r.world.Node(victim.ID()).Kill()
		killed := r.world.Now()
		for len(watchers) > 0 {
			r.world.RunFor(step)
			waited := r.world.Now() - killed
			left := watchers[:0]
			for _, o := range watchers {
				if o.leaves.contains(victim.ID()) || slices.Contains(o.tableEntries(), victim.ID()) {
					left = append(left, o)
					continue
				}
				if _, kept := o.pinged[victim.ID()]; kept {
					t.Errorf("trial %d: %s forgot %s but its ping record keeps it", trial, o.ID().Short(), victim.ID().Short())
				}
			}
			watchers = left
			if len(watchers) > 0 && waited > bound {
				t.Fatalf("trial %d: %d nodes still list %s %v after its kill, bound %v",
					trial, len(watchers), victim.ID().Short(), waited, bound)
			}
		}
		for _, o := range r.overlays {
			if o == victim {
				continue
			}
			o.heartbeat()
			for id, at := range o.pinged {
				if age := r.world.Now() - at; age >= testHeartbeat {
					t.Errorf("trial %d: after a heartbeat %s still records a ping from %s %v old",
						trial, o.ID().Short(), id.Short(), age)
				}
				if id == victim.ID() {
					t.Errorf("trial %d: %s records a ping from the dead %s", trial, o.ID().Short(), id.Short())
				}
			}
		}
	}
}
