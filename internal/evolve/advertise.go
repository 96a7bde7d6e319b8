// Package evolve implements the paper's evolution and monitoring engines
// (§4.4, §4.6): nodes advertise their resources and arrival/departure via
// publish events on the P2P event system; a monitoring engine detects
// silent failures and publishes departure events on the lost node's
// behalf; the evolution engine subscribes to these events, re-evaluates
// the placement constraint set, and repairs violations by deploying code
// bundles onto suitable nodes. Data placement monitors implement the
// latency-reduction and backup policies of §4.6 on top of the storage
// layer's push primitive.
package evolve

import (
	"sort"
	"strings"
	"time"

	"github.com/gloss/active/internal/constraint"
	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/pubsub"
)

// Event types used by the evolution machinery.
const (
	TypeAdvert  = "node.advert"
	TypeLeaving = "node.leaving"
	TypeDown    = "node.down"
	TypeCreated = "data.created"
)

// AdvertFilter matches resource advertisements.
func AdvertFilter() pubsub.Filter { return pubsub.NewFilter(pubsub.TypeIs(TypeAdvert)) }

// Advertiser periodically publishes this node's resource availability,
// and announces graceful withdrawal ("nodes may disappear from the
// network either gracefully, in which case they will publish events
// warning of their imminent withdrawal…", §4.4).
type Advertiser struct {
	client *pubsub.Client
	info   netapi.NodeInfo
	// source and node are the node's ID as every advert carries it,
	// formatted once.
	source, node string
	interval     time.Duration
	// Programs reports the installed component programs.
	Programs func() []string
	// Resources reports spare capacity.
	Resources func() (cpuFree float64, storageFreeMB int64)
	clock     interface{ Now() time.Duration }
	after     func(time.Duration, func())
	seq       uint64
	stopped   bool
	Published uint64
}

// NewAdvertiser builds an advertiser for the node behind ep.
func NewAdvertiser(ep netapi.Endpoint, client *pubsub.Client, interval time.Duration) *Advertiser {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	a := &Advertiser{
		client:   client,
		info:     ep.Info(),
		source:   "advert/" + ep.ID().Short(),
		node:     ep.ID().String(),
		interval: interval,
		Programs: func() []string { return nil },
		Resources: func() (float64, int64) {
			return 1.0, 1024
		},
		clock: ep.Clock(),
		after: func(d time.Duration, fn func()) { ep.Clock().After(d, fn) },
	}
	return a
}

// Start begins periodic advertisement (one immediately).
func (a *Advertiser) Start() {
	a.publish()
	var tick func()
	tick = func() {
		if a.stopped {
			return
		}
		a.publish()
		a.after(a.interval, tick)
	}
	a.after(a.interval, tick)
}

// Stop halts advertisement without a leave event (crash simulation).
func (a *Advertiser) Stop() { a.stopped = true }

// Leave publishes a graceful withdrawal and stops advertising.
func (a *Advertiser) Leave() {
	a.stopped = true
	a.seq++
	ev := event.New(TypeLeaving, a.source, a.clock.Now()).
		Set("node", event.S(a.node)).
		Stamp(a.seq + 1_000_000)
	a.client.Publish(ev)
}

func (a *Advertiser) publish() {
	a.seq++
	a.Published++
	cpu, stor := a.Resources()
	ev := event.New(TypeAdvert, a.source, a.clock.Now()).
		Set("node", event.S(a.node)).
		Set("region", event.S(a.info.Region)).
		Set("x", event.F(a.info.Coord.X)).
		Set("y", event.F(a.info.Coord.Y)).
		Set("cpuFree", event.F(cpu)).
		Set("storageFreeMB", event.I(stor)).
		Set("programs", event.S(strings.Join(a.Programs(), ","))).
		Stamp(a.seq)
	a.client.Publish(ev)
}

// NodeStateFromAdvert parses an advertisement into a constraint view.
func NodeStateFromAdvert(ev *event.Event) (constraint.NodeState, bool) {
	id, err := ids.Parse(ev.GetString("node"))
	if err != nil {
		return constraint.NodeState{}, false
	}
	ns := constraint.NodeState{
		ID:            id,
		Region:        ev.GetString("region"),
		Coord:         netapi.Coord{X: ev.GetNum("x"), Y: ev.GetNum("y")},
		Alive:         true,
		CPUFree:       ev.GetNum("cpuFree"),
		StorageFreeMB: int64(ev.GetNum("storageFreeMB")),
	}
	if progs := ev.GetString("programs"); progs != "" {
		ns.Components = strings.Split(progs, ",")
		sort.Strings(ns.Components)
	}
	return ns, true
}

// Monitor is the monitoring engine of §4.4: it tracks advertisement
// heartbeats and publishes node.down events on behalf of nodes that
// vanish without warning.
type Monitor struct {
	client     *pubsub.Client
	clock      interface{ Now() time.Duration }
	after      func(time.Duration, func())
	selfID     ids.ID
	self       string // selfID.String(), formatted once
	interval   time.Duration
	missFactor int
	lastSeen   map[string]time.Duration
	order      []string
	seq        uint64
	stopped    bool
	// Reported counts on-behalf departure events published.
	Reported uint64
}

// NewMonitor builds a monitoring engine on ep's node.
func NewMonitor(ep netapi.Endpoint, client *pubsub.Client, interval time.Duration, missFactor int) *Monitor {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	if missFactor <= 0 {
		missFactor = 3
	}
	return &Monitor{
		client:     client,
		clock:      ep.Clock(),
		after:      func(d time.Duration, fn func()) { ep.Clock().After(d, fn) },
		selfID:     ep.ID(),
		self:       ep.ID().String(),
		interval:   interval,
		missFactor: missFactor,
		lastSeen:   make(map[string]time.Duration),
	}
}

// Start subscribes to advertisements and begins the liveness sweep.
func (m *Monitor) Start() {
	m.client.Subscribe(AdvertFilter(), func(ev *event.Event) {
		node := ev.GetString("node")
		if node == "" || node == m.self {
			return
		}
		if _, known := m.lastSeen[node]; !known {
			m.order = append(m.order, node)
			sort.Strings(m.order)
		}
		m.lastSeen[node] = m.clock.Now()
	})
	m.client.Subscribe(pubsub.NewFilter(pubsub.TypeIs(TypeLeaving)), func(ev *event.Event) {
		m.drop(ev.GetString("node"))
	})
	var tick func()
	tick = func() {
		if m.stopped {
			return
		}
		m.sweep()
		m.after(m.interval, tick)
	}
	m.after(m.interval, tick)
}

// Stop halts the sweep.
func (m *Monitor) Stop() { m.stopped = true }

// Tracked returns the number of nodes currently monitored.
func (m *Monitor) Tracked() int { return len(m.lastSeen) }

func (m *Monitor) drop(node string) {
	if _, ok := m.lastSeen[node]; !ok {
		return
	}
	delete(m.lastSeen, node)
	for i, n := range m.order {
		if n == node {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
}

func (m *Monitor) sweep() {
	deadline := m.clock.Now() - time.Duration(m.missFactor)*m.interval
	var lost []string
	for _, node := range m.order {
		if m.lastSeen[node] < deadline {
			lost = append(lost, node)
		}
	}
	for _, node := range lost {
		m.drop(node)
		m.seq++
		m.Reported++
		ev := event.New(TypeDown, "monitor/"+m.selfID.Short(), m.clock.Now()).
			Set("node", event.S(node)).
			Set("reporter", event.S(m.self)).
			Stamp(m.seq)
		m.client.Publish(ev)
	}
}
