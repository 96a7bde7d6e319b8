// Package rig boots the program under test for the TCP workloads: real
// core.ActiveNode stacks (or bare endpoints with a pubsub.Client) over
// transport.Listen on loopback, all inside the benchmark's process. It
// also holds the watchdog that turns a wedged actor loop into a failed
// run instead of a hang, and the process resource meter.
package rig

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/gloss/active/bench/internal/spy"
	"github.com/gloss/active/bench/internal/trace"
	"github.com/gloss/active/internal/core"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/pubsub"
	"github.com/gloss/active/internal/transport"
	"github.com/gloss/active/internal/wire"
)

// StallAfter is how long an actor loop may fail to run a posted
// function before the run is declared stalled.
const StallAfter = 2 * time.Second

// ErrStalled reports that a node's actor loop stopped making progress.
var ErrStalled = errors.New("rig: actor loop stalled")

// Node is one booted participant.
type Node struct {
	Index  int
	Name   string
	EP     *transport.Node  // the real endpoint (Do, Stats, Close)
	Net    netapi.Endpoint  // what the stack was built on: EP, or its spy tap
	Active *core.ActiveNode // nil for bare endpoints
	Client *pubsub.Client   // the node's pub/sub client (Active.Client for active nodes)
}

// Cluster is a set of nodes sharing one message registry and codec.
type Cluster struct {
	Reg   *wire.Registry
	Codec string
	Nodes []*Node

	rec    *trace.Recorder
	sample spy.Sampler
	index  map[ids.ID]int
}

// NewCluster prepares an empty cluster speaking codec (wire.CodecXML or
// wire.CodecBinary). With a non-nil recorder every node's endpoint is
// decorated by a spy tap using sample; with nil the program runs on the
// bare endpoint and no benchmark code sits on its message path.
func NewCluster(codec string, rec *trace.Recorder, sample spy.Sampler) *Cluster {
	reg := wire.NewRegistry()
	core.RegisterMessages(reg)
	transport.RegisterMessages(reg)
	return &Cluster{Reg: reg, Codec: codec, rec: rec, sample: sample, index: make(map[ids.ID]int)}
}

func (c *Cluster) listen(name string) (*Node, error) {
	i := len(c.Nodes)
	ep, err := transport.Listen(ids.FromString(name), c.Reg, transport.Options{
		Region: "eu", Seed: int64(i + 1), Codec: c.Codec,
	})
	if err != nil {
		return nil, fmt.Errorf("rig: %w", err)
	}
	n := &Node{Index: i, Name: name, EP: ep, Net: ep}
	if c.rec != nil {
		n.Net = spy.TCPTap{Tap: spy.New(ep, c.rec, i, c.index, c.sample)}
	}
	c.index[ep.ID()] = i
	c.Nodes = append(c.Nodes, n)
	return n, nil
}

// AddActive boots a full active node. Advertising is off so the only
// traffic on the wire is the workload's.
func (c *Cluster) AddActive(name string, cfg core.NodeConfig) (*Node, error) {
	n, err := c.listen(name)
	if err != nil {
		return nil, err
	}
	cfg.Secret = []byte("activebench-secret")
	cfg.AdvertInterval = -1
	cfg.Codec = c.Codec
	n.Active = core.NewActiveNode(n.Net, c.Reg, cfg)
	n.Client = n.Active.Client
	return n, nil
}

// AddBare boots an endpoint carrying only a pubsub.Client attached to
// the given broker: a sensor or a device, not a broker.
func (c *Cluster) AddBare(name string, broker ids.ID) (*Node, error) {
	n, err := c.listen(name)
	if err != nil {
		return nil, err
	}
	n.Client = pubsub.NewClient(n.Net, broker)
	return n, nil
}

// Mesh gives every node every other node's address.
func (c *Cluster) Mesh() {
	for _, a := range c.Nodes {
		for _, b := range c.Nodes {
			if a != b {
				a.EP.AddPeer(b.EP.ID(), b.EP.Addr())
			}
		}
	}
}

// Close stops every node and waits for its goroutines.
func (c *Cluster) Close() {
	for _, n := range c.Nodes {
		_ = n.EP.Close() // Close only waits; it has no error to report
		if n.Active != nil {
			n.Active.Broker.Close()
		}
	}
}

// Call runs fn on the node's actor loop and waits for it to finish. It
// fails with ErrStalled when the loop does not get to it in time.
func (n *Node) Call(fn func()) error {
	done := make(chan struct{})
	go n.EP.Do(func() { fn(); close(done) })
	select {
	case <-done:
		return nil
	case <-time.After(StallAfter + 3*time.Second):
		return fmt.Errorf("%w: node %s did not run a posted call", ErrStalled, n.Name)
	}
}

// WaitFor polls cond (on the caller's goroutine) until it holds or the
// deadline passes.
func WaitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// Watchdog pings every node's actor loop once a second. When a ping is
// not answered within StallAfter it cancels the run's context, so the
// generator stops and the run is reported failed instead of hanging.
type Watchdog struct {
	cancel  context.CancelFunc
	stop    chan struct{}
	wg      sync.WaitGroup
	stalled atomic.Pointer[string]
}

// StartWatchdog begins pinging. cancel is called once, on the first stall.
func StartWatchdog(nodes []*Node, cancel context.CancelFunc) *Watchdog {
	w := &Watchdog{cancel: cancel, stop: make(chan struct{})}
	for _, n := range nodes {
		var sent, answered atomic.Int64
		w.wg.Add(2)
		// Pinger: posting can itself block on a full inbox, so the
		// checker below watches the clock, not this goroutine.
		go func() {
			defer w.wg.Done()
			for {
				sent.Store(time.Now().UnixNano())
				n.EP.Do(func() { answered.Store(time.Now().UnixNano()) })
				select {
				case <-w.stop:
					return
				case <-time.After(time.Second):
				}
			}
		}()
		go func() {
			defer w.wg.Done()
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-w.stop:
					return
				case <-tick.C:
				}
				s, a := sent.Load(), answered.Load()
				if a < s && time.Now().UnixNano()-s > int64(StallAfter) {
					name := n.Name
					if w.stalled.CompareAndSwap(nil, &name) {
						w.cancel()
					}
					return
				}
			}
		}()
	}
	return w
}

// Stalled names the first node whose actor loop stalled, or "".
func (w *Watchdog) Stalled() string {
	if p := w.stalled.Load(); p != nil {
		return *p
	}
	return ""
}

// Stop ends the pinging. Call it after the nodes are closed, which is
// what releases a pinger blocked on a full inbox.
func (w *Watchdog) Stop() {
	close(w.stop)
	w.wg.Wait()
}

// Usage is a snapshot of the process's cumulative resource counters.
type Usage struct {
	CPU     time.Duration // user + system
	Mallocs uint64
	Bytes   uint64
	GCPause time.Duration
}

// CPUTime is the process's user + system CPU time so far.
func CPUTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ReadUsage samples getrusage and the runtime's allocation counters.
// It stops the world briefly, so call it only at phase boundaries.
func ReadUsage() Usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return Usage{
		CPU:     CPUTime(),
		Mallocs: ms.Mallocs,
		Bytes:   ms.TotalAlloc,
		GCPause: time.Duration(ms.PauseTotalNs),
	}
}

// Add sums two intervals' counters.
func (u Usage) Add(o Usage) Usage {
	return Usage{CPU: u.CPU + o.CPU, Mallocs: u.Mallocs + o.Mallocs, Bytes: u.Bytes + o.Bytes, GCPause: u.GCPause + o.GCPause}
}

// Sub returns the counters accumulated since earlier.
func (u Usage) Sub(earlier Usage) Usage {
	return Usage{
		CPU:     u.CPU - earlier.CPU,
		Mallocs: u.Mallocs - earlier.Mallocs,
		Bytes:   u.Bytes - earlier.Bytes,
		GCPause: u.GCPause - earlier.GCPause,
	}
}
