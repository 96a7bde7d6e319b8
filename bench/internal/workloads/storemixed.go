package workloads

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"math/rand"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"github.com/gloss/active/bench/internal/calib"
	"github.com/gloss/active/bench/internal/rig"
	"github.com/gloss/active/bench/internal/spy"
	"github.com/gloss/active/bench/internal/trace"
	"github.com/gloss/active/internal/core"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/plaxton"
	"github.com/gloss/active/internal/store"
	"github.com/gloss/active/internal/wire"
)

const whyStoreMixed = "6-node plaxton overlay, Replicas=3, one closed-loop client: 7x4 KiB + 1x512 KiB objects through put, 3 holders, cold get, warm get; plaxton, store and wire bulk frames work, pubsub and match idle"

// Frozen sizes of store-mixed.
const (
	stoNodes     = 6
	stoReplicas  = 3
	stoSmall     = 4 << 10
	stoBulk      = 512 << 10
	stoCycle     = 8 // objects per cycle: seven small, then one bulk
	stoOpTimeout = 8 * time.Second
	stoPollEvery = 100 * time.Microsecond
)

// guidJourney folds a GUID string into a span journey id, so a routed
// frame's send on one node pairs with its handler on the next.
func guidJourney(guid string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(guid)) // hash.Hash.Write never fails
	return int64(h.Sum64() &^ (1 << 63))
}

// storeSampler keeps every span while on is set (the store plane moves
// a few thousand frames a second, not tens of thousands).
func storeSampler(on *atomic.Bool) spy.Sampler {
	return func(msg wire.Message) (int64, bool) {
		if !on.Load() {
			return trace.NoJourney, false
		}
		switch m := msg.(type) {
		case *plaxton.RouteMsg:
			return guidJourney(m.Key), true
		case *store.ReplicateMsg:
			return guidJourney(m.GUID), true
		case *store.ManifestMsg:
			return guidJourney(m.GUID), true
		case *store.GetReplyMsg:
			return guidJourney(m.GUID), true
		case *store.CacheFillMsg:
			return guidJourney(m.GUID), true
		case *store.PullMsg:
			return guidJourney(m.GUID), true
		}
		return trace.NoJourney, true
	}
}

// stoTimes are one object's measured intervals, ns; zero when not reached.
type stoTimes struct {
	bulk                       bool
	at                         int64 // unix ns of the Put call
	put, durable, get, journey float64
}

type storeMixed struct {
	p     Params
	res   *Result
	rec   *trace.Recorder
	on    atomic.Bool
	cl    *rig.Cluster
	rng   *rand.Rand
	ops   int // objects attempted
	times []stoTimes
	meter *sliceMeter // set while a throughput phase is being measured
	host  *calib.Probe
}

func runStoreMixed(ctx context.Context, p Params) (*Result, error) {
	w := &storeMixed{p: p, res: newResult("store-mixed", p), rng: rand.New(rand.NewSource(p.Seed)), host: newHostProbe(p)}
	defer w.host.Close()
	w.res.Rates["nodes"] = stoNodes
	w.res.Rates["replicas"] = stoReplicas
	if p.Trace {
		w.rec = trace.NewRecorder(1 << 20)
	}
	if err := bootMedian(p, w.res, w.boot); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	dog := rig.StartWatchdog(w.cl.Nodes, cancel)
	defer func() { w.cl.Close(); dog.Stop() }()

	w.loop(ctx, p.warmup()/3) // discarded: dials and hellos
	w.times = nil
	first, second := p.phases()
	if !p.Trace {
		before, t0 := rig.ReadUsage(), time.Now()
		w.meter = newSliceMeter(t0, w.host)
		n := w.loop(ctx, first+second)
		wall, used := time.Since(t0), rig.ReadUsage().Sub(before)
		j := w.journeys().summarize(w.host)
		w.res.set("journey_p50_ms", j.P50, "ms", j.N)
		w.res.set("journey_p90_ms", j.P90, "ms", j.N)
		setPerEvent(w.res, n, wall, used, w.meter)
		p.logf("store-mixed: %d objects in %.2f s, 4 KiB put→cold-get journey %s; %s", n, wall.Seconds(), j, w.meter)
	} else {
		w.loop(ctx, first)
		base := w.journeys().summarize(w.host)
		w.res.set("journey_p90_ms", base.P90, "ms", base.N)
		w.endToEndSplit()
		w.times = nil
		before := rig.ReadUsage()
		w.on.Store(true)
		w.loop(ctx, second)
		w.on.Store(false)
		gc := rig.ReadUsage().Sub(before).GCPause
		traced := w.journeys().summarize(w.host)
		w.counterMetrics()
		// The spans are read only once nothing can still be writing one.
		w.cl.Close()
		w.spanMetrics(base, traced, gc)
	}
	w.res.Attempted = w.ops
	if name := dog.Stalled(); name != "" {
		w.res.fail(1, "watchdog: actor loop of %s stalled", name)
	}
	return w.res, nil
}

// errShortLeafSets reports the overlay's join race (README, hazard 7).
var errShortLeafSets = errors.New("workloads: a join finished before the joiner had heard of every node")

// boot joins six active nodes into one overlay in which every node's
// leaf set holds the other five. A join's state messages travel on
// separate connections; when the root's arrives first the joiner
// announces itself before it has heard of every node, and with liveness
// probing off (the node default, kept here: a probe times out behind
// the store's digest repair, which blocks an actor loop for longer than
// the 500 ms probe timeout once ≈100 MiB are stored, and the prober then
// declares a live node dead) the rest never learn of it. About one boot
// in fifty; such a boot is discarded and repeated.
func (w *storeMixed) boot() (func(), error) {
	for attempt := 0; ; attempt++ {
		cleanup, err := w.bootOnce()
		if !errors.Is(err, errShortLeafSets) || attempt == 4 {
			return cleanup, err
		}
		w.p.logf("store-mixed: %v; booting again", err)
	}
}

func (w *storeMixed) bootOnce() (func(), error) {
	var sample spy.Sampler
	if w.rec != nil {
		sample = storeSampler(&w.on)
	}
	cl := rig.NewCluster(wire.CodecBinary, w.rec, sample)
	w.cl = cl
	fail := func(err error) (func(), error) { cl.Close(); return nil, err }
	for i := 0; i < stoNodes; i++ {
		if _, err := cl.AddActive(fmt.Sprintf("sto-%d", i), core.NodeConfig{Store: store.Options{Replicas: stoReplicas}}); err != nil {
			return fail(err)
		}
	}
	cl.Mesh()
	first := cl.Nodes[0]
	if err := first.Call(first.Active.Overlay.CreateNetwork); err != nil {
		return fail(err)
	}
	for _, n := range cl.Nodes[1:] {
		joined := make(chan error, 1)
		n.EP.Do(func() { n.Active.Overlay.Join(first.EP.ID(), func(err error) { joined <- err }) })
		select {
		case err := <-joined:
			if err != nil {
				return fail(fmt.Errorf("workloads: %s join: %w", n.Name, err))
			}
		case <-time.After(15 * time.Second):
			return fail(fmt.Errorf("workloads: %s join stuck", n.Name))
		}
	}
	settled := rig.WaitFor(500*time.Millisecond, func() bool {
		for _, n := range cl.Nodes {
			leaves := 0
			if n.Call(func() { leaves = len(n.Active.Overlay.Leaves()) }) != nil || leaves < stoNodes-1 {
				return false
			}
		}
		return true
	})
	if !settled {
		return fail(errShortLeafSets)
	}
	return cl.Close, nil
}

// loop cycles objects through the store for dur, one at a time.
func (w *storeMixed) loop(ctx context.Context, dur time.Duration) int {
	end := time.Now().Add(dur)
	n := 0
	for time.Now().Before(end) && ctx.Err() == nil {
		size := stoSmall
		if w.ops%stoCycle == stoCycle-1 {
			size = w.p.scale(stoBulk, 128<<10)
		}
		content := make([]byte, size)
		_, _ = w.rng.Read(content) // rand.Rand.Read never fails
		t, err := w.object(ctx, w.ops, content)
		w.ops++
		n++
		if w.meter != nil {
			w.meter.tick(time.Now(), n)
		}
		if err != nil {
			w.res.fail(1, "object %d (%d B): %v", w.ops-1, size, err)
			continue
		}
		t.bulk = size != stoSmall
		w.times = append(w.times, t)
	}
	return n
}

type putAck struct {
	guid ids.ID
	err  error
	at   time.Time
}

type getAck struct {
	data []byte
	err  error
	at   time.Time
}

// object takes one object through its whole journey: Put from a
// rotating node, wait until Replicas nodes hold it, cold Get from a
// node that neither holds nor caches it, Get again from the same node.
func (w *storeMixed) object(ctx context.Context, i int, content []byte) (stoTimes, error) {
	var t stoTimes
	nodes := w.cl.Nodes
	putter := nodes[i%len(nodes)]
	acks := make(chan putAck, 1)
	t0 := time.Now()
	t.at = t0.UnixNano()
	putter.EP.Do(func() {
		putter.Active.Store.Put(content, func(g ids.ID, err error) { acks <- putAck{g, err, time.Now()} })
	})
	var guid ids.ID
	select {
	case a := <-acks:
		if a.err != nil {
			return t, fmt.Errorf("put: %w", a.err)
		}
		guid, t.put = a.guid, float64(a.at.Sub(t0))
		w.host.Tick(a.at)
	case <-time.After(stoOpTimeout):
		return t, errors.New("put: no callback")
	case <-ctx.Done():
		return t, ctx.Err()
	}
	// GUID = content hash, checked against our own SHA-256, not the store's.
	if sum := sha256.Sum256(content); !bytes.Equal(guid[:], sum[:len(guid)]) {
		return t, fmt.Errorf("put: GUID %s is not the content hash", guid.Short())
	}

	var has []bool
	for {
		holders := 0
		var err error
		if has, holders, err = w.probe(guid); err != nil {
			return t, err
		}
		if holders >= stoReplicas {
			now := time.Now()
			t.durable = float64(now.Sub(t0))
			w.host.Tick(now)
			break
		}
		if time.Since(t0) > stoOpTimeout {
			return t, fmt.Errorf("only %d of %d holders after %v", holders, stoReplicas, stoOpTimeout)
		}
		time.Sleep(stoPollEvery)
	}

	var cold *rig.Node
	for k := 1; k <= len(nodes); k++ {
		if j := (i + k) % len(nodes); !has[j] {
			cold = nodes[j]
			break
		}
	}
	if cold == nil {
		return t, errors.New("no node left without a copy")
	}
	for pass := 0; pass < 2; pass++ {
		got := make(chan getAck, 1)
		g0 := time.Now()
		cold.EP.Do(func() {
			cold.Active.Store.Get(guid, func(d []byte, err error) { got <- getAck{d, err, time.Now()} })
		})
		select {
		case a := <-got:
			if a.err != nil {
				return t, fmt.Errorf("get %d: %w", pass, a.err)
			}
			if !bytes.Equal(a.data, content) {
				return t, fmt.Errorf("get %d: %d bytes came back different", pass, len(a.data))
			}
			if pass == 0 {
				t.get, t.journey = float64(a.at.Sub(g0)), float64(a.at.Sub(t0))
			}
			w.host.Tick(a.at)
		case <-time.After(stoOpTimeout):
			return t, fmt.Errorf("get %d: no callback", pass)
		case <-ctx.Done():
			return t, ctx.Err()
		}
	}
	return t, nil
}

// probe asks every node, on its own actor loop, whether it holds or
// caches guid. has[j] is true when node j has any copy.
func (w *storeMixed) probe(guid ids.ID) (has []bool, holders int, err error) {
	nodes := w.cl.Nodes
	type answer struct {
		j            int
		holds, cache bool
	}
	answers := make(chan answer, len(nodes))
	for j, n := range nodes {
		n.EP.Do(func() { answers <- answer{j, n.Active.Store.Holds(guid), n.Active.Store.Cached(guid)} })
	}
	has = make([]bool, len(nodes))
	timeout := time.After(rig.StallAfter + 3*time.Second)
	for range nodes {
		select {
		case a := <-answers:
			has[a.j] = a.holds || a.cache
			if a.holds {
				holders++
			}
		case <-timeout:
			return nil, 0, rig.ErrStalled
		}
	}
	return has, holders, nil
}

// journeys returns the 4 KiB objects' Put → cold Get journeys.
func (w *storeMixed) journeys() journeys {
	return w.smallTimes(func(t stoTimes) float64 { return t.journey })
}

// smallTimes returns one interval of every 4 KiB object that reached it,
// as a journey sample, so that it is reported the way journeys are.
func (w *storeMixed) smallTimes(pick func(stoTimes) float64) journeys {
	var out journeys
	for _, t := range w.times {
		if v := pick(t); !t.bulk && v > 0 {
			out = append(out, timed{t.at, v})
		}
	}
	return out
}

// endToEndSplit reports the store's own end-to-end numbers from the
// untraced part of a traced run: they apply to this workload alone.
func (w *storeMixed) endToEndSplit() {
	put := w.smallTimes(func(t stoTimes) float64 { return t.put }).summarize(w.host)
	durable := w.smallTimes(func(t stoTimes) float64 { return t.durable }).summarize(w.host)
	get := w.smallTimes(func(t stoTimes) float64 { return t.get }).summarize(w.host)
	w.res.set("put_p50_ms", put.P50, "ms", put.N)
	w.res.set("put_durable_p50_ms", durable.P50, "ms", durable.N)
	w.res.set("get_p50_ms", get.P50, "ms", get.N)
	var bulkBytes, bulkNs float64
	bulks := 0
	for _, t := range w.times {
		if t.bulk && t.get > 0 {
			bulks++
			bulkBytes += 2 * float64(w.p.scale(stoBulk, 128<<10))
			bulkNs += t.put + t.get
		}
	}
	if bulkNs > 0 {
		w.res.set("bulk_mibps", bulkBytes/(1<<20)/(bulkNs/1e9), "MiB/s", bulks)
	}
	w.p.logf("store-mixed untraced: 4 KiB put %s; durable %s; cold get %s; %d bulk objects", put, durable, get, bulks)
}

// spanMetrics derives the store plane's per-layer timings from the
// recorded spans. The cluster must be closed.
func (w *storeMixed) spanMetrics(base, traced journeySummary, gc time.Duration) {
	res := w.res
	inv := perInvocation(w.rec)
	setLayerTimings(res, w.rec, inv)
	v, n := inv.p50us(routeForwardSpan)
	res.set("plaxton.route_handler_us", v, "us", n)
	v, n = inv.p50us(routedPutSpan)
	res.set("store.put_root_us", v, "us", n)
	v, n = inv.p50us(handlerPrefix + kindReplicate)
	res.set("store.replica_push_us", v, "us", n)
	v, n = inv.p50us(handlerPrefix + kindChunk)
	res.set("store.chunk_handler_us", v, "us", n)
	res.set("core.journey_p99_ms", traced.P99, "ms", traced.N)
	res.set("core.gc_pause_ms", msOf(gc), "ms", 1)
	res.set("core.host_cpu_slowdown", traced.CPU, "ratio", traced.Slices)
	res.set("core.host_wake_slowdown", traced.Wake, "ratio", traced.Slices)
	if base.P50 > 0 {
		res.set("core.trace_overhead_ratio", traced.P50/base.P50, "ratio", traced.N)
	}
	w.p.logf("store-mixed traced: journey %s (untraced %s)", traced, base)
	for _, name := range slices.Sorted(maps.Keys(inv)) {
		v, n := inv.p50us(name)
		w.p.logf("  %-40s self p50 %9.1f µs, max %9.1f µs (n=%d)", name, v, inv.maxUs(name), n)
	}
	if w.p.OutDir != "" {
		if err := w.rec.WriteJSON(filepath.Join(w.p.OutDir, "trace-store-mixed.json")); err != nil {
			res.fail(1, "%v", err)
		}
	}
}

// counterMetrics reads the overlay's, stores' and endpoints' public
// counters while the cluster is still up.
func (w *storeMixed) counterMetrics() {
	res := w.res
	var ov plaxton.Stats
	var st store.Stats
	for _, nd := range w.cl.Nodes {
		var o plaxton.Stats
		var s store.Stats
		if nd.Call(func() { o, s = nd.Active.Overlay.Stats(), nd.Active.Store.Stats() }) != nil {
			continue
		}
		ov.Forwarded += o.Forwarded
		ov.Delivered += o.Delivered
		st.Gets += s.Gets
		st.LocalHits += s.LocalHits
		st.CacheHits += s.CacheHits
		st.RootAnswers += s.RootAnswers
		st.Timeouts += s.Timeouts
		st.Retries += s.Retries
		st.ChunkFramesSent += s.ChunkFramesSent
		st.StoredBytes += s.StoredBytes
	}
	res.set("plaxton.hops_per_route", ratio(ov.Forwarded, ov.Delivered), "ratio", int(ov.Delivered))
	res.set("store.local_hit_ratio", ratio(st.LocalHits, st.Gets), "ratio", int(st.Gets))
	res.set("store.cache_hit_ratio", ratio(st.CacheHits, st.Gets), "ratio", int(st.Gets))
	res.set("store.root_answer_ratio", ratio(st.RootAnswers, st.Gets), "ratio", int(st.Gets))
	res.set("store.timeouts", float64(st.Timeouts), "count", 1)
	res.set("store.retries", float64(st.Retries), "count", 1)
	if st.StoredBytes > 0 {
		res.set("store.chunk_frames_per_mib", float64(st.ChunkFramesSent)/(float64(st.StoredBytes)/(1<<20)), "count", int(st.ChunkFramesSent))
	}
	counterMetrics(res, w.cl.Nodes)
}
