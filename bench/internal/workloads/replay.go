package workloads

import (
	"time"

	"github.com/gloss/active/bench/internal/rig"
	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/pubsub"
	"github.com/gloss/active/internal/transport"
	"github.com/gloss/active/internal/wire"
)

// The replay pass drives a workload's own recorded inputs straight
// through one layer's public functions in a tight single-threaded loop,
// after the run: busy time without queueing.

// replayCap bounds how many recorded inputs a replay loop uses.
const replayCap = 5000

func capEvents(events []*event.Event) []*event.Event {
	if len(events) > replayCap {
		return events[len(events)-replayCap:]
	}
	return events
}

// replayCodecs measures both wire codecs on the run's events, framed as
// the PubMsg envelopes the brokers exchange.
func replayCodecs(res *Result, reg *wire.Registry, events []*event.Event, from, to ids.ID) {
	events = capEvents(events)
	if len(events) == 0 {
		return
	}
	envs := make([]*wire.Envelope, len(events))
	for i, ev := range events {
		envs[i] = &wire.Envelope{From: from, To: to, Msg: &pubsub.PubMsg{Event: ev}}
	}
	n := float64(len(envs))
	bin := wire.NewBinaryCodec(reg)
	for _, c := range []struct {
		prefix string
		codec  wire.Codec
		decode func([]byte) (*wire.Envelope, error)
	}{
		{"wire.bin.", bin, bin.DecodeBorrow},
		{"wire.xml.", reg, reg.Decode},
	} {
		frames := make([][]byte, len(envs))
		t0 := time.Now()
		for i, env := range envs {
			f, err := c.codec.Encode(env)
			if err != nil {
				res.fail(1, "replay: %sencode: %v", c.prefix, err)
				return
			}
			frames[i] = f
		}
		res.set(c.prefix+"encode_ns", float64(time.Since(t0))/n, "ns", len(envs))
		bytes := 0
		for _, f := range frames {
			bytes += len(f)
		}
		res.set(c.prefix+"bytes_per_frame", float64(bytes)/n, "B", len(envs))
		m0, t0 := rig.ReadUsage().Mallocs, time.Now()
		for _, f := range frames {
			if _, err := c.decode(f); err != nil {
				res.fail(1, "replay: %sdecode: %v", c.prefix, err)
				return
			}
		}
		took, m1 := time.Since(t0), rig.ReadUsage().Mallocs
		res.set(c.prefix+"decode_ns", float64(took)/n, "ns", len(envs))
		if c.prefix == "wire.bin." {
			res.set("wire.bin.allocs_per_decode", float64(m1-m0)/n, "count", len(envs))
		}
	}
	// Encode once, send many: eight destinations sharing one body
	// against eight independent encodes.
	const dests = 8
	t0 := time.Now()
	for _, env := range envs {
		for d := 0; d < dests; d++ {
			if _, err := bin.Encode(env); err != nil {
				res.fail(1, "replay: encode: %v", err)
				return
			}
		}
	}
	plain := time.Since(t0)
	t0 = time.Now()
	for _, env := range envs {
		shared := &wire.SharedBody{}
		for d := 0; d < dests; d++ {
			if _, err := bin.EncodeShared(env, shared); err != nil {
				res.fail(1, "replay: shared encode: %v", err)
				return
			}
		}
	}
	res.set("wire.shared_encode_ratio", float64(time.Since(t0))/float64(plain), "ratio", len(envs))

	fresh := make([]*event.Event, len(events))
	for i, ev := range events {
		fresh[i] = ev.CloneDetached()
	}
	t0 = time.Now()
	for _, ev := range fresh {
		ev.Freeze()
	}
	res.set("event.freeze_ns", float64(time.Since(t0))/n, "ns", len(fresh))
}

// replayIndex measures the predicate index on the workload's own
// subscription table and events: build it, match against it, empty it.
func replayIndex(res *Result, filters []pubsub.Filter, events []*event.Event) {
	events = capEvents(events)
	if len(filters) == 0 || len(events) == 0 {
		return
	}
	keys := make([]string, len(filters))
	for i, f := range filters {
		keys[i] = f.Key()
	}
	ix := pubsub.NewShardedIndex(0)
	t0 := time.Now()
	for i, f := range filters {
		ix.Add(keys[i], f)
	}
	res.set("pubsub.index_add_ns", float64(time.Since(t0))/float64(len(filters)), "ns", len(filters))
	hits := 0
	t0 = time.Now()
	for _, ev := range events {
		ix.Match(ev, func(string) { hits++ })
	}
	res.set("pubsub.match_ns", float64(time.Since(t0))/float64(len(events)), "ns", len(events))
	t0 = time.Now()
	for _, k := range keys {
		ix.Remove(k)
	}
	res.set("pubsub.index_remove_ns", float64(time.Since(t0))/float64(len(filters)), "ns", len(filters))
}

// tcpCounters sums the public counters of every node in a cluster.
type tcpCounters struct {
	broker    pubsub.Stats
	transport transport.Stats
}

func snapshotCounters(nodes []*rig.Node) tcpCounters {
	var c tcpCounters
	for _, n := range nodes {
		ts := n.EP.Stats()
		c.transport.Sent += ts.Sent
		c.transport.Dropped += ts.Dropped
		c.transport.Dials += ts.Dials
		c.transport.FlushWrites += ts.FlushWrites
		if n.Active == nil {
			continue
		}
		var bs pubsub.Stats
		if n.Call(func() { bs = n.Active.Broker.Stats() }) != nil {
			continue
		}
		c.broker.PubsReceived += bs.PubsReceived
		c.broker.Matches += bs.Matches
		c.broker.ClientDelivers += bs.ClientDelivers
		c.broker.NeighborFwds += bs.NeighborFwds
		c.broker.EventClones += bs.EventClones
		c.broker.ShedDeliveries += bs.ShedDeliveries
		c.broker.ForwardedSubs += bs.ForwardedSubs
		if bs.TableEntries > c.broker.TableEntries {
			c.broker.TableEntries = bs.TableEntries
		}
	}
	return c
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// counterMetrics reports the brokers' and endpoints' cumulative public
// counters: broker work as ratios per publish handled.
func counterMetrics(res *Result, nodes []*rig.Node) {
	c := snapshotCounters(nodes)
	b, t := c.broker, c.transport
	pubs := int(b.PubsReceived)
	res.set("pubsub.matches_per_pub", ratio(b.Matches, b.PubsReceived), "ratio", pubs)
	res.set("pubsub.fwds_per_pub", ratio(b.NeighborFwds, b.PubsReceived), "ratio", pubs)
	res.set("pubsub.delivers_per_pub", ratio(b.ClientDelivers, b.PubsReceived), "ratio", pubs)
	res.set("pubsub.shed_ratio", ratio(b.ShedDeliveries, b.ClientDelivers+b.ShedDeliveries), "ratio", pubs)
	res.set("pubsub.table_entries", float64(b.TableEntries), "count", 1)
	res.set("pubsub.forwarded_subs", float64(b.ForwardedSubs), "count", 1)
	res.set("event.clones_per_delivery", ratio(b.EventClones, b.ClientDelivers), "ratio", int(b.ClientDelivers))
	res.set("transport.frames_per_flush", ratio(t.Sent, t.FlushWrites), "ratio", int(t.FlushWrites))
	res.set("transport.dropped_ratio", ratio(t.Dropped, t.Sent+t.Dropped), "ratio", int(t.Sent))
	res.set("transport.dials", float64(t.Dials), "count", 1)
}
