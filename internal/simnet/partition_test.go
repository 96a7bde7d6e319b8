package simnet

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/wire"
)

// buildPartWorld wires nNodes on a ring: every node forwards a ping with
// a decremented TTL to its successor, and every fourth node also fans
// out to two more distant nodes, so traffic crosses execution-partition
// boundaries constantly (neighbours always live in different partitions
// when Shards > 1 — creation index mod P).
func buildPartWorld(cfg Config, nNodes int) (*World, []*Node) {
	w := NewWorld(cfg)
	nodes := make([]*Node, nNodes)
	for i := 0; i < nNodes; i++ {
		nodes[i] = w.NewNode(ids.FromString(fmt.Sprintf("pn-%02d", i)), "eu",
			netapi.Coord{X: float64(i * 50), Y: float64((i % 5) * 40)})
	}
	for i, n := range nodes {
		i, n := i, n
		n.Handle("test.ping", func(_ netapi.Ctx, from ids.ID, msg wire.Message) {
			p := msg.(*ping)
			if p.N <= 0 {
				return
			}
			n.Send(nodes[(i+1)%nNodes].ID(), &ping{N: p.N - 1})
			if i%4 == 0 {
				n.Send(nodes[(i+7)%nNodes].ID(), &ping{N: p.N / 2})
			}
		})
	}
	return w, nodes
}

func runPartWorkload(w *World, nodes []*Node) Metrics {
	for i, n := range nodes {
		n.Send(nodes[(i+3)%len(nodes)].ID(), &ping{N: 12})
	}
	w.RunFor(2 * time.Second)
	return w.Metrics()
}

// TestPartitionedDeterminism: a partitioned world with jitter and loss
// enabled must produce bit-identical Metrics across runs with the same
// seed and partition count — conservative epochs keep the parallel
// execution deterministic.
func TestPartitionedDeterminism(t *testing.T) {
	run := func() Metrics {
		w, nodes := buildPartWorld(Config{
			Shards:   3,
			Seed:     7,
			Jitter:   300 * time.Microsecond,
			LossRate: 0.05,
		}, 12)
		if w.ExecPartitions() != 3 {
			t.Fatalf("ExecPartitions = %d, want 3", w.ExecPartitions())
		}
		return runPartWorkload(w, nodes)
	}
	m1, m2 := run(), run()
	if !reflect.DeepEqual(m1, m2) {
		t.Fatalf("same seed, different metrics:\nrun1: %+v\nrun2: %+v", m1, m2)
	}
	if m1.Delivered == 0 || m1.Dropped == 0 {
		t.Fatalf("workload too tame to prove anything: %+v", m1)
	}
}

// TestPartitionedMatchesSerial: with jitter disabled and no loss the
// partition-local RNGs never fire, so a partitioned run must produce
// exactly the serial world's Metrics — counters, per-kind tallies, and
// even the delivery-batcher's FlushEvents/BatchedMsgs split, since
// cross-partition mail merged at a barrier coalesces into the same
// (destination, instant) batches the serial scheduler forms.
func TestPartitionedMatchesSerial(t *testing.T) {
	run := func(parts int) Metrics {
		w, nodes := buildPartWorld(Config{
			Shards:        parts,
			Seed:          7,
			DisableJitter: true,
		}, 12)
		return runPartWorkload(w, nodes)
	}
	serial := run(1)
	for _, parts := range []int{2, 3, 5} {
		if got := run(parts); !reflect.DeepEqual(got, serial) {
			t.Fatalf("parts=%d diverges from serial:\nserial: %+v\nparts:  %+v", parts, serial, got)
		}
	}
	if serial.Delivered == 0 {
		t.Fatal("workload delivered nothing")
	}
}

// TestPartitionedRequestReply exercises the request/reply path across a
// partition boundary: the pending-request table and its timeout timer
// live on the requester's partition, the handler on the responder's.
func TestPartitionedRequestReply(t *testing.T) {
	w := NewWorld(Config{Shards: 2, Seed: 3})
	a := w.NewNode(ids.FromString("pa"), "eu", netapi.Coord{})
	b := w.NewNode(ids.FromString("pb"), "us", netapi.Coord{X: 500})
	if a.part == b.part {
		t.Fatal("test premise broken: nodes share a partition")
	}
	b.Handle("test.ping", func(ctx netapi.Ctx, _ ids.ID, msg wire.Message) {
		ctx.Reply(&pong{N: msg.(*ping).N * 2})
	})
	got, calls := 0, 0
	a.Request(b.ID(), &ping{N: 21}, time.Second, func(reply wire.Message, err error) {
		calls++
		if err != nil {
			t.Fatalf("request error: %v", err)
		}
		got = reply.(*pong).N
	})
	w.RunFor(time.Second)
	if calls != 1 || got != 42 {
		t.Fatalf("calls=%d got=%d, want 1 call returning 42", calls, got)
	}
}

// TestPartitionedBudgetRelease pins the cross-partition outbox-budget
// discipline: releases happen on the sender's own wheel at the delivery
// instant, so a saturated queue drains and the drain callback fires even
// though every delivery lands in a foreign partition.
func TestPartitionedBudgetRelease(t *testing.T) {
	w := NewWorld(Config{
		Shards: 2, OutboxHighWater: 4, OutboxLowWater: 2,
		Seed:          5,
		DisableJitter: true,
	})
	a := w.NewNode(ids.FromString("qa"), "eu", netapi.Coord{})
	b := w.NewNode(ids.FromString("qb"), "eu", netapi.Coord{})
	b.Handle("test.ping", func(netapi.Ctx, ids.ID, wire.Message) {})
	drains := 0
	a.OnDrain(func(ids.ID) { drains++ })
	// No codec installed: each message costs one budget byte. Six sends
	// saturate the budget of four; the overflow two are dropped.
	for i := 0; i < 6; i++ {
		a.Send(b.ID(), &ping{N: i})
	}
	if !a.Saturated(b.ID()) {
		t.Fatal("queue should be saturated after overrun")
	}
	m := w.Metrics()
	if m.DroppedOverflow != 2 {
		t.Fatalf("DroppedOverflow = %d, want 2", m.DroppedOverflow)
	}
	w.RunFor(time.Second)
	if a.Saturated(b.ID()) || a.QueuedBytes(b.ID()) != 0 {
		t.Fatalf("queue not drained: saturated=%v queued=%d", a.Saturated(b.ID()), a.QueuedBytes(b.ID()))
	}
	if drains != 1 {
		t.Fatalf("drain callbacks = %d, want 1", drains)
	}
	if got := w.Metrics().Delivered; got != 4 {
		t.Fatalf("Delivered = %d, want 4", got)
	}
}
