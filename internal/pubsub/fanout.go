package pubsub

import (
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
)

// DefaultFanoutWorkers is the pool size selected by FanoutWorkers = 0:
// one worker per core, capped — past the cap the send path is bounded by
// the endpoint, not by group assembly and encode.
func DefaultFanoutWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}

// fanoutJob is the post-match half of one publish toward one worker's
// destinations: the frozen event plus the slices of neighbour forwards
// and client deliveries whose IDs hash to that worker. Everything
// mutable — subscription tables, shed episodes, stats — stayed behind on
// the actor loop; the job carries only immutable snapshots.
type fanoutJob struct {
	ev       *event.Event
	fwds     []ids.ID
	delivers []ids.ID
	// barrier marks a job that carries no sends: quiesce's marker, done
	// once everything queued ahead of it on this worker has been sent.
	barrier *sync.WaitGroup
}

// fanoutPool pipelines the publish path after the match: message
// assembly, shared-body encode and endpoint sends run on destination-
// sticky workers instead of the broker's actor loop, which keeps the
// match: dissemination is the half of a publish that parallelises.
//
// Ordering: per-destination FIFO is retained by construction. The actor
// loop is the only producer; destination d is always assigned to worker
// hash(d) % N (stickiness); each worker consumes its FIFO channel
// serially. So the per-destination send order equals the actor's
// submission order, which equals the serial reference path's order.
// A fan-out of one the actor loop sends itself (Broker.handlePub) joins
// that order only while the destination's worker has nothing in flight
// (idle): whatever was submitted earlier has then reached the endpoint.
// What is NOT ordered: data-plane sends from workers may interleave with
// control-plane sends (sub/unsub forwards, advertisements) the actor
// loop issues directly toward the same destination — consumers of the
// event stream only see per-source FIFO of deliveries, which is the
// guarantee the serial path gave local subscribers too.
//
// The pool requires an endpoint that advertises
// netapi.Caps.ConcurrentSend (the TCP transport). Under simnet the
// capability is absent and the broker keeps the serial path, preserving
// the simulator's determinism.
type fanoutPool struct {
	ep      netapi.Endpoint
	workers []chan fanoutJob
	// inflight counts, per worker, the jobs submitted and not yet sent.
	// Only the actor loop increments, so a zero it reads stays zero
	// until its own next submit.
	inflight []atomic.Int64
	wg       sync.WaitGroup // running worker goroutines
}

// fanoutQueueDepth bounds each worker's job channel. A full channel
// blocks the actor loop's submit — pipeline backpressure: the broker
// cannot race unboundedly ahead of its own send path. Workers never
// send to the broker's own node (handlePub takes it out of the target
// set), so the block cannot deadlock.
const fanoutQueueDepth = 256

func newFanoutPool(ep netapi.Endpoint, n int) *fanoutPool {
	p := &fanoutPool{ep: ep, workers: make([]chan fanoutJob, n), inflight: make([]atomic.Int64, n)}
	for i := range p.workers {
		ch := make(chan fanoutJob, fanoutQueueDepth)
		p.workers[i] = ch
		p.wg.Add(1)
		go p.run(ch, &p.inflight[i])
	}
	return p
}

func (p *fanoutPool) run(ch chan fanoutJob, inflight *atomic.Int64) {
	defer p.wg.Done()
	for job := range ch {
		if job.barrier != nil {
			job.barrier.Done()
			continue
		}
		if len(job.fwds) > 0 {
			netapi.SendMany(p.ep, job.fwds, &PubMsg{Event: job.ev})
		}
		if len(job.delivers) > 0 {
			netapi.SendMany(p.ep, job.delivers, &DeliverMsg{Event: job.ev})
		}
		inflight.Add(-1)
	}
}

// idle reports whether d's sticky worker has sent everything submitted
// to it. Actor loop only: it is the one producer, so no job can appear
// between a true answer and the caller's own send toward d.
func (p *fanoutPool) idle(d ids.ID) bool {
	return p.inflight[p.workerFor(d)].Load() == 0
}

// workerFor maps a destination to its sticky worker. IDs are SHA-derived
// (uniform), so the leading 8 bytes are an adequate hash.
func (p *fanoutPool) workerFor(d ids.ID) int {
	return int(binary.BigEndian.Uint64(d[:8]) % uint64(len(p.workers)))
}

// submit partitions one publish's targets by sticky worker and enqueues
// a job per worker touched. Called from the actor loop only (single
// producer — that is what makes per-destination FIFO provable). ev must
// be frozen. fwds and delivers are borrowed for the call only: each job
// gets its own copy of its destinations, so the caller may reuse both
// slices once submit returns (handlePub does).
func (p *fanoutPool) submit(ev *event.Event, fwds, delivers []ids.ID) {
	n := len(p.workers)
	parts := make([]fanoutJob, n)
	for _, d := range fwds {
		w := p.workerFor(d)
		parts[w].fwds = append(parts[w].fwds, d)
	}
	for _, d := range delivers {
		w := p.workerFor(d)
		parts[w].delivers = append(parts[w].delivers, d)
	}
	for w := range parts {
		if len(parts[w].fwds) == 0 && len(parts[w].delivers) == 0 {
			continue
		}
		parts[w].ev = ev
		p.inflight[w].Add(1)
		p.workers[w] <- parts[w]
	}
}

// quiesce blocks until every job submitted before the call has been
// sent to the endpoint: it queues a barrier behind them on every worker.
// Safe from any goroutine and while publishes continue.
func (p *fanoutPool) quiesce() {
	var reached sync.WaitGroup
	reached.Add(len(p.workers))
	for _, ch := range p.workers {
		ch <- fanoutJob{barrier: &reached}
	}
	reached.Wait()
}

// close drains and stops the workers. No submits may follow.
func (p *fanoutPool) close() {
	for _, ch := range p.workers {
		close(ch)
	}
	p.wg.Wait()
}
