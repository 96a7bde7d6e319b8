package transport

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/wire"
)

// TestSendManyConcurrentProducers drives SendMany from many goroutines
// at once, each reaching the node through Do — the one door that stays
// safe from any goroutine — and asserts three things: no message is lost
// or double-counted (receiver count and Stats.Sent both exact), outbox
// accounting returns to zero, and per-destination FIFO holds per
// producing goroutine (each goroutine tags its messages with a sequence;
// the receiver asserts the sequence is monotone per tag even though
// goroutines interleave freely in the inbox).
func TestSendManyConcurrentProducers(t *testing.T) {
	reg := testReg()
	a := newNode(t, "tcp-conc-a", reg)
	b := newNode(t, "tcp-conc-b", reg)
	c := newNode(t, "tcp-conc-c", reg)
	a.AddPeer(b.ID(), b.Addr())
	a.AddPeer(c.ID(), c.Addr())

	const producers = 8
	const perProducer = 200

	type rec struct {
		mu   sync.Mutex
		seen map[string][]int // producer tag -> sequence numbers in arrival order
		n    int
	}
	collect := func(r *rec) func(netapi.Ctx, ids.ID, wire.Message) {
		return func(_ netapi.Ctx, _ ids.ID, msg wire.Message) {
			parts := strings.SplitN(msg.(*echoMsg).Text, "/", 2)
			var seq int
			fmt.Sscanf(parts[1], "%d", &seq)
			r.mu.Lock()
			r.seen[parts[0]] = append(r.seen[parts[0]], seq)
			r.n++
			r.mu.Unlock()
		}
	}
	rb := &rec{seen: make(map[string][]int)}
	rc := &rec{seen: make(map[string][]int)}
	b.Handle("test.echo", collect(rb))
	c.Handle("test.echo", collect(rc))

	tos := []ids.ID{b.ID(), c.ID()}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				msg := &echoMsg{Text: fmt.Sprintf("p%d/%d", p, i)}
				a.Do(func() { a.SendMany(tos, msg) })
			}
		}(p)
	}
	wg.Wait()

	want := producers * perProducer
	deadline := time.Now().Add(10 * time.Second)
	for {
		rb.mu.Lock()
		gotB := rb.n
		rb.mu.Unlock()
		rc.mu.Lock()
		gotC := rc.n
		rc.mu.Unlock()
		if gotB == want && gotC == want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d/%d (b) and %d/%d (c) frames", gotB, want, gotC, want)
		}
		time.Sleep(time.Millisecond)
	}

	st := a.Stats()
	if st.Sent != uint64(2*want) {
		t.Fatalf("Stats.Sent = %d, want %d (no frame may be lost or double-counted)", st.Sent, 2*want)
	}
	if st.Dropped != 0 {
		t.Fatalf("Stats.Dropped = %d under an uncontended 1MiB budget: %+v", st.Dropped, st)
	}
	for queued := -1; queued != 0; time.Sleep(time.Millisecond) {
		onLoop(a, func() { queued = a.QueuedBytes(b.ID()) + a.QueuedBytes(c.ID()) })
		if queued != 0 && time.Now().After(deadline) {
			t.Fatalf("QueuedBytes = %d after full drain, want 0", queued)
		}
	}

	for name, r := range map[string]*rec{"b": rb, "c": rc} {
		r.mu.Lock()
		for tag, seqs := range r.seen {
			if len(seqs) != perProducer {
				t.Fatalf("%s saw %d messages from %s, want %d", name, len(seqs), tag, perProducer)
			}
			for i := 1; i < len(seqs); i++ {
				if seqs[i] != seqs[i-1]+1 {
					t.Fatalf("%s: FIFO violated for %s: seq %d followed %d at position %d",
						name, tag, seqs[i], seqs[i-1], i)
				}
			}
		}
		r.mu.Unlock()
	}
}

// TestConcurrentSendsWithChurn races SendMany producers against address
// churn (AddPeer re-seeding) and backpressure gauge reads, each from its
// own goroutine and each entering through Do or a setup call. The
// assertion is the race detector plus conservation: every frame is
// either Sent or attributed to a drop reason.
func TestConcurrentSendsWithChurn(t *testing.T) {
	reg := testReg()
	a := newNode(t, "tcp-churn-a", reg)
	b := newNode(t, "tcp-churn-b", reg)
	a.AddPeer(b.ID(), b.Addr())

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				msg := &echoMsg{Text: fmt.Sprintf("c%d/%d", p, i)}
				a.Do(func() { a.SendMany([]ids.ID{b.ID()}, msg) })
			}
		}(p)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			a.AddPeer(b.ID(), b.Addr())
		}
	}()
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				onLoop(a, func() {
					_ = a.Saturated(b.ID())
					_ = a.QueuedBytes(b.ID())
				})
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-readerDone

	st := a.Stats()
	if st.Sent+st.Dropped != 4*300 {
		t.Fatalf("Sent (%d) + Dropped (%d) != %d sends", st.Sent, st.Dropped, 4*300)
	}
}
