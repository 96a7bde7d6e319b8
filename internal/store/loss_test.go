package store

import (
	"fmt"
	"testing"
	"time"

	"github.com/gloss/active/internal/ids"
)

// TestGetRetriesUnderMessageLoss injects 10% message loss and verifies
// that the retry layer still completes reads — the fault model the paper's
// wide-area deployment implies.
func TestGetRetriesUnderMessageLoss(t *testing.T) {
	c := buildCluster(t, 40, 16, Options{
		Replicas:       3,
		RepairInterval: -1,
		retries:        4,
		RequestTimeout: 2 * time.Second,
	})
	// Loss starts only after the overlay and writes settle, so the
	// cluster itself is sound and only the read path is stressed.
	const objects = 15
	guids := make([]ids.ID, objects)
	acked := 0
	for i := 0; i < objects; i++ {
		content := []byte(fmt.Sprintf("lossy-object-%d", i))
		guids[i] = GUIDFor(content)
		c.stores[i%16].Put(content, func(_ ids.ID, err error) {
			if err == nil {
				acked++
			}
		})
	}
	c.world.RunFor(10 * time.Second)
	if acked != objects {
		t.Fatalf("setup: only %d/%d puts acked", acked, objects)
	}

	lossy := newLossFilter(c, 0.10)
	c.world.SetLinkFilter(lossy)
	ok, fail := 0, 0
	for i := 0; i < objects; i++ {
		c.stores[(i+5)%16].Get(guids[i], func(_ []byte, err error) {
			if err == nil {
				ok++
			} else {
				fail++
			}
		})
		c.world.RunFor(500 * time.Millisecond)
	}
	c.world.RunFor(30 * time.Second)
	if ok+fail != objects {
		t.Fatalf("reads incomplete: ok=%d fail=%d", ok, fail)
	}
	// With 4 retries at 10% loss, effectively all reads must succeed.
	if ok < objects-1 {
		t.Fatalf("too many read failures under loss: ok=%d/%d", ok, objects)
	}
}

// newLossFilter drops a deterministic pseudo-random 'rate' fraction of
// links per message based on a counter (the simnet world's own RNG is
// reserved for jitter; this keeps the test self-contained).
func newLossFilter(c *cluster, rate float64) func(from, to ids.ID) bool {
	counter := 0
	period := int(1 / rate)
	return func(from, to ids.ID) bool {
		counter++
		return counter%period != 0
	}
}
