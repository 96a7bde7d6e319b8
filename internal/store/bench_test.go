package store

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/gloss/active/internal/ids"
)

// BenchmarkStoreReplicate measures one put of a 64 KiB object through
// the replication plane of a joined 8-node cluster: the pull, the k-1
// replica pushes and their landing — in 4 KiB chunk frames, and with
// every body inside its manifest (a threshold equal to the body) as the
// reference series.
func BenchmarkStoreReplicate(b *testing.B) {
	for _, mode := range []struct {
		name       string
		chunkBytes int
	}{{"chunked", 4 << 10}, {"inline", 64 << 10}} {
		b.Run(mode.name, func(b *testing.B) {
			c := buildCluster(b, 42, 8, Options{
				Replicas: 3, RepairInterval: -1, RequestTimeout: 5 * time.Second,
				ChunkBytes: mode.chunkBytes,
			})
			body := make([]byte, 64<<10)
			rand.New(rand.NewSource(42)).Read(body)
			b.SetBytes(int64(len(body)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A fresh GUID per iteration: content-hash keys would
				// otherwise dedupe every put after the first.
				body[0], body[1], body[2] = byte(i), byte(i>>8), byte(i>>16)
				done := false
				c.stores[i%len(c.stores)].Put(append([]byte(nil), body...), func(_ ids.ID, err error) {
					if err != nil {
						b.Fatalf("put: %v", err)
					}
					done = true
				})
				for step := 0; !done && step < 60; step++ {
					c.world.RunFor(500 * time.Millisecond)
				}
				if !done {
					b.Fatal("put did not complete")
				}
			}
		})
	}
}

// BenchmarkStoreDigestRound measures one handleDigestReq at a holder of
// 1 000 objects whose sums are known (as after any earlier round, or a
// chunked receipt). The two series hold 64x different byte counts: ns/op
// must follow the object count, not the bytes held.
func BenchmarkStoreDigestRound(b *testing.B) {
	for _, size := range []int{1 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("1000x%dKiB", size>>10), func(b *testing.B) {
			c := buildCluster(b, 43, 1, Options{RepairInterval: -1})
			s, body := c.stores[0], make([]byte, size)
			for i := 0; i < 1000; i++ {
				s.setObject(ids.FromString(fmt.Sprint("held-", i)), &blob{data: body})
			}
			req := &DigestReqMsg{Round: 1}
			s.handleDigestReq(nil, s.ep.ID(), req) // first need: every sum computed once
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.handleDigestReq(nil, s.ep.ID(), req)
				c.world.RunFor(time.Millisecond) // deliver (and discard) the reply
			}
		})
	}
}
