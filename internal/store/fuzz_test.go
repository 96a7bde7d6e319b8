package store

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/gloss/active/internal/erasure"
	"github.com/gloss/active/internal/ids"
)

// FuzzUnpackFragment feeds arbitrary stored bodies to the fragment
// parser — exactly what fragCheck does to every object a node roots —
// and checks accepted fragments are internally consistent and
// re-serialise canonically.
func FuzzUnpackFragment(f *testing.F) {
	code, err := erasure.NewCode(3, 2)
	if err != nil {
		f.Fatal(err)
	}
	obj := ids.FromString("fuzz seed object")
	for _, frag := range code.Encode([]byte("seed fragment corpus body, split five ways")) {
		f.Add(packFragment(obj, 3, 2, frag))
	}
	f.Add([]byte{})
	f.Add([]byte{fragMagic0, fragMagic1})
	f.Add(append([]byte{fragMagic0, fragMagic1}, make([]byte, ids.Size)...))
	f.Fuzz(func(t *testing.T, b []byte) {
		frag, meta, err := unpackFragment(b)
		if err != nil {
			return
		}
		total := meta.data + meta.parity
		if meta.data < 1 || meta.parity < 0 || total > 255 {
			t.Fatalf("accepted invalid geometry m=%d r=%d", meta.data, meta.parity)
		}
		if frag.Index < 0 || frag.Index >= total {
			t.Fatalf("accepted out-of-range index %d of %d", frag.Index, total)
		}
		if frag.OrigLen < 0 || frag.OrigLen > meta.data*len(frag.Shard) {
			t.Fatalf("accepted impossible OrigLen %d for %d-byte shard", frag.OrigLen, len(frag.Shard))
		}
		repacked := packFragment(meta.object, meta.data, meta.parity, frag)
		frag2, meta2, err2 := unpackFragment(repacked)
		if err2 != nil {
			t.Fatalf("repacked fragment does not parse: %v", err2)
		}
		if meta2 != meta || frag2.Index != frag.Index || frag2.OrigLen != frag.OrigLen ||
			!bytes.Equal(frag2.Shard, frag.Shard) {
			t.Fatalf("fragment round-trip not stable")
		}
	})
}

// copyReassembly is the seed reassembly, kept as the oracle the shipped
// one is held to: every chunk copied into one preallocated buffer,
// tracked by a per-chunk bitmap, the whole body hashed on completion.
type copyReassembly struct {
	total     int
	chunk     int
	hash      uint64
	buf       []byte
	got       []bool
	remaining int
}

func newCopyReassembly(totalLen, chunk, maxObject int, hash uint64) (*copyReassembly, error) {
	if totalLen <= 0 || totalLen > maxObject {
		return nil, fmt.Errorf("store: transfer length %d out of range (max %d)", totalLen, maxObject)
	}
	if chunk <= 0 || chunk > maxObject {
		return nil, fmt.Errorf("store: chunk size %d out of range", chunk)
	}
	n := (totalLen + chunk - 1) / chunk
	return &copyReassembly{
		total:     totalLen,
		chunk:     chunk,
		hash:      hash,
		buf:       make([]byte, totalLen),
		got:       make([]bool, n),
		remaining: n,
	}, nil
}

func (ra *copyReassembly) add(off int, data []byte) (done bool, err error) {
	if off < 0 || off >= ra.total || off%ra.chunk != 0 {
		return false, fmt.Errorf("store: chunk offset %d invalid for %d-byte transfer", off, ra.total)
	}
	want := ra.chunk
	if off+want > ra.total {
		want = ra.total - off
	}
	if len(data) != want {
		return false, fmt.Errorf("store: chunk at %d has %d bytes, want %d", off, len(data), want)
	}
	idx := off / ra.chunk
	if ra.got[idx] {
		return false, nil // duplicate delivery: benign, ignore
	}
	copy(ra.buf[off:], data)
	ra.got[idx] = true
	ra.remaining--
	if ra.remaining > 0 {
		return false, nil
	}
	if hash64(ra.buf) != ra.hash {
		return false, fmt.Errorf("store: reassembled transfer fails hash check")
	}
	return true, nil
}

// FuzzChunkReassembly drives the shipped reassembly and the copying
// oracle side by side, two ways: a hostile phase replaying fuzz-derived
// offsets, lengths and bytes (must never panic or write out of bounds),
// then an honest delivery of every chunk, each twice, in a fuzz-chosen
// order (must complete with the exact body). At every step both must
// return the same verdict, and a completed body must read the same.
func FuzzChunkReassembly(f *testing.F) {
	f.Add(100, 16, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(1, 1, []byte{})
	f.Add(4096, 512, []byte{0xFF, 0x00, 0x10})
	f.Add(64, 16, []byte{0, 0, 1, 0, 16, 0, 1, 0, 32, 0, 1, 0, 48, 0, 1, 0})
	f.Fuzz(func(t *testing.T, totalLen, chunk int, noise []byte) {
		const maxObject = 1 << 16
		type pair struct {
			ra  *reassembly
			ref *copyReassembly
		}
		open := func(hash uint64) (pair, bool) {
			ra, err := newReassembly(totalLen, chunk, maxObject, hash)
			ref, refErr := newCopyReassembly(totalLen, chunk, maxObject, hash)
			if err != nil {
				if refErr == nil && (totalLen+chunk-1)/chunk <= maxChunks {
					t.Fatalf("geometry %d/%d rejected (%v), the oracle accepts it", totalLen, chunk, err)
				}
				return pair{}, false // geometry rejected up front: nothing to drive
			}
			if refErr != nil {
				t.Fatalf("geometry %d/%d accepted, the oracle rejects it: %v", totalLen, chunk, refErr)
			}
			return pair{ra, ref}, true
		}
		// add feeds both and fails unless they agree; it reports the
		// shared verdict.
		add := func(p pair, off int, data []byte) (bool, error) {
			done, err := p.ra.add(off, data)
			refDone, refErr := p.ref.add(off, data)
			if done != refDone || fmt.Sprint(err) != fmt.Sprint(refErr) {
				t.Fatalf("chunk at %d (%d bytes): done=%v err=%v, oracle done=%v err=%v", off, len(data), done, err, refDone, refErr)
			}
			if done && !bytes.Equal((&blob{pieces: p.ra.pieces}).bytes(), p.ref.buf) {
				t.Fatalf("completed bodies differ")
			}
			return done, err
		}

		hostile, ok := open(hash64(noise))
		if !ok {
			return
		}
		for i := 0; i+3 < len(noise); i += 4 {
			off := int(noise[i]) | int(noise[i+1])<<8
			if noise[i+3]&0x80 != 0 {
				off = off % (totalLen/chunk + 1) * chunk // an aligned offset, often in range
			}
			l := (int(noise[i+2]) | int(noise[i+3]&0x7F)<<8) % (totalLen + 1)
			if noise[i+2]&1 != 0 && off >= 0 && off < totalLen {
				l = min(chunk, totalLen-off) // the right length for off
			}
			data := make([]byte, l)
			copy(data, noise[i:])
			if _, err := add(hostile, off, data); err != nil {
				break // poisoned: the store drops the transfer here
			}
		}

		content := make([]byte, totalLen)
		for i := range content {
			content[i] = byte(i) ^ byte(len(noise))
		}
		honest, ok := open(hash64(content))
		if !ok {
			t.Fatalf("honest geometry rejected")
		}
		n := (totalLen + chunk - 1) / chunk
		start, stride := 0, 1
		if len(noise) > 0 {
			start = int(noise[0]) % n
		}
		if len(noise) > 1 {
			// Any stride coprime to n visits every chunk once: a shuffled,
			// not merely rotated, arrival order.
			for stride = int(noise[1])%n + 1; gcd(stride, n) != 1; stride++ {
			}
		}
		delivered := 0
		for i := 0; i < n; i++ {
			off := (start + i*stride) % n * chunk
			end := min(off+chunk, totalLen)
			done, err := add(honest, off, content[off:end])
			if err != nil {
				t.Fatalf("honest chunk at %d rejected: %v", off, err)
			}
			delivered++
			if done != (delivered == n) {
				t.Fatalf("done=%v after %d of %d chunks", done, delivered, n)
			}
			// A duplicate must be benign and never re-complete.
			if done2, err2 := add(honest, off, content[off:end]); done2 || err2 != nil {
				t.Fatalf("duplicate chunk at %d: done=%v err=%v", off, done2, err2)
			}
		}
		if !bytes.Equal((&blob{pieces: honest.ra.pieces}).bytes(), content) {
			t.Fatalf("reassembled body differs from the original")
		}
	})
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
