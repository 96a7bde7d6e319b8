package transport

import "sync"

// lenPrefix is the 4-byte big-endian length every frame starts with on
// the connection.
const lenPrefix = 4

// frame is one queued wire frame: head is its length prefix and the
// encoded envelope up to any body it borrows, body those borrowed bytes —
// a message tail or a shared fan-out body (wire.TailMessage's contract
// keeps them unmodified until written), nil for a frame encoded whole.
type frame struct{ head, body []byte }

// size is what the byte budget counts: the frame after its length prefix.
func (f frame) size() int { return len(f.head) - lenPrefix + len(f.body) }

// outbox is one peer's pending-frame queue: a byte-budgeted deque with
// high/low watermarks. Frames vary from ~40 B binary events to multi-KiB
// XML fallbacks, so a frame count would bound the real queued memory only
// to within ~100x; bytes are what a link class can absorb, so bytes are
// what the budget counts.
//
// Semantics:
//
//   - A non-control push is accepted iff queued bytes are strictly below
//     the high watermark (so one frame may overshoot it, and a frame
//     larger than the whole budget still sends on an empty queue).
//   - Control frames (hellos, subscription state — wire.ControlMessage)
//     are exempt from the budget and refused only at an absolute hard
//     cap, so a saturated link cannot lose the traffic that would let it
//     recover. The hard cap bounds memory if the link is truly wedged.
//   - Crossing the high watermark latches the outbox "over"; draining
//     back to the low watermark clears it and reports a drain event.
//     The hysteresis window is what Saturated exposes to protocol code.
//
// The mutex is shared by the actor loop (push, drop) and the peer's
// writer goroutine (take, release); all sections are O(batch) or O(1).
type outbox struct {
	mu     sync.Mutex
	frames []frame
	// bytes counts queued plus in-flight payload: take moves frames out
	// of the queue but their bytes stay counted until release, so the
	// gauge covers frames being written, not just frames waiting.
	bytes int
	high  int
	low   int
	hard  int // absolute bound, control frames included
	over  bool
	// notify wakes the writer goroutine; capacity 1, a token means
	// "frames may be queued".
	notify chan struct{}
}

func newOutbox(high, low int) *outbox {
	return &outbox{
		high:   high,
		low:    low,
		hard:   2 * high,
		notify: make(chan struct{}, 1),
	}
}

// push queues one encoded frame, reporting whether it was accepted.
// Rejections are budget drops: the caller counts them by reason.
func (ox *outbox) push(f frame, control bool) bool {
	ox.mu.Lock()
	var accept bool
	if control {
		accept = ox.bytes < ox.hard
	} else {
		accept = ox.bytes < ox.high
	}
	if !accept {
		ox.over = true
		ox.mu.Unlock()
		return false
	}
	ox.frames = append(ox.frames, f)
	ox.bytes += f.size()
	if ox.bytes >= ox.high {
		ox.over = true
	}
	ox.mu.Unlock()
	select {
	case ox.notify <- struct{}{}:
	default:
	}
	return true
}

// take removes queued frames into buf (reused across flushes) up to max
// payload bytes — always at least one frame, so an oversized frame still
// drains. The removed bytes stay counted until the matching release.
func (ox *outbox) take(buf []frame, max int) ([]frame, int) {
	ox.mu.Lock()
	defer ox.mu.Unlock()
	if len(ox.frames) == 0 {
		return buf, 0
	}
	total, i := 0, 0
	for ; i < len(ox.frames); i++ {
		if i > 0 && total+ox.frames[i].size() > max {
			break
		}
		total += ox.frames[i].size()
	}
	buf = append(buf, ox.frames[:i]...)
	rest := copy(ox.frames, ox.frames[i:])
	clear(ox.frames[rest:])
	ox.frames = ox.frames[:rest]
	return buf, total
}

// release retires nbytes handed to the connection (written or lost with
// it) and reports whether the queue just drained back to the low
// watermark after having been over the high one — the caller then fires
// the backpressure-relief callbacks.
func (ox *outbox) release(nbytes int) (drained bool) {
	ox.mu.Lock()
	ox.bytes -= nbytes
	if ox.over && ox.bytes <= ox.low {
		ox.over = false
		drained = true
	}
	ox.mu.Unlock()
	return drained
}

// dropAll discards every queued frame (redial attempts exhausted),
// returning how many were dropped and whether that constituted a drain.
func (ox *outbox) dropAll() (dropped int, drained bool) {
	ox.mu.Lock()
	dropped = len(ox.frames)
	for _, f := range ox.frames {
		ox.bytes -= f.size()
	}
	clear(ox.frames)
	ox.frames = ox.frames[:0]
	if ox.over && ox.bytes <= ox.low {
		ox.over = false
		drained = true
	}
	ox.mu.Unlock()
	return dropped, drained
}

// queuedBytes is the backpressure gauge: queued plus in-flight payload.
func (ox *outbox) queuedBytes() int {
	ox.mu.Lock()
	defer ox.mu.Unlock()
	return ox.bytes
}

// pendingFrames counts frames waiting in the queue (excluding any batch
// currently being written).
func (ox *outbox) pendingFrames() int {
	ox.mu.Lock()
	defer ox.mu.Unlock()
	return len(ox.frames)
}

// saturated reports the hysteresis state: latched at the high watermark,
// cleared at the low one.
func (ox *outbox) saturated() bool {
	ox.mu.Lock()
	defer ox.mu.Unlock()
	return ox.over
}
