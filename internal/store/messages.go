package store

import (
	"github.com/gloss/active/internal/wire"
)

// PutMsg is routed toward an object's root to store it. Large objects
// travel without Data: Size announces the body length and the root pulls
// the bytes directly from Origin (PullMsg → manifest/chunk stream), so
// the routed control frame stays small and the object never crosses the
// overlay hop by hop.
type PutMsg struct {
	GUID   string     `xml:"guid,attr"`
	ReqID  uint64     `xml:"req,attr"`
	Origin string     `xml:"origin,attr"`
	Size   int        `xml:"size,attr,omitempty"`
	Data   wire.Bytes `xml:"data"`
}

// Kind implements wire.Message.
func (PutMsg) Kind() string { return "store.put" }

// AckMsg confirms (or rejects) a put, sent directly to the origin.
type AckMsg struct {
	ReqID uint64 `xml:"req,attr"`
	OK    bool   `xml:"ok,attr"`
	Err   string `xml:"err,attr,omitempty"`
}

// Kind implements wire.Message.
func (AckMsg) Kind() string { return "store.ack" }

// GetMsg is routed (traced) toward an object's root to fetch it; any node
// holding a copy answers from the path.
type GetMsg struct {
	GUID  string `xml:"guid,attr"`
	ReqID uint64 `xml:"req,attr"`
}

// Kind implements wire.Message.
func (GetMsg) Kind() string { return "store.get" }

// GetReplyMsg answers a get that found nothing, sent directly to the
// origin. A found object comes back as a transfer (ManifestMsg with the
// get-reply purpose), as every body a node sends does.
type GetReplyMsg struct {
	ReqID uint64 `xml:"req,attr"`
	GUID  string `xml:"guid,attr"`
}

// Kind implements wire.Message.
func (GetReplyMsg) Kind() string { return "store.getReply" }

// ReplicateMsg and CacheFillMsg are the names the frozen benchmark's span
// sampler switches on (bench/internal/workloads/storemixed.go:59,65), kept
// with the Kind a case of that switch needs; the next PR allowed to edit
// bench/ removes both. Neither is registered, sent or handled: replicas
// and cache fills travel as transfers (ManifestMsg).
type ReplicateMsg struct {
	GUID string
	Pin  bool
	Data wire.Bytes
}

// Kind implements wire.Message.
func (ReplicateMsg) Kind() string { return "store.replicate" }

// CacheFillMsg: see ReplicateMsg.
type CacheFillMsg struct {
	GUID string
	Data wire.Bytes
}

// Kind implements wire.Message.
func (CacheFillMsg) Kind() string { return "store.cacheFill" }

// PushMsg is routed toward an object's root, instructing it to push a
// replica to Target — the primitive the data placement policies of §4.6
// (latency-reduction, backup) are built on.
type PushMsg struct {
	GUID   string `xml:"guid,attr"`
	Target string `xml:"target,attr"`
}

// Kind implements wire.Message.
func (PushMsg) Kind() string { return "store.push" }

// PullMsg asks a put's origin to stream the announced object directly to
// the sender (the object's root). Piri-style: routing decides placement,
// the bytes travel point-to-point.
type PullMsg struct {
	GUID  string `xml:"guid,attr"`
	ReqID uint64 `xml:"req,attr"`
}

// Kind implements wire.Message.
func (PullMsg) Kind() string { return "store.pull" }

// ManifestMsg is one transfer: every body a node sends a peer — a
// replica, a cache fill, a found get's answer, a pulled put — is one
// manifest. A body of at most the sender's ChunkBytes rides in Data; a
// larger one follows as Chunk-sized ChunkMsg frames (Data empty). Either
// way the receiver checks it against Hash before Purpose decides what
// becomes of it (replicate, cache fill, get reply, put), with ReqID and
// Pin the context that purpose needs.
type ManifestMsg struct {
	Xfer     uint64     `xml:"xfer,attr"`
	GUID     string     `xml:"guid,attr"`
	Purpose  int        `xml:"purpose,attr"`
	TotalLen int        `xml:"len,attr"`
	Chunk    int        `xml:"chunk,attr"`
	Hash     uint64     `xml:"hash,attr"`
	ReqID    uint64     `xml:"req,attr,omitempty"`
	Pin      bool       `xml:"pin,attr,omitempty"`
	Data     wire.Bytes `xml:"data,omitempty"`
}

// Kind implements wire.Message.
func (ManifestMsg) Kind() string { return "store.manifest" }

// ChunkMsg carries one offset-addressed slice of a chunked transfer.
// Deliberately NOT a wire.ControlMessage: chunks are data and must feel
// outbox backpressure (a saturated link sheds them; the transfer times
// out and repair retries) rather than bypass the byte budget.
type ChunkMsg struct {
	Xfer uint64     `xml:"xfer,attr"`
	Off  int        `xml:"off,attr"`
	Data wire.Bytes `xml:"data"`
}

// Kind implements wire.Message.
func (ChunkMsg) Kind() string { return "store.chunk" }

// DigestReqMsg asks a replica holder for a summary of everything it
// stores, so the requesting root can push only missing/stale replicas.
type DigestReqMsg struct {
	Round uint64 `xml:"round,attr"`
}

// Kind implements wire.Message.
func (DigestReqMsg) Kind() string { return "store.digestReq" }

// DigestEntry summarises one stored object: enough for the root to decide
// whether its replica is present and current without moving the bytes.
type DigestEntry struct {
	GUID string `xml:"guid,attr"`
	Len  int    `xml:"len,attr"`
	Hash uint64 `xml:"hash,attr"`
}

// DigestMsg answers a DigestReqMsg with the holder's full object summary.
type DigestMsg struct {
	Round   uint64        `xml:"round,attr"`
	Entries []DigestEntry `xml:"e"`
}

// Kind implements wire.Message.
func (DigestMsg) Kind() string { return "store.digest" }

// StatMsg is routed toward an object's root to probe existence without
// transferring the body — the cheap "is this fragment still alive?" check
// behind erasure-coded repair.
type StatMsg struct {
	GUID  string `xml:"guid,attr"`
	ReqID uint64 `xml:"req,attr"`
}

// Kind implements wire.Message.
func (StatMsg) Kind() string { return "store.stat" }

// StatReplyMsg answers a StatMsg, sent directly to the probe's origin.
type StatReplyMsg struct {
	ReqID uint64 `xml:"req,attr"`
	Found bool   `xml:"found,attr"`
	Len   int    `xml:"len,attr"`
}

// Kind implements wire.Message.
func (StatReplyMsg) Kind() string { return "store.statReply" }

// RegisterMessages records all storage message types in a wire registry.
func RegisterMessages(r *wire.Registry) {
	r.Register(&PutMsg{})
	r.Register(&AckMsg{})
	r.Register(&GetMsg{})
	r.Register(&GetReplyMsg{})
	r.Register(&PushMsg{})
	r.Register(&PullMsg{})
	r.Register(&ManifestMsg{})
	r.Register(&ChunkMsg{})
	r.Register(&DigestReqMsg{})
	r.Register(&DigestMsg{})
	r.Register(&StatMsg{})
	r.Register(&StatReplyMsg{})
}
