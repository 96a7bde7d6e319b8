package wire

// DecodeTwoPass exposes the reference XML decoder (see decode_test.go) to
// the external test package, whose fuzz target holds Decode against it on
// the full registry's message types.
func DecodeTwoPass(r *Registry, data []byte) (*Envelope, error) { return decodeTwoPass(r, data) }

// EncodeReflect exposes the reference XML encoder (see decode_test.go):
// what encoding/xml alone writes for an envelope.
func EncodeReflect(env *Envelope) ([]byte, error) { return encodeReflect(env) }

// DecodeReflect and DecodeFast expose Decode's two halves, so the
// differential tests can hold the hand-written scanner (nil = declined)
// against the reflection decoder on the full registry.
func DecodeReflect(r *Registry, data []byte) (*Envelope, error) { return r.decodeReflect(data) }
func DecodeFast(r *Registry, data []byte) *Envelope             { return r.decodeFast(data) }

// EncodeContiguous exposes the binary encoder from before frames borrowed
// their bodies (see contiguous_test.go).
func EncodeContiguous(c *BinaryCodec, env *Envelope) ([]byte, error) { return c.encodeContiguous(env) }
