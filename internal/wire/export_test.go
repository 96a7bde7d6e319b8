package wire

// DecodeTwoPass exposes the reference XML decoder (see decode_test.go) to
// the external test package, whose fuzz target holds Decode against it on
// the full registry's message types.
func DecodeTwoPass(r *Registry, data []byte) (*Envelope, error) { return decodeTwoPass(r, data) }
