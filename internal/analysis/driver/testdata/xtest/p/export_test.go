package p

// NewT exists only in p's test-augmented compilation.
func NewT() T { return T{n: 1} }
