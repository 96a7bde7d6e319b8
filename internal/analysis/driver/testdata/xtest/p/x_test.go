package p_test

import (
	"testing"

	"example.com/xtest/p"
	"example.com/xtest/q"
)

// q.Use type-checks only if q is checked against the same, test-augmented
// p that defines NewT.
func TestExternal(t *testing.T) { q.Use(p.NewT()).Bad() }
