package p

import "testing"

func TestInPackage(t *testing.T) { NewT().Bad() }
