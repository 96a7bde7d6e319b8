package main

import (
	"strings"
	"testing"
)

// TestRunRejectsBadValues: every out-of-range value a flag can carry is
// refused before the node serves — the codec and the watermarks by
// transport.Listen, on the values it will run with; -fanout-workers, which
// no substrate can refuse, by run itself.
func TestRunRejectsBadValues(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of the error
	}{
		{[]string{"-fanout-workers", "-1"}, "-fanout-workers"},
		{[]string{"-codec", "protobuf"}, "codec"},
		{[]string{"-outbox-high", "-1"}, "OutboxHighWater"},
		{[]string{"-outbox-low", "-1"}, "OutboxLowWater"},
		{[]string{"-outbox-low", "2", "-outbox-high", "1"}, "OutboxLowWater"},
	} {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want an error naming %s", tc.args, err, tc.want)
		}
	}
}
