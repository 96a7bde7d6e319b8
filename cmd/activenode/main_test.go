package main

import (
	"strings"
	"testing"
)

// TestRunRejectsBadValues: every out-of-range value a flag can carry is
// refused before the node serves — the codec and the watermarks by
// transport.Listen, on the values it will run with, and the gossip period
// and chunk size by run itself, since the knowledge plane reads any
// period ≤ 0 as "off" and the store any chunk size ≤ 0 as its default.
func TestRunRejectsBadValues(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of the error
	}{
		{[]string{"-codec", "protobuf"}, "codec"},
		{[]string{"-outbox-high", "-1"}, "OutboxHighWater"},
		{[]string{"-outbox-low", "-1"}, "OutboxLowWater"},
		{[]string{"-outbox-low", "2", "-outbox-high", "1"}, "OutboxLowWater"},
		{[]string{"-kb-gossip", "-1s"}, "kb-gossip"},
		{[]string{"-chunk-bytes", "-1"}, "chunk-bytes"},
	} {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want an error naming %s", tc.args, err, tc.want)
		}
	}
}
