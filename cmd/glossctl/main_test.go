package main

import (
	"strings"
	"testing"

	"github.com/gloss/active/internal/core"
	"github.com/gloss/active/internal/gateway"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/transport"
	"github.com/gloss/active/internal/wire"
)

// gatewayNode boots a one-node TCP deployment serving the gateway, as
// activenode does, and returns its -node spec.
func gatewayNode(t *testing.T) string {
	t.Helper()
	reg := wire.NewRegistry()
	core.RegisterMessages(reg)
	transport.RegisterMessages(reg)
	gateway.RegisterMessages(reg)
	ep, err := transport.Listen(ids.FromString("glossctl-target"), reg, transport.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ep.Close() })
	node := core.NewActiveNode(ep, reg, core.NodeConfig{Secret: []byte("glossctl-test"), AdvertInterval: -1})
	gateway.Serve(node)
	joined := make(chan error, 1)
	ep.Do(func() { node.Join(ids.Zero, func(err error) { joined <- err }) })
	if err := <-joined; err != nil {
		t.Fatal(err)
	}
	return node.ID().String() + "@" + ep.Addr()
}

// glossctl runs one command line against spec and returns what it printed.
func glossctl(t *testing.T, spec string, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(append([]string{"-node", spec, "-timeout", "5s"}, args...), &out); err != nil {
		t.Fatalf("glossctl %q: %v", args, err)
	}
	return out.String()
}

// TestStatusPutGetOverLoopback drives a live gateway over loopback TCP:
// status reports the joined node, and what put stores get reads back.
func TestStatusPutGetOverLoopback(t *testing.T) {
	spec := gatewayNode(t)
	if status := glossctl(t, spec, "status"); !strings.Contains(status, "joined=true") {
		t.Fatalf("status does not report a joined node:\n%s", status)
	}
	guid := strings.TrimSpace(glossctl(t, spec, "put", "stored through glossctl"))
	if _, err := ids.Parse(guid); err != nil {
		t.Fatalf("put printed %q, not a guid: %v", guid, err)
	}
	if got := glossctl(t, spec, "get", guid); got != "stored through glossctl\n" {
		t.Fatalf("get printed %q", got)
	}
}

// TestRunRejectsBadArguments: a command line that cannot be run is
// refused before any socket opens — the target address here would not
// answer.
func TestRunRejectsBadArguments(t *testing.T) {
	spec := ids.FromString("nobody").String() + "@127.0.0.1:1"
	for _, tc := range []struct {
		args []string
		want string // substring of the error
	}{
		{nil, "usage"},
		{[]string{"-node", "no-at-sign", "status"}, "bad -node"},
		{[]string{"-node", spec, "put"}, "put needs content"},
		{[]string{"-node", spec, "get"}, "get needs a guid"},
		{[]string{"-node", spec, "pub", "t", "novalue"}, "bad attribute"},
		{[]string{"-node", spec, "sub"}, "sub needs an event type"},
		{[]string{"-node", spec, "deploy"}, "deploy needs"},
		{[]string{"-node", spec, "frobnicate"}, "unknown command"},
	} {
		var out strings.Builder
		err := run(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want an error naming %q", tc.args, err, tc.want)
		}
	}
}
