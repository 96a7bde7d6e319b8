package transport

import (
	"strings"
	"testing"

	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/wire"
)

// TestListenValidatesOptions: Listen checks codec name and watermark sign
// and order once, on the values it will run with — after its defaults —
// and names the offending field. A low watermark alone is legal (the high
// one defaults to 1 MiB); a negative watermark never is: a negative low
// can never be drained back to, so the saturated latch would not clear,
// and a negative high refuses every non-control push.
func TestListenValidatesOptions(t *testing.T) {
	for _, tc := range []struct {
		name      string
		opts      Options
		wantErr   string // substring of the error; "" = accepted
		high, low int    // watermarks an accepted node runs with
	}{
		{name: "zero options", high: 1 << 20, low: 1 << 19},
		{name: "valid pair", opts: Options{Codec: wire.CodecBinary, OutboxHighWater: 10, OutboxLowWater: 5}, high: 10, low: 5},
		{name: "low alone", opts: Options{OutboxLowWater: 4096}, high: 1 << 20, low: 4096},
		{name: "negative high", opts: Options{OutboxHighWater: -1}, wantErr: "OutboxHighWater"},
		{name: "negative low", opts: Options{OutboxLowWater: -1}, wantErr: "OutboxLowWater"},
		{name: "both negative", opts: Options{OutboxHighWater: -4, OutboxLowWater: -8}, wantErr: "OutboxHighWater"},
		{name: "low above high", opts: Options{OutboxLowWater: 2, OutboxHighWater: 1}, wantErr: "OutboxLowWater"},
		{name: "unknown codec", opts: Options{Codec: "protobuf"}, wantErr: "codec"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, err := Listen(ids.FromString("tcp-opts-"+tc.name), testReg(), tc.opts)
			if err == nil {
				defer n.Close()
			}
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("Listen = %v, want accepted", err)
			case tc.wantErr == "":
				if n.opts.OutboxHighWater != tc.high || n.opts.OutboxLowWater != tc.low {
					t.Fatalf("watermarks = %d/%d, want %d/%d", n.opts.OutboxHighWater, n.opts.OutboxLowWater, tc.high, tc.low)
				}
			case err == nil:
				t.Fatalf("Listen accepted, want an error naming %s", tc.wantErr)
			case !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("Listen = %v, want an error naming %s", err, tc.wantErr)
			}
		})
	}
}
