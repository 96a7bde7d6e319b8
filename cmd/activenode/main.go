// Command activenode runs one node of the active architecture over real
// TCP. The first node starts a deployment; each later node joins through
// a bootstrap peer, which is both its entry point to the overlay and the
// parent of its broker in the event service's tree, so N processes form
// one event service and one store:
//
//	activenode -listen 127.0.0.1:7701 -name seed -region eu
//	activenode -listen 127.0.0.1:7702 -name n2 -region us \
//	    -bootstrap <seed-id>@127.0.0.1:7701
//
// Each node prints its identifier at startup; drive it with glossctl.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/gloss/active/internal/core"
	"github.com/gloss/active/internal/gateway"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/knowledge"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/store"
	"github.com/gloss/active/internal/transport"
	"github.com/gloss/active/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "activenode:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("activenode", flag.ExitOnError)
	var (
		listen    = fs.String("listen", "127.0.0.1:0", "TCP listen address")
		name      = fs.String("name", "", "node name (derives the node ID; default random)")
		region    = fs.String("region", "eu", "region label")
		x         = fs.Float64("x", 0, "x coordinate (km)")
		y         = fs.Float64("y", 0, "y coordinate (km)")
		bootstrap = fs.String("bootstrap", "", "bootstrap peer as <id-hex>@<host:port>; empty creates a new overlay")
		secret    = fs.String("secret", "gloss-active-secret", "capability secret shared by the deployment")
		codec     = fs.String("codec", wire.CodecXML, "preferred wire codec: xml (open interop format) or binary (compact fast path, used only between nodes that both opt in)")
		outboxHi  = fs.Int("outbox-high", 0, "per-peer send-queue byte budget; sends above it are dropped (0 = 1 MiB default)")
		outboxLo  = fs.Int("outbox-low", 0, "backpressure-relief watermark in bytes (0 = half of -outbox-high)")
		chunkB    = fs.Int("chunk-bytes", 0, "storage transfer chunk size; bodies above it stream as offset-addressed chunk frames (0 = 64 KiB default, negative disables chunking)")
		writerID  = fs.String("writer-id", "", "knowledge-plane writer identity for version vectors (empty = this node's ID; must be unique per writer)")
		kbGossip  = fs.Duration("kb-gossip", 0, "knowledge anti-entropy gossip period (0 disables; objects still converge via fetch read-repair)")
		verbose   = fs.Bool("v", false, "verbose logging")
	)
	_ = fs.Parse(args) // ExitOnError: Parse does not return on a bad flag
	if *kbGossip < 0 {
		return fmt.Errorf("-kb-gossip %v: a gossip period must not be negative (0 disables gossip)", *kbGossip)
	}

	logger := slog.New(slog.DiscardHandler)
	if *verbose {
		logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelDebug}))
	}

	var id ids.ID
	if *name != "" {
		id = ids.FromString(*name)
	} else {
		id = ids.FromString(fmt.Sprintf("node-%d", time.Now().UnixNano()))
	}

	reg := wire.NewRegistry()
	core.RegisterMessages(reg)
	transport.RegisterMessages(reg)
	gateway.RegisterMessages(reg)

	ep, err := transport.Listen(id, reg, transport.Options{
		Listen:          *listen,
		Region:          *region,
		Coord:           netapi.Coord{X: *x, Y: *y},
		Seed:            time.Now().UnixNano(),
		Codec:           *codec,
		OutboxHighWater: *outboxHi,
		OutboxLowWater:  *outboxLo,
		Logger:          logger,
	})
	if err != nil {
		return err
	}
	defer func() { _ = ep.Close() }()

	node := core.NewActiveNode(ep, reg, core.NodeConfig{
		Codec:     *codec,
		Secret:    []byte(*secret),
		Store:     store.Options{ChunkBytes: *chunkB},
		Knowledge: knowledge.Options{Writer: *writerID, GossipInterval: *kbGossip},
	})
	gateway.Serve(node)

	fmt.Printf("node id:   %s\n", node.ID())
	fmt.Printf("listening: %s\n", ep.Addr())
	fmt.Printf("region:    %s\n", *region)
	fmt.Printf("codec:     %s\n", *codec)

	var peerID ids.ID // zero: start a new deployment
	if *bootstrap != "" {
		var addr string
		if peerID, addr, err = parsePeer(*bootstrap); err != nil {
			return err
		}
		ep.AddPeer(peerID, addr)
	}
	// Protocol state belongs to the node's actor loop; marshal the join
	// onto it. The overlay's join timeout reports a dead bootstrap.
	joined := make(chan error, 1)
	ep.Do(func() { node.Join(peerID, func(err error) { joined <- err }) })
	if err := <-joined; err != nil {
		return fmt.Errorf("join: %w", err)
	}
	if peerID.IsZero() {
		fmt.Println("joined:    started a new deployment")
	} else {
		fmt.Printf("joined:    via %s\n", peerID.Short())
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Println("shutting down")
	return nil
}

// parsePeer splits "<id-hex>@<addr>".
func parsePeer(s string) (ids.ID, string, error) {
	at := strings.LastIndex(s, "@")
	if at <= 0 || at == len(s)-1 {
		return ids.Zero, "", fmt.Errorf("bad peer %q, want <id-hex>@<host:port>", s)
	}
	id, err := ids.Parse(s[:at])
	if err != nil {
		return ids.Zero, "", err
	}
	return id, s[at+1:], nil
}
