// Command glossctl drives a running activenode over TCP:
//
//	glossctl -node <id>@<addr> status
//	glossctl -node <id>@<addr> put "some content"
//	glossctl -node <id>@<addr> get <guid-hex>
//	glossctl -node <id>@<addr> pub weather.report region=eu tempC=21.5
//	glossctl -node <id>@<addr> sub gps.location
//	glossctl -node <id>@<addr> deploy bundle.xml
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/gloss/active/internal/bundle"
	"github.com/gloss/active/internal/core"
	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/gateway"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/pubsub"
	"github.com/gloss/active/internal/transport"
	"github.com/gloss/active/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "glossctl:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		nodeSpec = flag.String("node", "", "target node as <id-hex>@<host:port>")
		timeout  = flag.Duration("timeout", 10*time.Second, "request timeout")
	)
	flag.Parse()
	if *nodeSpec == "" || flag.NArg() == 0 {
		return fmt.Errorf("usage: glossctl -node <id>@<addr> <status|put|get|pub|sub|deploy> [args]")
	}
	at := strings.LastIndex(*nodeSpec, "@")
	if at <= 0 {
		return fmt.Errorf("bad -node %q", *nodeSpec)
	}
	target, err := ids.Parse((*nodeSpec)[:at])
	if err != nil {
		return err
	}
	addr := (*nodeSpec)[at+1:]

	reg := wire.NewRegistry()
	core.RegisterMessages(reg)
	transport.RegisterMessages(reg)
	gateway.RegisterMessages(reg)
	ep, err := transport.Listen(ids.FromString(fmt.Sprintf("glossctl-%d", time.Now().UnixNano())),
		reg, transport.Options{Seed: time.Now().UnixNano()})
	if err != nil {
		return err
	}
	defer func() { _ = ep.Close() }()
	ep.AddPeer(target, addr)
	gw := &gateway.Client{EP: ep, Target: target}

	done := make(chan error, 1)
	switch cmd := flag.Arg(0); cmd {
	case "status":
		gw.Status(*timeout, func(text string, err error) {
			if err == nil {
				fmt.Print(text)
			}
			done <- err
		})
	case "put":
		if flag.NArg() < 2 {
			return fmt.Errorf("put needs content")
		}
		gw.Put([]byte(flag.Arg(1)), *timeout, func(guid string, err error) {
			if err == nil {
				fmt.Println(guid)
			}
			done <- err
		})
	case "get":
		if flag.NArg() < 2 {
			return fmt.Errorf("get needs a guid")
		}
		gw.Get(flag.Arg(1), *timeout, func(data []byte, err error) {
			if err == nil {
				fmt.Println(string(data))
			}
			done <- err
		})
	case "pub":
		if flag.NArg() < 2 {
			return fmt.Errorf("pub needs an event type")
		}
		ev := event.New(flag.Arg(1), "glossctl", time.Duration(time.Now().UnixNano()))
		for _, kv := range flag.Args()[2:] {
			eq := strings.Index(kv, "=")
			if eq <= 0 {
				return fmt.Errorf("bad attribute %q, want k=v", kv)
			}
			k, v := kv[:eq], kv[eq+1:]
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				ev.Set(k, event.F(f))
			} else {
				ev.Set(k, event.S(v))
			}
		}
		ev.Stamp(uint64(time.Now().UnixNano()))
		ep.Send(target, &gateway.PubReq{Event: ev})
		time.Sleep(300 * time.Millisecond) // let the frame flush
		fmt.Println("published", ev.Type)
		done <- nil
	case "sub":
		if flag.NArg() < 2 {
			return fmt.Errorf("sub needs an event type")
		}
		ep.Handle("gateway.event", func(_ netapi.Ctx, _ ids.ID, msg wire.Message) {
			ev := msg.(*gateway.EventMsg).Event
			fmt.Printf("%s %s %v\n", ev.Type, ev.Source, renderAttrs(ev))
		})
		ep.Send(target, &gateway.SubReq{Filter: pubsub.NewFilter(pubsub.TypeIs(flag.Arg(1)))})
		fmt.Println("subscribed to", flag.Arg(1), "— ctrl-c to stop")
		select {} // stream until interrupted
	case "deploy":
		if flag.NArg() < 2 {
			return fmt.Errorf("deploy needs a bundle XML file")
		}
		data, err := os.ReadFile(flag.Arg(1))
		if err != nil {
			return err
		}
		b, err := bundle.Unmarshal(data)
		if err != nil {
			return err
		}
		bundle.Deploy(ep, target, b, *timeout, func(err error) {
			if err == nil {
				fmt.Println("deployed", b.Name)
			}
			done <- err
		})
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
	select {
	case err := <-done:
		return err
	case <-time.After(*timeout + 2*time.Second):
		return fmt.Errorf("timed out")
	}
}

func renderAttrs(ev *event.Event) string {
	parts := make([]string, 0, len(ev.Attrs))
	for _, name := range ev.Attrs.Names() {
		parts = append(parts, name+"="+ev.Attrs[name].String())
	}
	return strings.Join(parts, " ")
}
