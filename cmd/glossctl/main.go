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
	"io"
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
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "glossctl:", err)
		os.Exit(1)
	}
}

// action is a command's one network step. It runs on the endpoint's
// actor loop, where every send must start, and reports through done.
type action func(gw *gateway.Client, done chan<- error)

// run checks args in full before it opens a socket, then runs the
// command's action inside one ep.Do and writes what it answers to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("glossctl", flag.ExitOnError)
	var (
		nodeSpec = fs.String("node", "", "target node as <id-hex>@<host:port>")
		timeout  = fs.Duration("timeout", 10*time.Second, "request timeout")
	)
	_ = fs.Parse(args) // ExitOnError: Parse does not return on a bad flag
	if *nodeSpec == "" || fs.NArg() == 0 {
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
	act, err := command(fs.Args(), *timeout, out)
	if err != nil {
		return err
	}

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
	ep.AddPeer(target, (*nodeSpec)[at+1:])
	// Only a sub is sent events; setup calls come before the loop serves.
	ep.Handle("gateway.event", func(_ netapi.Ctx, _ ids.ID, msg wire.Message) {
		ev := msg.(*gateway.EventMsg).Event
		fmt.Fprintf(out, "%s %s %v\n", ev.Type, ev.Source, renderAttrs(ev))
	})
	done := make(chan error, 1)
	ep.Do(func() { act(&gateway.Client{EP: ep, Target: target}, done) })
	var expired <-chan time.Time // a sub streams until interrupted
	if fs.Arg(0) != "sub" {
		expired = time.After(*timeout + 2*time.Second)
	}
	select {
	case err := <-done:
		return err
	case <-expired:
		return fmt.Errorf("timed out")
	}
}

// command checks a command line and returns its action.
func command(args []string, timeout time.Duration, out io.Writer) (action, error) {
	switch cmd := args[0]; cmd {
	case "status":
		return func(gw *gateway.Client, done chan<- error) {
			gw.Status(timeout, func(text string, err error) {
				if err == nil {
					fmt.Fprint(out, text)
				}
				done <- err
			})
		}, nil
	case "put":
		if len(args) < 2 {
			return nil, fmt.Errorf("put needs content")
		}
		return func(gw *gateway.Client, done chan<- error) {
			gw.Put([]byte(args[1]), timeout, func(guid string, err error) {
				if err == nil {
					fmt.Fprintln(out, guid)
				}
				done <- err
			})
		}, nil
	case "get":
		if len(args) < 2 {
			return nil, fmt.Errorf("get needs a guid")
		}
		return func(gw *gateway.Client, done chan<- error) {
			gw.Get(args[1], timeout, func(data []byte, err error) {
				if err == nil {
					fmt.Fprintln(out, string(data))
				}
				done <- err
			})
		}, nil
	case "pub":
		if len(args) < 2 {
			return nil, fmt.Errorf("pub needs an event type")
		}
		ev := event.New(args[1], "glossctl", time.Duration(time.Now().UnixNano()))
		for _, kv := range args[2:] {
			eq := strings.Index(kv, "=")
			if eq <= 0 {
				return nil, fmt.Errorf("bad attribute %q, want k=v", kv)
			}
			k, v := kv[:eq], kv[eq+1:]
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				ev.Set(k, event.F(f))
			} else {
				ev.Set(k, event.S(v))
			}
		}
		ev.Stamp(uint64(time.Now().UnixNano()))
		return func(gw *gateway.Client, done chan<- error) {
			gw.EP.Send(gw.Target, &gateway.PubReq{Event: ev})
			gw.EP.Clock().After(300*time.Millisecond, func() { // let the frame flush
				fmt.Fprintln(out, "published", ev.Type)
				done <- nil
			})
		}, nil
	case "sub":
		if len(args) < 2 {
			return nil, fmt.Errorf("sub needs an event type")
		}
		return func(gw *gateway.Client, _ chan<- error) {
			gw.EP.Send(gw.Target, &gateway.SubReq{Filter: pubsub.NewFilter(pubsub.TypeIs(args[1]))})
			fmt.Fprintln(out, "subscribed to", args[1], "— ctrl-c to stop")
		}, nil
	case "deploy":
		if len(args) < 2 {
			return nil, fmt.Errorf("deploy needs a bundle XML file")
		}
		data, err := os.ReadFile(args[1])
		if err != nil {
			return nil, err
		}
		b, err := bundle.Unmarshal(data)
		if err != nil {
			return nil, err
		}
		return func(gw *gateway.Client, done chan<- error) {
			bundle.Deploy(gw.EP, gw.Target, b, timeout, func(err error) {
				if err == nil {
					fmt.Fprintln(out, "deployed", b.Name)
				}
				done <- err
			})
		}, nil
	default:
		return nil, fmt.Errorf("unknown command %q", cmd)
	}
}

func renderAttrs(ev *event.Event) string {
	parts := make([]string, 0, len(ev.Attrs))
	for _, name := range ev.Attrs.Names() {
		parts = append(parts, name+"="+ev.Attrs[name].String())
	}
	return strings.Join(parts, " ")
}
