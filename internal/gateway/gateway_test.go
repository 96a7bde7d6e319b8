package gateway

import (
	"strings"
	"testing"
	"time"

	"github.com/gloss/active/internal/core"
	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/pubsub"
	"github.com/gloss/active/internal/simnet"
	"github.com/gloss/active/internal/wire"
)

// gwWorld boots a small world with a gateway on node 0 and a raw client
// endpoint that talks to it.
func gwWorld(t *testing.T) (*core.World, netapi.Endpoint) {
	t.Helper()
	w, err := core.NewWorld(core.WorldConfig{Seed: 31, Nodes: 6})
	if err != nil {
		t.Fatal(err)
	}
	Serve(w.Node(0))
	// A bare endpoint playing the part of glossctl.
	RegisterMessages(w.Reg)
	client := w.Sim.NewNode(ids.FromString("ctl"), "eu", netapi.Coord{})
	return w, client
}

func TestGatewayPutGet(t *testing.T) {
	w, client := gwWorld(t)
	gw := &Client{EP: client, Target: w.Node(0).ID()}

	var guid string
	var putErr error
	gw.Put([]byte("gateway payload"), 10*time.Second, func(g string, err error) {
		guid, putErr = g, err
	})
	w.RunFor(10 * time.Second)
	if putErr != nil {
		t.Fatalf("put: %v", putErr)
	}
	if guid == "" {
		t.Fatal("no guid returned")
	}
	var got []byte
	var getErr error
	gw.Get(guid, 10*time.Second, func(d []byte, err error) { got, getErr = d, err })
	w.RunFor(10 * time.Second)
	if getErr != nil {
		t.Fatalf("get: %v", getErr)
	}
	if string(got) != "gateway payload" {
		t.Fatalf("content: %q", got)
	}
	// Missing object reports an error.
	gw.Get(ids.FromString("nothing").String(), 10*time.Second, func(_ []byte, err error) { getErr = err })
	w.RunFor(15 * time.Second)
	if getErr == nil {
		t.Fatal("missing object did not error")
	}
}

func TestGatewayPubSub(t *testing.T) {
	w, client := gwWorld(t)
	target := w.Node(0).ID()

	var got []*event.Event
	client.Handle("gateway.event", func(_ netapi.Ctx, _ ids.ID, msg wire.Message) {
		got = append(got, msg.(*EventMsg).Event)
	})
	client.Send(target, &SubReq{Filter: pubsub.NewFilter(pubsub.TypeIs("gw.test"))})
	w.RunFor(3 * time.Second)

	ev := event.New("gw.test", "ctl", w.Sim.Now()).Set("n", event.I(7)).Stamp(1)
	client.Send(target, &PubReq{Event: ev})
	w.RunFor(3 * time.Second)
	if len(got) != 1 || got[0].GetNum("n") != 7 {
		t.Fatalf("streamed events: %d", len(got))
	}
	// The event also reached the wider bus (another node's client).
	seen := 0
	w.Node(3).Client.Subscribe(pubsub.NewFilter(pubsub.TypeIs("gw.test")), func(*event.Event) { seen++ })
	w.RunFor(2 * time.Second)
	client.Send(target, &PubReq{Event: event.New("gw.test", "ctl", w.Sim.Now()).Stamp(2)})
	w.RunFor(3 * time.Second)
	if seen != 1 {
		t.Fatalf("bus delivery: %d", seen)
	}
}

func TestGatewayStatus(t *testing.T) {
	w, client := gwWorld(t)
	var text string
	client.Request(w.Node(0).ID(), &StatusReq{}, 5*time.Second, func(reply wire.Message, err error) {
		if err != nil {
			t.Errorf("status: %v", err)
			return
		}
		text = reply.(*StatusReply).Text
	})
	w.RunFor(5 * time.Second)
	for _, want := range []string{"node", "overlay", "store", "broker", "matching"} {
		if !strings.Contains(text, want) {
			t.Fatalf("status missing %q:\n%s", want, text)
		}
	}
	if !strings.Contains(text, "joined=true") {
		t.Fatalf("node not joined per status:\n%s", text)
	}
}

// TestClientRepliesOfWrongShape: a gateway that answers with an empty
// reply, or with a message of another kind, makes every client call
// complete with an error instead of panicking.
func TestClientRepliesOfWrongShape(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reply wire.Message
	}{{"empty", nil}, {"wrong-kind", &StatusReq{}}} {
		t.Run(tc.name, func(t *testing.T) {
			w := simnet.NewWorld(simnet.Config{Seed: 1})
			server := w.NewNode(ids.FromString("gw"), "eu", netapi.Coord{})
			for _, kind := range []string{"gateway.put", "gateway.get", "gateway.status"} {
				server.Handle(kind, func(ctx netapi.Ctx, _ ids.ID, _ wire.Message) { ctx.Reply(tc.reply) })
			}
			gw := &Client{EP: w.NewNode(ids.FromString("ctl"), "eu", netapi.Coord{X: 1}), Target: server.ID()}
			var errs []error
			gw.Put([]byte("x"), time.Second, func(_ string, err error) { errs = append(errs, err) })
			gw.Get("00", time.Second, func(_ []byte, err error) { errs = append(errs, err) })
			gw.Status(time.Second, func(_ string, err error) { errs = append(errs, err) })
			w.RunFor(2 * time.Second)
			if len(errs) != 3 {
				t.Fatalf("%d of 3 calls completed", len(errs))
			}
			for i, err := range errs {
				if err == nil {
					t.Fatalf("call %d: no error for a %s reply", i, tc.name)
				}
			}
		})
	}
}
