// Package gateway provides the administrative interface cmd/glossctl uses
// to drive a running active node over the network: store access, event
// publication, subscriptions and status, all proxied by the node on the
// caller's behalf (a thin client need not join the overlay itself).
package gateway

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/gloss/active/internal/core"
	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/pubsub"
	"github.com/gloss/active/internal/wire"
)

// PutReq stores content through the node.
type PutReq struct {
	Data wire.Bytes `xml:"data"`
}

// Kind implements wire.Message.
func (PutReq) Kind() string { return "gateway.put" }

// PutReply acknowledges a PutReq.
type PutReply struct {
	GUID string `xml:"guid,attr"`
	Err  string `xml:"err,attr,omitempty"`
}

// Kind implements wire.Message.
func (PutReply) Kind() string { return "gateway.putReply" }

// GetReq fetches an object through the node.
type GetReq struct {
	GUID string `xml:"guid,attr"`
}

// Kind implements wire.Message.
func (GetReq) Kind() string { return "gateway.get" }

// GetReply answers a GetReq.
type GetReply struct {
	Data wire.Bytes `xml:"data,omitempty"`
	Err  string     `xml:"err,attr,omitempty"`
}

// Kind implements wire.Message.
func (GetReply) Kind() string { return "gateway.getReply" }

// PubReq publishes an event onto the bus through the node.
type PubReq struct {
	Event *event.Event `xml:"event"`
}

// Kind implements wire.Message.
func (PubReq) Kind() string { return "gateway.pub" }

// SubReq subscribes the sender; matching events stream back as EventMsg.
type SubReq struct {
	Filter pubsub.Filter `xml:"filter"`
}

// Kind implements wire.Message.
func (SubReq) Kind() string { return "gateway.sub" }

// EventMsg carries a matched event to a gateway subscriber.
type EventMsg struct {
	Event *event.Event `xml:"event"`
}

// Kind implements wire.Message.
func (EventMsg) Kind() string { return "gateway.event" }

// StatusReq asks for a node status summary.
type StatusReq struct{}

// Kind implements wire.Message.
func (StatusReq) Kind() string { return "gateway.status" }

// StatusReply renders the node's state.
type StatusReply struct {
	Text string `xml:"text"`
}

// Kind implements wire.Message.
func (StatusReply) Kind() string { return "gateway.statusReply" }

// RegisterMessages records gateway message types in a wire registry.
// Gateway traffic is the client edge, not the broker fast path: volume
// is per-client-request, and the XML forms double as the external
// interop surface, so none of these kinds carry binary codecs.
//
//vetactive:xmlfallback client-edge kinds stay XML-only as the interop surface
func RegisterMessages(r *wire.Registry) {
	r.Register(&PutReq{})
	r.Register(&PutReply{})
	r.Register(&GetReq{})
	r.Register(&GetReply{})
	r.Register(&PubReq{})
	r.Register(&SubReq{})
	r.Register(&EventMsg{})
	r.Register(&StatusReq{})
	r.Register(&StatusReply{})
}

// Serve registers the gateway handlers on an active node.
func Serve(n *core.ActiveNode) {
	ep := n.Endpoint()
	ep.Handle("gateway.put", func(ctx netapi.Ctx, _ ids.ID, msg wire.Message) {
		req := msg.(*PutReq)
		n.Store.Put(req.Data, func(guid ids.ID, err error) {
			reply := &PutReply{GUID: guid.String()}
			if err != nil {
				reply.Err = err.Error()
			}
			ctx.Reply(reply)
		})
	})
	ep.Handle("gateway.get", func(ctx netapi.Ctx, _ ids.ID, msg wire.Message) {
		req := msg.(*GetReq)
		guid, err := ids.Parse(req.GUID)
		if err != nil {
			ctx.Reply(&GetReply{Err: err.Error()})
			return
		}
		n.Store.Get(guid, func(data []byte, err error) {
			reply := &GetReply{Data: data}
			if err != nil {
				reply.Err = err.Error()
			}
			ctx.Reply(reply)
		})
	})
	ep.Handle("gateway.pub", func(_ netapi.Ctx, _ ids.ID, msg wire.Message) {
		req := msg.(*PubReq)
		if req.Event != nil {
			n.Client.Publish(req.Event)
		}
	})
	ep.Handle("gateway.sub", func(_ netapi.Ctx, from ids.ID, msg wire.Message) {
		req := msg.(*SubReq)
		subscriber := from
		n.Client.Subscribe(req.Filter, func(ev *event.Event) {
			ep.Send(subscriber, &EventMsg{Event: ev})
		})
	})
	ep.Handle("gateway.status", func(ctx netapi.Ctx, _ ids.ID, _ wire.Message) {
		ctx.Reply(&StatusReply{Text: Status(n)})
	})
}

// Status renders a one-screen node summary.
func Status(n *core.ActiveNode) string {
	var b strings.Builder
	info := n.Info()
	fmt.Fprintf(&b, "node       %s\n", n.ID())
	fmt.Fprintf(&b, "region     %s (%.0f, %.0f)\n", info.Region, info.Coord.X, info.Coord.Y)
	fmt.Fprintf(&b, "overlay    joined=%v leaves=%d\n", n.Overlay.Joined(), len(n.Overlay.Leaves()))
	st := n.Store.Stats()
	fmt.Fprintf(&b, "store      objects=%d bytes=%d cache=%d/%dB\n",
		st.StoredObjects, st.StoredBytes, st.CacheObjects, st.CacheBytes)
	bs := n.Broker.Stats()
	fmt.Fprintf(&b, "broker     entries=%d pubs=%d delivers=%d\n",
		bs.TableEntries, bs.PubsReceived, bs.ClientDelivers)
	fmt.Fprintf(&b, "domains    %s\n", strings.Join(n.Server.Domains(), ", "))
	es := n.Engine.Stats()
	fmt.Fprintf(&b, "matching   rules=%d in=%d out=%d\n", es.Rules, es.EventsIn, es.Emitted)
	return b.String()
}

// Client is a thin glossctl-side helper speaking to one gateway node. Its
// calls send, so they run on EP's callback goroutine, as every send does;
// glossctl starts them inside Do.
type Client struct {
	EP     netapi.Endpoint
	Target ids.ID
}

// Put stores content and returns the GUID.
func (c *Client) Put(data []byte, timeout time.Duration, cb func(string, error)) {
	call(c, &PutReq{Data: data}, timeout, func(r *PutReply) (string, string) { return r.GUID, r.Err }, cb)
}

// Status fetches the node's status report.
func (c *Client) Status(timeout time.Duration, cb func(string, error)) {
	call(c, &StatusReq{}, timeout, func(r *StatusReply) (string, string) { return r.Text, "" }, cb)
}

// Get fetches an object by GUID hex.
func (c *Client) Get(guid string, timeout time.Duration, cb func([]byte, error)) {
	call(c, &GetReq{GUID: guid}, timeout, func(r *GetReply) ([]byte, string) { return r.Data, r.Err }, cb)
}

// call asks the gateway req and hands cb what read takes from an R reply:
// its value, or the error text the gateway answered with. No reply, or a
// reply of another shape, completes with an error.
func call[R wire.Message, T any](c *Client, req wire.Message, timeout time.Duration, read func(R) (T, string), cb func(T, error)) {
	c.EP.Request(c.Target, req, timeout, func(reply wire.Message, err error) {
		var v T
		r, ok := reply.(R)
		switch {
		case err != nil:
		case !ok:
			err = fmt.Errorf("gateway: unexpected reply %T", reply)
		default:
			if got, failure := read(r); failure != "" {
				err = errors.New(failure)
			} else {
				v = got
			}
		}
		cb(v, err)
	})
}
