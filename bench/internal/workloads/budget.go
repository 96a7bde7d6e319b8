package workloads

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"github.com/gloss/active/bench/internal/stats"
	"github.com/gloss/active/bench/internal/trace"
)

// Layer names the budget uses for the spans the spy and the harness
// record. Handler and send spans arrive as "h:<kind>" / "s:<kind>";
// everything else is named by the harness directly.
const (
	layerInject    = "core.inject_wait_us"
	layerPublish   = "pubsub.client_publish_us"
	layerPubSelf   = "pubsub.pub_handler_self_us"
	layerDispatch  = "pubsub.client_dispatch_us"
	layerSend      = "transport.send_us"
	layerHop       = "transport.hop_us"
	layerLoopback  = "transport.loopback_us"
	layerPoolWait  = "pubsub.fanout_wait_us"
	layerMatchPut  = "match.put_us"
	layerFinal     = "core.final_handler_us"
	layerUnknown   = "core.unattributed_us"
	spanInject     = "inject"
	spanPublish    = "publish"
	spanMatchPut   = "match.put"
	spanFinal      = "final"
	handlerPrefix  = "h:"
	sendPrefix     = "s:"
	kindPub        = "pubsub.pub"
	kindDeliver    = "pubsub.deliver"
	kindSub        = "pubsub.sub"
	kindUnsub      = "pubsub.unsub"
	kindRoute      = "plaxton.route"
	kindReplicate  = "store.replicate"
	kindChunk      = "store.chunk"
	routedPutSpan  = handlerPrefix + kindRoute + "/store.put"
	routeSendStart = sendPrefix + kindRoute
	// routeForwardSpan collects every route handler that forwarded.
	routeForwardSpan = handlerPrefix + kindRoute + "+forward"
)

// layerOfSpan maps a recorded span name to the budget line its self
// time belongs to.
func layerOfSpan(name string) string {
	switch name {
	case spanInject:
		return layerInject
	case spanPublish:
		return layerPublish
	case spanMatchPut:
		return layerMatchPut
	case spanFinal:
		return layerFinal
	case handlerPrefix + kindPub:
		return layerPubSelf
	case handlerPrefix + kindDeliver:
		return layerDispatch
	}
	if strings.HasPrefix(name, sendPrefix) {
		return layerSend
	}
	return name
}

// journeyEnd marks one completed sampled journey on the recorder's clock.
type journeyEnd struct {
	id       int64
	due, end int64
	// lastNode restricts fan-out journeys to the branch that finished
	// last (the blocking one); -1 keeps every span.
	lastNode int16
}

// budget is the per-layer split of the sampled journeys.
type budget struct {
	layers   map[string][]float64 // per journey: ns attributed to the layer
	total    []float64            // per journey: end − due, ns
	coverage float64              // median, over journeys, of the share of the journey given to a named layer
}

// buildBudget attributes every sampled journey's [due, end] interval to
// the spans recorded for it: innermost span wins (self time), and the
// gaps between spans are hops, loopback inbox waits or fan-out queue
// waits depending on what follows them.
func buildBudget(rec *trace.Recorder, ends []journeyEnd) budget {
	spans := rec.Spans()
	byJourney := make(map[int64][]*trace.Span)
	for i := range spans {
		if s := &spans[i]; s.Journey >= 0 {
			byJourney[s.Journey] = append(byJourney[s.Journey], s)
		}
	}
	names := make(map[uint16]string)
	nameOf := func(id uint16) string {
		n, ok := names[id]
		if !ok {
			n = rec.NameOf(id)
			names[id] = n
		}
		return n
	}
	gap := func(prev, next *trace.Span) string {
		if next == nil {
			return layerUnknown
		}
		nn := nameOf(next.Name)
		switch {
		case strings.HasPrefix(nn, handlerPrefix):
			if prev != nil && prev.Node == next.Node {
				return layerLoopback
			}
			return layerHop
		case strings.HasPrefix(nn, sendPrefix):
			return layerPoolWait
		}
		return layerUnknown
	}
	b := budget{layers: make(map[string][]float64)}
	for _, je := range ends {
		var mine []*trace.Span
		for _, s := range byJourney[je.id] {
			if s.Start >= je.end || s.End == 0 {
				continue
			}
			if je.lastNode >= 0 && offBranch(nameOf(s.Name), s, je.lastNode) {
				continue
			}
			mine = append(mine, s)
		}
		bySpan, byGap := trace.Attribute(mine, je.due, je.end, gap)
		per := make(map[string]float64)
		for id, ns := range bySpan {
			per[layerOfSpan(nameOf(id))] += float64(ns)
		}
		for g, ns := range byGap {
			per[g] += float64(ns)
		}
		for l, ns := range per {
			b.layers[l] = append(b.layers[l], ns)
		}
		b.total = append(b.total, float64(je.end-je.due))
	}
	// A layer absent from a journey contributed zero to it.
	for l, xs := range b.layers {
		for len(xs) < len(b.total) {
			xs = append(xs, 0)
		}
		b.layers[l] = xs
	}
	// Every instant of a journey goes to exactly one line, so a journey's
	// lines sum to its length; what no span or known gap explains is the
	// unattributed line, and coverage is the rest.
	shares := make([]float64, 0, len(b.total))
	for j, total := range b.total {
		if total > 0 {
			unknown := 0.0
			if xs := b.layers[layerUnknown]; xs != nil {
				unknown = xs[j]
			}
			shares = append(shares, 1-unknown/total)
		}
	}
	b.coverage = stats.Median(shares)
	return b
}

// offBranch reports whether a span belongs to a fan-out branch other
// than the one ending at node last: deliveries handled on, or sent
// only to, other subscribers.
func offBranch(name string, s *trace.Span, last int16) bool {
	bit := uint64(1) << uint(last)
	switch name {
	case handlerPrefix + kindDeliver, spanFinal:
		return s.Node != last
	case sendPrefix + kindDeliver:
		return s.To&bit == 0
	}
	return false
}

// waiting marks the budget lines that are time between spans — nobody's
// busy time — as opposed to a layer's self time.
var waiting = map[string]bool{
	layerInject: true, layerHop: true, layerLoopback: true, layerPoolWait: true, layerUnknown: true,
}

// print writes the budget, largest share first, self times apart from waits.
func (b budget) print(p Params, title string) {
	if len(b.total) == 0 {
		p.logf("%s: no sampled journeys completed", title)
		return
	}
	med := stats.Median(b.total)
	type line struct {
		name string
		p50  float64
	}
	var lines []line
	for l, xs := range b.layers {
		lines = append(lines, line{l, stats.Median(xs)})
	}
	sort.Slice(lines, func(i, j int) bool {
		if lines[i].p50 != lines[j].p50 {
			return lines[i].p50 > lines[j].p50
		}
		return lines[i].name < lines[j].name
	})
	p.logf("%s: budget over %d sampled journeys, traced journey p50 %.1f µs, coverage %.2f (each line is its own median, so the lines need not sum to the journey's)",
		title, len(b.total), usOf(med), b.coverage)
	for _, kind := range []struct {
		title string
		wait  bool
	}{{"self time (a layer is busy)", false}, {"waiting (between spans)", true}} {
		p.logf(" %s", kind.title)
		for _, ln := range lines {
			if waiting[ln.name] == kind.wait {
				p.logf("  %-32s %9.1f µs  %5.1f %%", ln.name, usOf(ln.p50), 100*ln.p50/med)
			}
		}
	}
}

// invocation is one recorded span's self time, for per-call statistics.
type invocations map[string][]float64

// perInvocation nests the spans by containment on each node (a span
// lying inside another on the same node is its child: the sends a
// handler issues inline, the callbacks it runs) and returns every
// span's self time in ns, grouped by span name.
func perInvocation(rec *trace.Recorder) invocations {
	spans := rec.Spans()
	order := make([]int32, 0, len(spans))
	for i := range spans {
		spans[i].Parent = trace.NoParent
		if spans[i].End != 0 {
			order = append(order, int32(i))
		}
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := &spans[order[a]], &spans[order[b]]
		if x.Node != y.Node {
			return x.Node < y.Node
		}
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		return x.End > y.End
	})
	var stack []int32
	node := int16(-1)
	for _, i := range order {
		s := &spans[i]
		if s.Node != node {
			stack, node = stack[:0], s.Node
		}
		for len(stack) > 0 && spans[stack[len(stack)-1]].End < s.End {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			s.Parent = stack[len(stack)-1]
		}
		stack = append(stack, i)
	}
	self := trace.SelfTimes(spans)
	// A route handler that sent the frame on is overlay work; one that
	// did not was the key's root and ran the routed message's handler.
	forwarded := make(map[int32]bool)
	for _, i := range order {
		if p := spans[i].Parent; p >= 0 && strings.HasPrefix(rec.NameOf(spans[i].Name), routeSendStart) {
			forwarded[p] = true
		}
	}
	out := make(invocations)
	for _, i := range order {
		name := rec.NameOf(spans[i].Name)
		if forwarded[i] {
			name = routeForwardSpan
		}
		out[name] = append(out[name], float64(self[i]))
	}
	return out
}

// hopTimes pairs every handler span with the send that caused it (same
// journey, same kind, addressed to the handler's node, started before
// it) and returns the time from that Send's return to the handler's
// start: outbox wait, writev, socket, read, decode and inbox wait.
// Loopback pairs (a node sending to itself) are returned separately.
func hopTimes(rec *trace.Recorder) (remote, loopback []float64) {
	spans := rec.Spans()
	type key struct {
		journey int64
		kind    string
	}
	sends := make(map[key][]*trace.Span)
	for i := range spans {
		s := &spans[i]
		if s.Journey < 0 || s.End == 0 {
			continue
		}
		if name := rec.NameOf(s.Name); strings.HasPrefix(name, sendPrefix) {
			k := key{s.Journey, name[len(sendPrefix):]}
			sends[k] = append(sends[k], s)
		}
	}
	for i := range spans {
		h := &spans[i]
		if h.Journey < 0 || h.End == 0 {
			continue
		}
		name := rec.NameOf(h.Name)
		if !strings.HasPrefix(name, handlerPrefix) {
			continue
		}
		var best *trace.Span
		for _, s := range sends[key{h.Journey, name[len(handlerPrefix):]}] {
			if s.To&(1<<uint(h.Node)) != 0 && s.Start <= h.Start && (best == nil || s.Start > best.Start) {
				best = s
			}
		}
		if best == nil {
			continue
		}
		d := float64(h.Start - best.End)
		if d < 0 {
			d = 0 // the receiver began before the sender's SendMany returned
		}
		if best.Node == h.Node {
			loopback = append(loopback, d)
		} else {
			remote = append(remote, d)
		}
	}
	return remote, loopback
}

func (inv invocations) p50us(name string) (float64, int) {
	xs := inv[name]
	return usOf(stats.Median(xs)), len(xs)
}

func (inv invocations) maxUs(name string) float64 {
	m := 0.0
	for _, v := range inv[name] {
		if v > m {
			m = v
		}
	}
	return usOf(m)
}

// merged concatenates the samples of several span names.
func (inv invocations) merged(match func(name string) bool) []float64 {
	var out []float64
	for _, name := range slices.Sorted(maps.Keys(inv)) {
		if match(name) {
			out = append(out, inv[name]...)
		}
	}
	return out
}

// setLayerTimings fills the span-derived per-layer metrics every TCP
// workload shares.
func setLayerTimings(res *Result, rec *trace.Recorder, inv invocations) {
	sendsUs := inv.merged(func(n string) bool { return strings.HasPrefix(n, sendPrefix) })
	res.set("transport.send_us", usOf(stats.Median(sendsUs)), "us", len(sendsUs))
	remote, loop := hopTimes(rec)
	res.set("transport.hop_us", usOf(stats.Median(remote)), "us", len(remote))
	res.set("transport.loopback_us", usOf(stats.Median(loop)), "us", len(loop))
	v, n := inv.p50us(handlerPrefix + kindPub)
	res.set("pubsub.pub_handler_self_us", v, "us", n)
	v, n = inv.p50us(handlerPrefix + kindDeliver)
	res.set("pubsub.client_dispatch_us", v, "us", n)
	v, n = inv.p50us(handlerPrefix + kindSub)
	res.set("pubsub.sub_handler_us", v, "us", n)
	res.set("pubsub.sub_handler_max_us", inv.maxUs(handlerPrefix+kindSub), "us", n)
	v, n = inv.p50us(handlerPrefix + kindUnsub)
	res.set("pubsub.unsub_handler_us", v, "us", n)
	res.set("pubsub.unsub_handler_max_us", inv.maxUs(handlerPrefix+kindUnsub), "us", n)
	v, n = inv.p50us(spanMatchPut)
	res.set("match.put_us", v, "us", n)
	v, n = inv.p50us(spanInject)
	res.set("core.inject_wait_us", v, "us", n)
	if d := rec.Dropped(); d > 0 {
		res.fail(1, "trace buffer overflowed: %d spans dropped", d)
	}
}

// describe renders a Summary for the log.
func describe(s stats.Summary, unit string) string {
	if s.TailP == 0 {
		return fmt.Sprintf("p50 %.3f %s (n=%d)", s.P50, unit, s.N)
	}
	return fmt.Sprintf("p50 %.3f %s, p%g %.3f %s (n=%d)", s.P50, unit, s.TailP*100, s.Tail, unit, s.N)
}
