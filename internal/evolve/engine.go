package evolve

import (
	"fmt"
	"time"

	"github.com/gloss/active/internal/bundle"
	"github.com/gloss/active/internal/constraint"
	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/gauges"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/pubsub"
)

// BundleMaker constructs (and signs) the bundle that realises a program
// on a target node. Supplied by the host, which owns the signing keys and
// capability secrets.
type BundleMaker func(program string, target ids.ID, instance int) (*bundle.Bundle, error)

// EngineOptions configure the evolution engine.
type EngineOptions struct {
	// Constraints is the placement policy to enforce.
	Constraints *constraint.Set
	// MakeBundle realises program deployments.
	MakeBundle BundleMaker
}

const (
	// evalInterval is the re-evaluation period.
	evalInterval = 2 * time.Second
	// deployTimeout bounds one deployment attempt.
	deployTimeout = 5 * time.Second
)

// EngineStats counts evolution activity.
type EngineStats struct {
	AdvertsSeen    uint64
	DownsSeen      uint64
	LeavesSeen     uint64
	Evaluations    uint64
	ViolationsSeen uint64
	DeploysStarted uint64
	DeploysOK      uint64
	DeploysFailed  uint64
	NoCandidates   uint64
	Repaired       uint64 // violations that cleared after our deploys
}

// Engine is the (deployable, decentralised) evolution engine: it watches
// the resource event streams, evaluates the constraint set and deploys
// bundles to repair violations.
type Engine struct {
	ep     netapi.Endpoint
	client *pubsub.Client
	opts   EngineOptions
	state  *constraint.State

	inflight    map[string]int           // violation key → deployments in flight
	firstSeen   map[string]time.Duration // violation key → first observation
	deploySeq   int
	stats       EngineStats
	RepairTimes *gauges.Histogram
	stopped     bool
}

// NewEngine builds an evolution engine on ep's node.
func NewEngine(ep netapi.Endpoint, client *pubsub.Client, opts EngineOptions) *Engine {
	return &Engine{
		ep:          ep,
		client:      client,
		opts:        opts,
		state:       constraint.NewState(),
		inflight:    make(map[string]int),
		firstSeen:   make(map[string]time.Duration),
		RepairTimes: &gauges.Histogram{},
	}
}

// State exposes the engine's deployment view (read-only use expected).
func (e *Engine) State() *constraint.State { return e.state }

// Stats returns a snapshot of counters. Must run on the engine's
// owning goroutine: counters are mutated only inside subscription
// callbacks, which the client delivers on that same loop.
//
//vetactive:ignore atomicstats actor-confined; writers are delivery callbacks on the same loop
func (e *Engine) Stats() EngineStats { return e.stats }

// Start subscribes to the resource event streams and begins evaluating.
func (e *Engine) Start() {
	e.client.Subscribe(AdvertFilter(), func(ev *event.Event) {
		e.stats.AdvertsSeen++
		if ns, ok := NodeStateFromAdvert(ev); ok {
			// Preserve locally recorded deployments not yet visible in
			// the advert (adverts lag behind our own installs).
			if prev, exists := e.state.Node(ns.ID); exists {
				ns.Components = mergeComponents(prev.Components, ns.Components)
			}
			e.state.Upsert(ns)
		}
	})
	e.client.Subscribe(pubsub.NewFilter(pubsub.TypeIs(TypeDown)), func(ev *event.Event) {
		e.stats.DownsSeen++
		if id, err := ids.Parse(ev.GetString("node")); err == nil {
			e.state.MarkDead(id)
			e.evaluate()
		}
	})
	e.client.Subscribe(pubsub.NewFilter(pubsub.TypeIs(TypeLeaving)), func(ev *event.Event) {
		e.stats.LeavesSeen++
		if id, err := ids.Parse(ev.GetString("node")); err == nil {
			e.state.MarkDead(id)
			e.evaluate()
		}
	})
	var tick func()
	tick = func() {
		if e.stopped {
			return
		}
		e.evaluate()
		e.ep.Clock().After(evalInterval, tick)
	}
	e.ep.Clock().After(evalInterval, tick)
}

// Stop halts evaluation.
func (e *Engine) Stop() { e.stopped = true }

// mergeComponents unions two component lists preserving multiplicity of
// the larger count per program.
func mergeComponents(local, advertised []string) []string {
	count := make(map[string]int)
	for _, c := range advertised {
		count[c]++
	}
	localCount := make(map[string]int)
	for _, c := range local {
		localCount[c]++
	}
	out := append([]string(nil), advertised...)
	for prog, lc := range localCount {
		if extra := lc - count[prog]; extra > 0 {
			for i := 0; i < extra; i++ {
				out = append(out, prog)
			}
		}
	}
	return out
}

// evaluate runs one constraint pass and launches repairs.
func (e *Engine) evaluate() {
	if e.opts.Constraints == nil {
		return
	}
	e.stats.Evaluations++
	now := e.ep.Clock().Now()
	violations := e.opts.Constraints.Evaluate(e.state)
	open := make(map[string]bool, len(violations))
	for _, v := range violations {
		key := violationKey(v)
		open[key] = true
		if _, seen := e.firstSeen[key]; !seen {
			e.firstSeen[key] = now
			e.stats.ViolationsSeen++
		}
		e.repair(v, key)
	}
	// Violations that disappeared: record repair latency.
	for key, since := range e.firstSeen {
		if !open[key] {
			e.RepairTimes.Observe(now - since)
			e.stats.Repaired++
			delete(e.firstSeen, key)
		}
	}
}

func violationKey(v constraint.Violation) string {
	return v.Constraint + "|" + v.Program + "|" + v.Region
}

// repair deploys bundles to cover the violation's deficit.
func (e *Engine) repair(v constraint.Violation, key string) {
	if e.opts.MakeBundle == nil {
		return
	}
	need := v.Deficit - e.inflight[key]
	for i := 0; i < need; i++ {
		target, ok := e.pickCandidate(v.Program, v.Region)
		if !ok {
			e.stats.NoCandidates++
			return
		}
		e.deploySeq++
		b, err := e.opts.MakeBundle(v.Program, target, e.deploySeq)
		if err != nil {
			e.stats.DeploysFailed++
			return
		}
		e.inflight[key]++
		e.stats.DeploysStarted++
		// Optimistically record the placement so the same candidate is
		// not chosen twice; rolled back if the deploy fails.
		e.state.AddComponent(target, v.Program)
		bundle.Deploy(e.ep, target, b, deployTimeout, func(err error) {
			e.inflight[key]--
			if err != nil {
				e.stats.DeploysFailed++
				e.state.RemoveComponent(target, v.Program)
				return
			}
			e.stats.DeploysOK++
		})
	}
}

// pickCandidate selects the best node for a new instance: alive, in the
// region (when given), preferring nodes not yet running the program, then
// most spare CPU, then smallest ID (deterministic).
func (e *Engine) pickCandidate(program, region string) (ids.ID, bool) {
	candidates := e.state.AliveInRegion(region)
	if len(candidates) == 0 {
		return ids.Zero, false
	}
	best := -1
	better := func(i, j int) bool { // is i better than j
		a, b := candidates[i], candidates[j]
		ha, hb := a.HasComponent(program), b.HasComponent(program)
		if ha != hb {
			return !ha
		}
		if a.CPUFree != b.CPUFree {
			return a.CPUFree > b.CPUFree
		}
		return ids.Less(a.ID, b.ID)
	}
	for i := range candidates {
		if best == -1 || better(i, best) {
			best = i
		}
	}
	return candidates[best].ID, true
}

// Describe renders the engine's constraint set.
func (e *Engine) Describe() string {
	if e.opts.Constraints == nil {
		return "evolution engine (no constraints)"
	}
	return fmt.Sprintf("evolution engine enforcing %d constraints", e.opts.Constraints.Len())
}
