package bundle

import (
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"time"

	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/pubsub"
	"github.com/gloss/active/internal/vclock"
	"github.com/gloss/active/internal/wire"
)

// Program is a unit of deployed behaviour running in a security domain.
type Program interface {
	// Start begins execution. The domain is the program's only window
	// onto the host.
	Start(d *Domain) error
	// Stop halts execution and releases resources.
	Stop()
}

// Factory instantiates a program from bundle parameters and payload.
type Factory func(params map[string]string, data []byte) (Program, error)

// Registry maps program names to factories — the "code cache" bundles
// resolve against.
type Registry struct {
	factories map[string]Factory
}

// NewRegistry returns an empty program registry.
func NewRegistry() *Registry {
	return &Registry{factories: make(map[string]Factory)}
}

// Register adds a factory under name; re-registration replaces it.
func (r *Registry) Register(name string, f Factory) {
	r.factories[name] = f
}

// Names lists registered programs, sorted.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.factories))
	for n := range r.factories {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// New instantiates the named program.
func (r *Registry) New(name string, params map[string]string, data []byte) (Program, error) {
	f, ok := r.factories[name]
	if !ok {
		return nil, fmt.Errorf("bundle: unknown program %q", name)
	}
	return f(params, data)
}

// Domain is the security domain a program executes in: a capability-
// checked API surface plus a quota-bounded object store.
type Domain struct {
	name    string
	server  *ThinServer
	rights  map[Right]bool
	store   map[string][]byte
	used    int64
	quota   int64
	program Program
	onEvent func(*event.Event)
	// held releases the subscriptions the domain took through Subscribe.
	held []func()
	log  *slog.Logger
}

// ErrForbidden reports a capability violation.
var ErrForbidden = errors.New("bundle: capability denied")

// ErrQuota reports object-store quota exhaustion.
var ErrQuota = errors.New("bundle: object store quota exceeded")

// Name returns the domain (installation) name.
func (d *Domain) Name() string { return d.name }

// Clock exposes the host clock.
func (d *Domain) Clock() vclock.Clock { return d.server.ep.Clock() }

// Host returns the hosting node's info (for placement-aware programs).
func (d *Domain) Host() netapi.NodeInfo { return d.server.ep.Info() }

// Logger returns the domain's logger.
func (d *Domain) Logger() *slog.Logger { return d.log }

// PutObject stores a value in the domain object store (RightStore).
func (d *Domain) PutObject(key string, val []byte) error {
	if !d.rights[RightStore] {
		return fmt.Errorf("%w: store", ErrForbidden)
	}
	old := int64(len(d.store[key]))
	if d.used-old+int64(len(val)) > d.quota {
		return fmt.Errorf("%w: %d bytes", ErrQuota, d.quota)
	}
	d.used += int64(len(val)) - old
	d.store[key] = val
	return nil
}

// GetObject reads a value from the domain object store.
func (d *Domain) GetObject(key string) ([]byte, bool) {
	v, ok := d.store[key]
	return v, ok
}

// Emit publishes an event through the host (RightEmit).
func (d *Domain) Emit(ev *event.Event) error {
	if !d.rights[RightEmit] {
		return fmt.Errorf("%w: emit", ErrForbidden)
	}
	if d.server.emit != nil {
		d.server.emit(ev)
	}
	return nil
}

// OnEvent registers the program's event sink; the host delivers matching
// traffic here ("the primary API offered by the host to matchlets is an
// event delivery source and an event sink", §5).
func (d *Domain) OnEvent(h func(*event.Event)) { d.onEvent = h }

// Subscribe is the event delivery source of the same API: it asks the host
// to route events matching f to this node while the domain is installed.
// The subscription is released on Uninstall, or when Start fails.
func (d *Domain) Subscribe(f pubsub.Filter) {
	if d.server.subscribe != nil {
		d.held = append(d.held, d.server.subscribe(f))
	}
}

// release drops every subscription the domain holds.
func (d *Domain) release() {
	for _, r := range d.held {
		r()
	}
	d.held = nil
}

// Options configure a thin server.
type Options struct {
	// Secret is the HMAC key capabilities must be minted with.
	Secret []byte
	// TrustedKeys lists accepted bundle signers; empty accepts any
	// well-signed bundle (verification only proves integrity then).
	TrustedKeys []wire.Bytes
	// Logger receives diagnostics; nil discards.
	Logger *slog.Logger

	// domainQuota bounds each domain's object store. Default 256 KiB.
	// Not an option: only this package's tests move it.
	domainQuota int64
}

func (o *Options) applyDefaults() {
	if o.domainQuota == 0 {
		o.domainQuota = 256 << 10
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
}

// Stats counts thin-server activity.
type Stats struct {
	Installed     uint64
	Rejected      uint64
	Uninstalled   uint64
	ActiveDomains int
}

// ThinServer hosts security domains and accepts bundle deployments, both
// locally and over the network ("bundle.deploy" requests).
type ThinServer struct {
	ep        netapi.Endpoint
	reg       *Registry
	opts      Options
	log       *slog.Logger
	domains   map[string]*Domain
	order     []string // deterministic iteration
	emit      func(*event.Event)
	subscribe func(pubsub.Filter) (release func())
	stats     Stats
}

// NewThinServer builds a thin server on ep and registers its handlers.
func NewThinServer(ep netapi.Endpoint, reg *Registry, opts Options) *ThinServer {
	opts.applyDefaults()
	ts := &ThinServer{
		ep:      ep,
		reg:     reg,
		opts:    opts,
		log:     opts.Logger.With("node", ep.ID().Short()),
		domains: make(map[string]*Domain),
	}
	ep.Handle("bundle.deploy", ts.handleDeploy)
	ep.Handle("bundle.undeploy", ts.handleUndeploy)
	ep.Handle("bundle.list", ts.handleList)
	return ts
}

// SetEmitter wires domain Emit calls into the host (pipelines/pub-sub).
func (ts *ThinServer) SetEmitter(emit func(*event.Event)) { ts.emit = emit }

// SetSubscriber wires domain Subscribe calls into the host: subscribe takes
// the host's hold on a filter and returns the function that gives it back.
func (ts *ThinServer) SetSubscriber(subscribe func(pubsub.Filter) (release func())) {
	ts.subscribe = subscribe
}

// Stats returns a snapshot of counters. Must run on the server's
// owning goroutine: deployment state is confined to the endpoint's
// delivery loop.
//
//vetactive:ignore atomicstats actor-confined to the endpoint delivery goroutine
func (ts *ThinServer) Stats() Stats {
	s := ts.stats
	s.ActiveDomains = len(ts.domains)
	return s
}

// Domain returns the named domain, if installed.
func (ts *ThinServer) Domain(name string) (*Domain, bool) {
	d, ok := ts.domains[name]
	return d, ok
}

// Domains lists installed domain names in installation order.
func (ts *ThinServer) Domains() []string {
	out := make([]string, len(ts.order))
	copy(out, ts.order)
	return out
}

// LogicalPrograms returns the logical program name of each installed
// domain: the domain name up to the first '#'. Deployment engines name
// bundles "<logical>#<instance>" so that placement constraints can count
// instances per logical program.
func (ts *ThinServer) LogicalPrograms() []string {
	out := make([]string, 0, len(ts.order))
	for _, name := range ts.order {
		if i := strings.Index(name, "#"); i >= 0 {
			out = append(out, name[:i])
			continue
		}
		out = append(out, name)
	}
	return out
}

// Install verifies and runs a bundle locally.
func (ts *ThinServer) Install(b *Bundle) (*Domain, error) {
	if err := ts.verify(b); err != nil {
		ts.stats.Rejected++
		return nil, err
	}
	if _, exists := ts.domains[b.Name]; exists {
		ts.stats.Rejected++
		return nil, fmt.Errorf("bundle: domain %q already installed", b.Name)
	}
	rights := make(map[Right]bool)
	for _, c := range b.Capabilities {
		if c.Valid(ts.opts.Secret) {
			rights[c.Right] = true
		}
	}
	d := &Domain{
		name:   b.Name,
		server: ts,
		rights: rights,
		store:  make(map[string][]byte),
		quota:  ts.opts.domainQuota,
		log:    ts.log.With("domain", b.Name),
	}
	prog, err := ts.reg.New(b.Program, b.ParamMap(), b.Data)
	if err != nil {
		ts.stats.Rejected++
		return nil, err
	}
	d.program = prog
	if err := prog.Start(d); err != nil {
		d.release()
		ts.stats.Rejected++
		return nil, fmt.Errorf("bundle: start %q: %w", b.Name, err)
	}
	ts.domains[b.Name] = d
	ts.order = append(ts.order, b.Name)
	ts.stats.Installed++
	ts.log.Debug("installed", "domain", b.Name, "program", b.Program)
	return d, nil
}

// verify performs the arrival checks: signature, trust, deploy capability.
func (ts *ThinServer) verify(b *Bundle) error {
	if err := b.Verify(); err != nil {
		return err
	}
	if len(ts.opts.TrustedKeys) > 0 {
		trusted := false
		for _, k := range ts.opts.TrustedKeys {
			if string(k) == string(b.PublicKey) {
				trusted = true
				break
			}
		}
		if !trusted {
			return fmt.Errorf("bundle: signer of %q is not trusted", b.Name)
		}
	}
	if !b.HasCapability(ts.opts.Secret, RightDeploy) {
		return fmt.Errorf("%w: deploy capability missing or invalid for %q", ErrForbidden, b.Name)
	}
	return nil
}

// Uninstall stops and removes a domain.
func (ts *ThinServer) Uninstall(name string) error {
	d, ok := ts.domains[name]
	if !ok {
		return fmt.Errorf("bundle: no domain %q", name)
	}
	d.program.Stop()
	d.release()
	delete(ts.domains, name)
	for i, n := range ts.order {
		if n == name {
			ts.order = append(ts.order[:i], ts.order[i+1:]...)
			break
		}
	}
	ts.stats.Uninstalled++
	return nil
}

// Deliver pushes an event to every domain's event sink, in install order.
func (ts *ThinServer) Deliver(ev *event.Event) {
	for _, name := range ts.order {
		d := ts.domains[name]
		if d.onEvent != nil {
			d.onEvent(ev)
		}
	}
}

// --- network deployment ------------------------------------------------------

// DeployMsg requests installation of the carried bundle XML.
type DeployMsg struct {
	Bundle wire.Bytes `xml:"bundle"`
}

// Kind implements wire.Message.
func (DeployMsg) Kind() string { return "bundle.deploy" }

// UndeployMsg requests removal of a domain.
type UndeployMsg struct {
	Name string `xml:"name,attr"`
}

// Kind implements wire.Message.
func (UndeployMsg) Kind() string { return "bundle.undeploy" }

// ListMsg requests the installed domain names.
type ListMsg struct{}

// Kind implements wire.Message.
func (ListMsg) Kind() string { return "bundle.list" }

// DeployReply acknowledges a deploy/undeploy/list request.
type DeployReply struct {
	OK      bool     `xml:"ok,attr"`
	Err     string   `xml:"err,attr,omitempty"`
	Domains []string `xml:"domain,omitempty"`
}

// Kind implements wire.Message.
func (DeployReply) Kind() string { return "bundle.reply" }

// RegisterMessages records deployment message types in a wire registry.
// Deployments are rare control-plane operations carrying XML bundle
// documents; a binary fast path would save nothing measurable.
//
//vetactive:xmlfallback rare control-plane kinds, payload is XML anyway
func RegisterMessages(r *wire.Registry) {
	r.Register(&DeployMsg{})
	r.Register(&UndeployMsg{})
	r.Register(&ListMsg{})
	r.Register(&DeployReply{})
}

func (ts *ThinServer) handleDeploy(ctx netapi.Ctx, _ ids.ID, msg wire.Message) {
	dm := msg.(*DeployMsg)
	b, err := Unmarshal(dm.Bundle)
	if err != nil {
		ctx.Reply(&DeployReply{OK: false, Err: err.Error()})
		return
	}
	if _, err := ts.Install(b); err != nil {
		ctx.Reply(&DeployReply{OK: false, Err: err.Error()})
		return
	}
	ctx.Reply(&DeployReply{OK: true})
}

func (ts *ThinServer) handleUndeploy(ctx netapi.Ctx, _ ids.ID, msg wire.Message) {
	um := msg.(*UndeployMsg)
	if err := ts.Uninstall(um.Name); err != nil {
		ctx.Reply(&DeployReply{OK: false, Err: err.Error()})
		return
	}
	ctx.Reply(&DeployReply{OK: true})
}

func (ts *ThinServer) handleList(ctx netapi.Ctx, _ ids.ID, _ wire.Message) {
	ctx.Reply(&DeployReply{OK: true, Domains: ts.Domains()})
}

// Deploy sends a bundle to a remote thin server and reports the outcome.
func Deploy(ep netapi.Endpoint, target ids.ID, b *Bundle, timeout time.Duration, cb func(error)) {
	data, err := Marshal(b)
	if err != nil {
		cb(err)
		return
	}
	ep.Request(target, &DeployMsg{Bundle: data}, timeout, func(reply wire.Message, err error) {
		if err != nil {
			cb(err)
			return
		}
		r, ok := reply.(*DeployReply)
		if !ok {
			cb(fmt.Errorf("bundle: unexpected reply %T", reply))
			return
		}
		if !r.OK {
			cb(errors.New(r.Err))
			return
		}
		cb(nil)
	})
}
