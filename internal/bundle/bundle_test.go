package bundle

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/pubsub"
	"github.com/gloss/active/internal/simnet"
	"github.com/gloss/active/internal/wire"
)

// testProgram records lifecycle calls and echoes events.
type testProgram struct {
	params  map[string]string
	data    []byte
	started bool
	stopped bool
	events  []*event.Event
}

func (p *testProgram) Start(d *Domain) error {
	p.started = true
	d.OnEvent(func(ev *event.Event) { p.events = append(p.events, ev) })
	return nil
}

func (p *testProgram) Stop() { p.stopped = true }

// deterministic key material for tests.
func testKeys(t *testing.T, seed string) (ed25519.PublicKey, ed25519.PrivateKey) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(len(seed)) + int64(seed[0])))
	buf := make([]byte, ed25519.SeedSize)
	rng.Read(buf)
	priv := ed25519.NewKeyFromSeed(buf)
	return priv.Public().(ed25519.PublicKey), priv
}

func testServer(t *testing.T, secret []byte, trusted ...wire.Bytes) (*simnet.World, *ThinServer, *Registry, *testProgram) {
	t.Helper()
	w := simnet.NewWorld(simnet.Config{Seed: 1})
	node := w.NewNode(ids.FromString("server"), "eu", netapi.Coord{})
	reg := NewRegistry()
	prog := &testProgram{}
	reg.Register("test.echo", func(params map[string]string, data []byte) (Program, error) {
		prog.params = params
		prog.data = data
		return prog, nil
	})
	reg.Register("test.failing", func(map[string]string, []byte) (Program, error) {
		return nil, fmt.Errorf("factory exploded")
	})
	ts := NewThinServer(node, reg, Options{Secret: secret, TrustedKeys: trusted})
	return w, ts, reg, prog
}

func signedBundle(t *testing.T, secret []byte, name, program string) *Bundle {
	t.Helper()
	pub, priv := testKeys(t, "signer")
	b := &Bundle{
		Name:    name,
		Program: program,
		Params:  []Param{{Key: "rate", Value: "5"}},
		Data:    []byte("<rule/>"),
		Capabilities: []Capability{
			MintCapability(secret, RightDeploy, 1),
			MintCapability(secret, RightStore, 2),
			MintCapability(secret, RightEmit, 3),
		},
	}
	if err := b.Sign(pub, priv); err != nil {
		t.Fatalf("sign: %v", err)
	}
	return b
}

func TestXMLRoundTrip(t *testing.T) {
	secret := []byte("s3cret")
	b := signedBundle(t, secret, "m1", "test.echo")
	data, err := Marshal(b)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if !strings.HasPrefix(string(data), "<bundle ") {
		t.Fatalf("not an XML packet: %s", data[:40])
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if err := got.Verify(); err != nil {
		t.Fatalf("verify after round trip: %v", err)
	}
	if got.ParamMap()["rate"] != "5" {
		t.Fatalf("params lost: %+v", got.Params)
	}
}

func TestTamperingDetected(t *testing.T) {
	secret := []byte("s3cret")
	b := signedBundle(t, secret, "m1", "test.echo")
	b.Program = "evil.program"
	if err := b.Verify(); err == nil {
		t.Fatalf("tampered bundle passed verification")
	}
}

func TestCapabilityForgeryRejected(t *testing.T) {
	good := []byte("real-secret")
	bad := []byte("wrong-secret")
	c := MintCapability(bad, RightDeploy, 7)
	if c.Valid(good) {
		t.Fatalf("capability minted with wrong secret accepted")
	}
	if !MintCapability(good, RightDeploy, 7).Valid(good) {
		t.Fatalf("genuine capability rejected")
	}
}

func TestInstallRunsProgram(t *testing.T) {
	secret := []byte("k")
	_, ts, _, prog := testServer(t, secret)
	b := signedBundle(t, secret, "m1", "test.echo")
	d, err := ts.Install(b)
	if err != nil {
		t.Fatalf("Install: %v", err)
	}
	if !prog.started {
		t.Fatalf("program not started")
	}
	if prog.params["rate"] != "5" || string(prog.data) != "<rule/>" {
		t.Fatalf("program config lost")
	}
	// Event delivery reaches the domain's sink.
	ts.Deliver(event.New("t", "s", 0).Stamp(1))
	if len(prog.events) != 1 {
		t.Fatalf("program received %d events", len(prog.events))
	}
	if d.Name() != "m1" {
		t.Fatalf("domain name %q", d.Name())
	}
}

func TestInstallRejectsMissingDeployCapability(t *testing.T) {
	secret := []byte("k")
	_, ts, _, _ := testServer(t, secret)
	pub, priv := testKeys(t, "signer")
	b := &Bundle{Name: "m", Program: "test.echo",
		Capabilities: []Capability{MintCapability([]byte("other"), RightDeploy, 1)}}
	if err := b.Sign(pub, priv); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.Install(b); !errors.Is(err, ErrForbidden) {
		t.Fatalf("err = %v, want ErrForbidden", err)
	}
	if ts.Stats().Rejected != 1 {
		t.Fatalf("rejection not counted")
	}
}

func TestInstallRejectsUntrustedSigner(t *testing.T) {
	secret := []byte("k")
	trustedPub, _ := testKeys(t, "trusted")
	_, ts, _, _ := testServer(t, secret, wire.Bytes(trustedPub))
	b := signedBundle(t, secret, "m1", "test.echo") // signed by "signer", not "trusted"
	if _, err := ts.Install(b); err == nil || !strings.Contains(err.Error(), "not trusted") {
		t.Fatalf("err = %v, want untrusted-signer rejection", err)
	}
}

func TestInstallRejectsDuplicateAndUnknownProgram(t *testing.T) {
	secret := []byte("k")
	_, ts, _, _ := testServer(t, secret)
	b := signedBundle(t, secret, "m1", "test.echo")
	if _, err := ts.Install(b); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.Install(b); err == nil {
		t.Fatalf("duplicate install accepted")
	}
	b2 := signedBundle(t, secret, "m2", "no.such.program")
	if _, err := ts.Install(b2); err == nil {
		t.Fatalf("unknown program accepted")
	}
	b3 := signedBundle(t, secret, "m3", "test.failing")
	if _, err := ts.Install(b3); err == nil || !strings.Contains(err.Error(), "factory exploded") {
		t.Fatalf("factory error not propagated: %v", err)
	}
}

func TestUninstallStopsProgram(t *testing.T) {
	secret := []byte("k")
	_, ts, _, prog := testServer(t, secret)
	b := signedBundle(t, secret, "m1", "test.echo")
	if _, err := ts.Install(b); err != nil {
		t.Fatal(err)
	}
	if err := ts.Uninstall("m1"); err != nil {
		t.Fatal(err)
	}
	if !prog.stopped {
		t.Fatalf("program not stopped")
	}
	if err := ts.Uninstall("m1"); err == nil {
		t.Fatalf("double uninstall accepted")
	}
	// Events no longer delivered.
	ts.Deliver(event.New("t", "s", 0).Stamp(2))
	if len(prog.events) != 0 {
		t.Fatalf("uninstalled program still receives events")
	}
}

func TestObjectStoreQuotaAndRights(t *testing.T) {
	secret := []byte("k")
	w := simnet.NewWorld(simnet.Config{Seed: 2})
	node := w.NewNode(ids.FromString("server"), "eu", netapi.Coord{})
	reg := NewRegistry()
	var dom *Domain
	reg.Register("grab", func(map[string]string, []byte) (Program, error) {
		return progFunc{start: func(d *Domain) error { dom = d; return nil }}, nil
	})
	ts := NewThinServer(node, reg, Options{Secret: secret, domainQuota: 10})
	pub, priv := testKeys(t, "signer")

	// With store right.
	b := &Bundle{Name: "a", Program: "grab", Capabilities: []Capability{
		MintCapability(secret, RightDeploy, 1), MintCapability(secret, RightStore, 2)}}
	if err := b.Sign(pub, priv); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.Install(b); err != nil {
		t.Fatal(err)
	}
	if err := dom.PutObject("x", []byte("12345")); err != nil {
		t.Fatalf("PutObject: %v", err)
	}
	if err := dom.PutObject("y", make([]byte, 6)); !errors.Is(err, ErrQuota) {
		t.Fatalf("quota not enforced: %v", err)
	}
	if err := dom.PutObject("x", make([]byte, 10)); err != nil {
		t.Fatalf("replacing within quota should work: %v", err)
	}
	if v, ok := dom.GetObject("x"); !ok || len(v) != 10 {
		t.Fatalf("GetObject: %v %v", v, ok)
	}
	// Emit without the right is forbidden.
	if err := dom.Emit(event.New("t", "s", 0)); !errors.Is(err, ErrForbidden) {
		t.Fatalf("emit without right: %v", err)
	}

	// Without store right.
	b2 := &Bundle{Name: "b", Program: "grab", Capabilities: []Capability{
		MintCapability(secret, RightDeploy, 3)}}
	if err := b2.Sign(pub, priv); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.Install(b2); err != nil {
		t.Fatal(err)
	}
	if err := dom.PutObject("z", []byte("1")); !errors.Is(err, ErrForbidden) {
		t.Fatalf("store without right: %v", err)
	}
}

type progFunc struct {
	start func(*Domain) error
}

func (p progFunc) Start(d *Domain) error { return p.start(d) }
func (p progFunc) Stop()                 {}

// TestDomainSubscriptionsFollowInstallation: the host holds a domain's
// filters from Subscribe until Uninstall, and a domain whose Start fails
// holds none.
func TestDomainSubscriptionsFollowInstallation(t *testing.T) {
	secret := []byte("k")
	w := simnet.NewWorld(simnet.Config{Seed: 3})
	node := w.NewNode(ids.FromString("server"), "eu", netapi.Coord{})
	reg := NewRegistry()
	gps := pubsub.NewFilter(pubsub.TypeIs("gps.location"))
	weather := pubsub.NewFilter(pubsub.TypeIs("weather.report"))
	reg.Register("two", func(map[string]string, []byte) (Program, error) {
		return progFunc{start: func(d *Domain) error {
			d.Subscribe(gps)
			d.Subscribe(weather)
			return nil
		}}, nil
	})
	reg.Register("fails", func(map[string]string, []byte) (Program, error) {
		return progFunc{start: func(d *Domain) error {
			d.Subscribe(gps)
			return errors.New("cannot start")
		}}, nil
	})
	ts := NewThinServer(node, reg, Options{Secret: secret})
	held := make(map[string]int)
	ts.SetSubscriber(func(f pubsub.Filter) func() {
		held[f.Key()]++
		return func() { held[f.Key()]-- }
	})

	if _, err := ts.Install(signedBundle(t, secret, "a", "two")); err != nil {
		t.Fatal(err)
	}
	if held[gps.Key()] != 1 || held[weather.Key()] != 1 {
		t.Fatalf("after install the host holds %v, want each filter once", held)
	}
	if _, err := ts.Install(signedBundle(t, secret, "b", "fails")); err == nil {
		t.Fatal("a program whose Start fails was installed")
	}
	if held[gps.Key()] != 1 {
		t.Fatalf("a failed Start left %d holds on its filter, want the other domain's 1", held[gps.Key()])
	}
	if err := ts.Uninstall("a"); err != nil {
		t.Fatal(err)
	}
	if held[gps.Key()] != 0 || held[weather.Key()] != 0 {
		t.Fatalf("after uninstall the host holds %v, want nothing", held)
	}
}

func TestRemoteDeploy(t *testing.T) {
	secret := []byte("k")
	w := simnet.NewWorld(simnet.Config{Seed: 3})
	serverNode := w.NewNode(ids.FromString("server"), "eu", netapi.Coord{})
	clientNode := w.NewNode(ids.FromString("client"), "us", netapi.Coord{X: 5000})
	reg := NewRegistry()
	reg.Register("test.echo", func(map[string]string, []byte) (Program, error) {
		return progFunc{start: func(*Domain) error { return nil }}, nil
	})
	ts := NewThinServer(serverNode, reg, Options{Secret: secret})
	b := signedBundle(t, secret, "remote-1", "test.echo")

	var deployErr error
	done := false
	Deploy(clientNode, serverNode.ID(), b, 5*time.Second, func(err error) {
		deployErr = err
		done = true
	})
	w.RunFor(10 * time.Second)
	if !done {
		t.Fatalf("deploy callback never fired")
	}
	if deployErr != nil {
		t.Fatalf("remote deploy: %v", deployErr)
	}
	if _, ok := ts.Domain("remote-1"); !ok {
		t.Fatalf("domain not installed remotely")
	}

	// A rejected bundle reports its error back.
	bad := signedBundle(t, []byte("wrong"), "remote-2", "test.echo")
	Deploy(clientNode, serverNode.ID(), bad, 5*time.Second, func(err error) { deployErr = err })
	w.RunFor(10 * time.Second)
	if deployErr == nil {
		t.Fatalf("bad bundle deployed without error")
	}

	// List over the network.
	var domains []string
	clientNode.Request(serverNode.ID(), &ListMsg{}, 5*time.Second, func(reply wire.Message, err error) {
		if err == nil {
			domains = reply.(*DeployReply).Domains
		}
	})
	w.RunFor(5 * time.Second)
	if len(domains) != 1 || domains[0] != "remote-1" {
		t.Fatalf("list = %v", domains)
	}

	// Undeploy over the network.
	clientNode.Send(serverNode.ID(), &UndeployMsg{Name: "remote-1"})
	w.RunFor(5 * time.Second)
	if _, ok := ts.Domain("remote-1"); ok {
		t.Fatalf("domain still installed after undeploy")
	}
}
