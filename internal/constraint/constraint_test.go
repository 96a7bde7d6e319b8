package constraint

import (
	"strings"
	"testing"

	"github.com/gloss/active/internal/ids"
)

func node(name, region string, alive bool, comps ...string) NodeState {
	return NodeState{
		ID:         ids.FromString(name),
		Region:     region,
		Alive:      alive,
		Components: comps,
	}
}

func TestMinInstances(t *testing.T) {
	s := NewState()
	s.Upsert(node("n1", "eu", true, "replicator"))
	s.Upsert(node("n2", "eu", true, "replicator"))
	s.Upsert(node("n3", "us", true, "replicator"))
	s.Upsert(node("n4", "eu", false, "replicator")) // dead: does not count

	c := &MinInstances{Program: "replicator", Region: "eu", N: 5}
	vs := c.Evaluate(s)
	if len(vs) != 1 {
		t.Fatalf("violations = %d, want 1", len(vs))
	}
	if vs[0].Deficit != 3 || vs[0].Region != "eu" || vs[0].Program != "replicator" {
		t.Fatalf("violation: %+v", vs[0])
	}
	// Satisfied case.
	ok := &MinInstances{Program: "replicator", Region: "", N: 3}
	if vs := ok.Evaluate(s); len(vs) != 0 {
		t.Fatalf("unexpected violations: %v", vs)
	}
}

func TestMinInstancesCountsMultiplePerNode(t *testing.T) {
	s := NewState()
	s.Upsert(node("n1", "eu", true, "m", "m", "m"))
	c := &MinInstances{Program: "m", N: 3}
	if vs := c.Evaluate(s); len(vs) != 0 {
		t.Fatalf("three instances on one node should satisfy N=3: %v", vs)
	}
}

func TestSpread(t *testing.T) {
	s := NewState()
	s.Upsert(node("n1", "eu", true, "svc"))
	s.Upsert(node("n2", "us", true))
	s.Upsert(node("n3", "ap", true))
	c := &Spread{Program: "svc", MinRegions: 3}
	vs := c.Evaluate(s)
	if len(vs) != 2 {
		t.Fatalf("violations = %d, want 2 (two regions missing)", len(vs))
	}
	// Deterministic region order: ap before us.
	if vs[0].Region != "ap" || vs[1].Region != "us" {
		t.Fatalf("regions: %v, %v", vs[0].Region, vs[1].Region)
	}
	s.AddComponent(ids.FromString("n2"), "svc")
	s.AddComponent(ids.FromString("n3"), "svc")
	if vs := c.Evaluate(s); len(vs) != 0 {
		t.Fatalf("satisfied spread still violated: %v", vs)
	}
}

func TestColocate(t *testing.T) {
	s := NewState()
	s.Upsert(node("n1", "eu", true, "storelet", "probe"))
	s.Upsert(node("n2", "us", true, "storelet"))
	c := &Colocate{A: "storelet", B: "probe"}
	vs := c.Evaluate(s)
	if len(vs) != 1 || vs[0].Region != "us" || vs[0].Program != "probe" {
		t.Fatalf("violations: %+v", vs)
	}
}

func TestStateMutations(t *testing.T) {
	s := NewState()
	s.Upsert(node("n1", "eu", true, "a"))
	s.AddComponent(ids.FromString("n1"), "b")
	n, ok := s.Node(ids.FromString("n1"))
	if !ok || len(n.Components) != 2 {
		t.Fatalf("components: %+v", n)
	}
	s.RemoveComponent(ids.FromString("n1"), "a")
	if n.HasComponent("a") || !n.HasComponent("b") {
		t.Fatalf("remove failed: %+v", n.Components)
	}
	s.MarkDead(ids.FromString("n1"))
	if len(s.AliveInRegion("")) != 0 {
		t.Fatalf("dead node counted alive")
	}
	// Upsert after death revives with fresh state.
	s.Upsert(node("n1", "eu", true))
	if len(s.AliveInRegion("eu")) != 1 {
		t.Fatalf("revived node missing")
	}
}

func TestSetEvaluate(t *testing.T) {
	set := NewSet(
		&MinInstances{Program: "replicator", Region: "eu", N: 5},
		&Spread{Program: "matchlet", MinRegions: 2},
		&Colocate{A: "storelet", B: "probe"},
	)
	s := NewState()
	s.Upsert(node("n1", "eu", true, "storelet"))
	vs := set.Evaluate(s)
	if len(vs) < 2 {
		t.Fatalf("violations: %v", vs)
	}

	if got := strings.Join(set.Describe(), ";"); got != `minInstances(replicator, "eu", 5);spread(matchlet, 2 regions);colocate(probe with storelet)` {
		t.Fatalf("describe: %s", got)
	}
}

func TestUpsertIsolatesCallerSlice(t *testing.T) {
	s := NewState()
	comps := []string{"a"}
	n := NodeState{ID: ids.FromString("n"), Region: "eu", Alive: true, Components: comps}
	s.Upsert(n)
	comps[0] = "mutated"
	got, _ := s.Node(ids.FromString("n"))
	if got.Components[0] != "a" {
		t.Fatalf("state aliases caller slice")
	}
}
