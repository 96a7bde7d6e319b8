// Package constraint implements the paper's active-pipe deployment
// policies (§4.4): "policies take the form of constraints over the
// placement of processing steps. For example, a constraint might specify
// that at least 5 pipeline components providing a data replication
// service must be deployed in parallel within a given geographical
// region." Constraints are declarative and evaluated, where they are
// declared, against a deployment state snapshot; violations feed the
// evolution engine, which repairs them by deploying or moving components.
package constraint

import (
	"fmt"
	"sort"

	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/netapi"
)

// NodeState is the evolution engine's view of one node.
type NodeState struct {
	ID     ids.ID
	Region string
	Coord  netapi.Coord
	Alive  bool
	// CPUFree and StorageFreeMB are advertised spare resources.
	CPUFree       float64
	StorageFreeMB int64
	// Components lists the program names installed on the node
	// (duplicate names allowed — multiple instances).
	Components []string
}

// HasComponent reports whether program runs on the node.
func (n *NodeState) HasComponent(program string) bool {
	for _, c := range n.Components {
		if c == program {
			return true
		}
	}
	return false
}

// State is a snapshot of the whole deployment.
type State struct {
	nodes map[ids.ID]*NodeState
	order []ids.ID
}

// NewState returns an empty deployment state.
func NewState() *State {
	return &State{nodes: make(map[ids.ID]*NodeState)}
}

// Upsert inserts or replaces a node's state.
func (s *State) Upsert(n NodeState) {
	if _, ok := s.nodes[n.ID]; !ok {
		s.order = append(s.order, n.ID)
		sort.Slice(s.order, func(i, j int) bool { return ids.Less(s.order[i], s.order[j]) })
	}
	cp := n
	cp.Components = append([]string(nil), n.Components...)
	s.nodes[n.ID] = &cp
}

// Node returns a node's state.
func (s *State) Node(id ids.ID) (*NodeState, bool) {
	n, ok := s.nodes[id]
	return n, ok
}

// MarkDead flips a node to dead (components remain recorded but count as
// gone for constraint evaluation).
func (s *State) MarkDead(id ids.ID) {
	if n, ok := s.nodes[id]; ok {
		n.Alive = false
	}
}

// AddComponent records an installation.
func (s *State) AddComponent(id ids.ID, program string) {
	if n, ok := s.nodes[id]; ok {
		n.Components = append(n.Components, program)
	}
}

// RemoveComponent records a removal (one instance).
func (s *State) RemoveComponent(id ids.ID, program string) {
	n, ok := s.nodes[id]
	if !ok {
		return
	}
	for i, c := range n.Components {
		if c == program {
			n.Components = append(n.Components[:i], n.Components[i+1:]...)
			return
		}
	}
}

// Nodes returns all node states in deterministic (ID) order.
func (s *State) Nodes() []*NodeState {
	out := make([]*NodeState, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.nodes[id])
	}
	return out
}

// AliveInRegion returns live nodes in a region ("" = anywhere).
func (s *State) AliveInRegion(region string) []*NodeState {
	var out []*NodeState
	for _, n := range s.Nodes() {
		if n.Alive && (region == "" || n.Region == region) {
			out = append(out, n)
		}
	}
	return out
}

// InstancesOf counts live instances of a program, optionally per region.
func (s *State) InstancesOf(program, region string) int {
	count := 0
	for _, n := range s.AliveInRegion(region) {
		for _, c := range n.Components {
			if c == program {
				count++
			}
		}
	}
	return count
}

// Violation reports one unmet constraint.
type Violation struct {
	// Constraint describes the violated constraint.
	Constraint string
	// Program is the component type that must be deployed/moved.
	Program string
	// Region restricts candidate nodes ("" = anywhere).
	Region string
	// Deficit is how many instances are missing.
	Deficit int
}

// String renders the violation for logs.
func (v Violation) String() string {
	return fmt.Sprintf("%s: need %d more %q in region %q", v.Constraint, v.Deficit, v.Program, v.Region)
}

// Constraint is a declarative placement requirement.
type Constraint interface {
	// Evaluate returns the violations present in state.
	Evaluate(s *State) []Violation
	// Describe renders the constraint for logs and documentation.
	Describe() string
}

// MinInstances requires at least N live instances of Program in Region
// ("" = anywhere) — the paper's worked example.
type MinInstances struct {
	Program string
	Region  string
	N       int
}

var _ Constraint = (*MinInstances)(nil)

// Evaluate implements Constraint.
func (c *MinInstances) Evaluate(s *State) []Violation {
	have := s.InstancesOf(c.Program, c.Region)
	if have >= c.N {
		return nil
	}
	return []Violation{{
		Constraint: c.Describe(),
		Program:    c.Program,
		Region:     c.Region,
		Deficit:    c.N - have,
	}}
}

// Describe implements Constraint.
func (c *MinInstances) Describe() string {
	return fmt.Sprintf("minInstances(%s, %q, %d)", c.Program, c.Region, c.N)
}

// Spread requires Program to run in at least MinRegions distinct regions.
type Spread struct {
	Program    string
	MinRegions int
}

var _ Constraint = (*Spread)(nil)

// Evaluate implements Constraint.
func (c *Spread) Evaluate(s *State) []Violation {
	regions := make(map[string]bool)
	empty := make(map[string]bool)
	for _, n := range s.Nodes() {
		if !n.Alive {
			continue
		}
		if n.HasComponent(c.Program) {
			regions[n.Region] = true
		} else {
			empty[n.Region] = true
		}
	}
	if len(regions) >= c.MinRegions {
		return nil
	}
	// Ask for one instance in some region lacking the program; the
	// planner picks a concrete node. Deterministic region choice.
	var candidates []string
	for r := range empty {
		if !regions[r] {
			candidates = append(candidates, r)
		}
	}
	sort.Strings(candidates)
	deficit := c.MinRegions - len(regions)
	var out []Violation
	for i := 0; i < deficit && i < len(candidates); i++ {
		out = append(out, Violation{
			Constraint: c.Describe(),
			Program:    c.Program,
			Region:     candidates[i],
			Deficit:    1,
		})
	}
	return out
}

// Describe implements Constraint.
func (c *Spread) Describe() string {
	return fmt.Sprintf("spread(%s, %d regions)", c.Program, c.MinRegions)
}

// Colocate requires every node running A to also run B (e.g. a probe
// beside every storelet).
type Colocate struct {
	A string
	B string
}

var _ Constraint = (*Colocate)(nil)

// Evaluate implements Constraint.
func (c *Colocate) Evaluate(s *State) []Violation {
	var out []Violation
	for _, n := range s.Nodes() {
		if n.Alive && n.HasComponent(c.A) && !n.HasComponent(c.B) {
			out = append(out, Violation{
				Constraint: c.Describe(),
				Program:    c.B,
				Region:     n.Region,
				Deficit:    1,
			})
		}
	}
	return out
}

// Describe implements Constraint.
func (c *Colocate) Describe() string {
	return fmt.Sprintf("colocate(%s with %s)", c.B, c.A)
}

// Set is an ordered collection of constraints.
type Set struct {
	constraints []Constraint
}

// NewSet builds a constraint set.
func NewSet(cs ...Constraint) *Set { return &Set{constraints: cs} }

// Add appends a constraint.
func (cs *Set) Add(c Constraint) { cs.constraints = append(cs.constraints, c) }

// Len returns the number of constraints.
func (cs *Set) Len() int { return len(cs.constraints) }

// Evaluate returns all violations across the set, in constraint order.
func (cs *Set) Evaluate(s *State) []Violation {
	var out []Violation
	for _, c := range cs.constraints {
		out = append(out, c.Evaluate(s)...)
	}
	return out
}

// Describe lists the constraints.
func (cs *Set) Describe() []string {
	out := make([]string, len(cs.constraints))
	for i, c := range cs.constraints {
		out[i] = c.Describe()
	}
	return out
}
