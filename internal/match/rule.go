// Package match implements the paper's distributed contextual matching
// engine (§1.1, §4.2, §5): matchlets that accept events from the event
// distribution mechanism, correlate them against the knowledge base with
// spatial, temporal and logical conditions, and write synthesised
// higher-level events back onto the event bus — "distilling [a very high
// volume of items] down into a relatively small volume of meaningful
// events".
//
// Rules are fully declarative and XML-serialisable so they can travel in
// code bundles and be deployed onto thin servers, including for event
// types unknown at initial deployment (discovery matchlets, §5).
package match

import (
	"encoding/xml"
	"fmt"
	"time"

	"github.com/gloss/active/internal/pubsub"
)

// Binding unifies an event attribute with a rule variable.
type Binding struct {
	Attr string `xml:"attr,attr"`
	Var  string `xml:"var,attr"`
}

// Pattern describes one event stream the rule correlates.
type Pattern struct {
	// Alias names the matched event for $alias.attr references.
	Alias string `xml:"alias,attr"`
	// Filter selects the events belonging to this pattern.
	Filter pubsub.Filter `xml:"filter"`
	// Bind unifies attributes with variables; patterns sharing a
	// variable only join on events whose bound values are equal.
	Bind []Binding `xml:"bind"`
}

// Condition is one declarative predicate evaluated over the bindings, the
// knowledge base and the GIS layer. Type selects the semantics:
//
//	kb                  — fact (S,P,O) holds now (terms substituted)
//	nokb                — fact absent
//	kbBind              — bind Var to the object of the first fact
//	                      matching (S, P, ·); fails if none
//	cmp                 — Left Op Right over resolved terms
//	withinKm            — A and B within Km kilometres
//	bindNearestSelling  — bind Var to the nearest place selling Item
//	                      within Km of Near; fails if none
//	openFor             — place in Var open now and for ≥ MinMinutes
//	reachable           — subject at A can walk (SpeedKmH) to place Var
//	                      before it closes
type Condition struct {
	XMLName xml.Name `xml:"cond"`
	Type    string   `xml:"type,attr"`

	S string `xml:"s,attr,omitempty"`
	P string `xml:"p,attr,omitempty"`
	O string `xml:"o,attr,omitempty"`

	Left  string `xml:"left,attr,omitempty"`
	Op    string `xml:"op,attr,omitempty"`
	Right string `xml:"right,attr,omitempty"`

	A  string  `xml:"a,attr,omitempty"`
	B  string  `xml:"b,attr,omitempty"`
	Km float64 `xml:"km,attr,omitempty"`

	Item string `xml:"item,attr,omitempty"`
	Near string `xml:"near,attr,omitempty"`
	Var  string `xml:"var,attr,omitempty"`

	MinMinutes float64 `xml:"minMinutes,attr,omitempty"`
	SpeedKmH   float64 `xml:"speedKmH,attr,omitempty"`
}

// EmitAttr maps a synthesised event attribute to a term. Volatile attrs
// (timestamps, measurements) are excluded from the output-suppression key
// so that they do not defeat semantic deduplication.
type EmitAttr struct {
	Name     string `xml:"name,attr"`
	From     string `xml:"from,attr"`
	Volatile bool   `xml:"volatile,attr,omitempty"`
}

// Emit describes the synthesised event.
type Emit struct {
	Type  string     `xml:"type,attr"`
	Attrs []EmitAttr `xml:"attr"`
}

// Rule is a complete declarative matchlet specification.
type Rule struct {
	XMLName  xml.Name `xml:"rule"`
	Name     string   `xml:"name,attr"`
	WindowMs int64    `xml:"windowMs,attr"`
	// SuppressMs throttles semantically identical outputs: after the rule
	// emits an event, an identical one (same type and non-volatile
	// attributes) is suppressed for this long. 0 uses the rule window;
	// negative disables suppression.
	SuppressMs int64       `xml:"suppressMs,attr,omitempty"`
	Patterns   []Pattern   `xml:"pattern"`
	Where      []Condition `xml:"where>cond"`
	Emit       Emit        `xml:"emit"`
}

// Window returns the correlation window (default 5 minutes).
func (r *Rule) Window() time.Duration {
	if r.WindowMs <= 0 {
		return 5 * time.Minute
	}
	return time.Duration(r.WindowMs) * time.Millisecond
}

// Suppression returns the output-suppression window.
func (r *Rule) Suppression() time.Duration {
	if r.SuppressMs < 0 {
		return 0
	}
	if r.SuppressMs == 0 {
		return r.Window()
	}
	return time.Duration(r.SuppressMs) * time.Millisecond
}

// MarshalRule serialises a rule for transport in a bundle payload.
func MarshalRule(r *Rule) ([]byte, error) { return xml.Marshal(r) }

// UnmarshalRule parses a rule payload.
func UnmarshalRule(data []byte) (*Rule, error) {
	var r Rule
	if err := xml.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("match: parse rule: %w", err)
	}
	return &r, nil
}
