// Package exp implements the experiment harness: one runner per table and
// figure in EXPERIMENTS.md. Each runner builds a deterministic world,
// drives the workload, and returns a Table with the same rows the
// documentation reports. Root-level benchmarks (bench_test.go) and
// cmd/benchtab both call into this package.
package exp

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Table is one experiment's result in paper-style row/column form.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	// Notes records measurement context (seeds, world sizes).
	Notes []string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Cell returns the value in column col of the one row whose label cells
// match where, given as header/value pairs (e.g. "path", "tcp/burst",
// "budget", "4MiB"). It panics when a header is unknown or the rows
// matching number other than one, so a table that gains, loses or
// reorders rows breaks its readers loudly instead of re-pointing them.
func (t *Table) Cell(col string, where ...string) string {
	if len(where)%2 != 0 {
		panic(fmt.Sprintf("%s: label list %q is not header/value pairs", t.ID, where))
	}
	index := func(header string) int {
		for i, h := range t.Header {
			if h == header {
				return i
			}
		}
		panic(fmt.Sprintf("%s: no column %q in %q", t.ID, header, t.Header))
	}
	var found []string
	for _, row := range t.Rows {
		match := true
		for i := 0; i < len(where); i += 2 {
			match = match && row[index(where[i])] == where[i+1]
		}
		if match {
			if found != nil {
				panic(fmt.Sprintf("%s: more than one row with %q", t.ID, where))
			}
			found = row
		}
	}
	if found == nil {
		panic(fmt.Sprintf("%s: no row with %q", t.ID, where))
	}
	return found[index(col)]
}

// Format renders the table with aligned columns.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// ms renders a duration in milliseconds with 2 decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
}

// f2 renders a float with 2 decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// f1 renders a float with 1 decimal.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// pct renders a ratio as a percentage.
func pct(num, den uint64) string {
	if den == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(num)/float64(den))
}

// meanDur averages a sample of durations.
func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// percentileDur returns the p-th percentile (0..100) of a sample.
func percentileDur(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p / 100 * float64(len(sorted)-1))
	return sorted[idx]
}

// Experiment is one table of EXPERIMENTS.md and the function that
// regenerates it. Quick mode shrinks world sizes for fast runs.
type Experiment struct {
	ID  string
	Run func(quick bool) *Table
}

// Experiments lists every experiment in document order.
var Experiments = []Experiment{
	{"E-F1", F1GlobalMatching},
	{"E-F2", F2Pipelines},
	{"E-F3", F3Deployment},
	{"E-T1", T1PlaxtonRouting},
	{"E-T2", T2ReplicaResilience},
	{"E-T3", T3PromiscuousCaching},
	{"E-T4", T4PubSubScaling},
	{"E-T5", T5MatchThroughput},
	{"E-T6", T6EvolutionRepair},
	{"E-T7", T7PlacementPolicies},
	{"E-T8", T8TypeProjection},
	{"E-T9", T9MobilityHandoff},
	{"E-T10", T10Discovery},
	{"E-T11", T11WireFormat},
	{"E-T13", T13Backpressure},
	{"E-T16", T16StoragePlane},
	{"E-T17", T17Knowledge},
}

// All runs every experiment and returns the tables in document order.
func All(quick bool) []*Table {
	tables := make([]*Table, 0, len(Experiments))
	for _, e := range Experiments {
		tables = append(tables, e.Run(quick))
	}
	return tables
}
