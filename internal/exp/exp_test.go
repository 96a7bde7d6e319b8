package exp

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// runQuick runs an experiment in quick mode and sanity-checks the table.
func runQuick(t *testing.T, name string, run func(bool) *Table) *Table {
	t.Helper()
	start := time.Now()
	table := run(true)
	t.Logf("%s finished in %.1fs\n%s", name, time.Since(start).Seconds(), table.Format())
	if len(table.Rows) == 0 {
		t.Fatalf("%s produced no rows", name)
	}
	for i, row := range table.Rows {
		if len(row) != len(table.Header) {
			t.Fatalf("%s row %d has %d cells, header has %d", name, i, len(row), len(table.Header))
		}
	}
	return table
}

// cellFloat parses a numeric cell (stripping %, ms suffixes).
func cellFloat(t *testing.T, cell string) float64 {
	t.Helper()
	s := strings.TrimSuffix(strings.TrimSpace(cell), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", cell, err)
	}
	return v
}

func TestTableFormat(t *testing.T) {
	tab := &Table{ID: "X", Title: "demo", Header: []string{"a", "bee"}}
	tab.AddRow("1", "2")
	out := tab.Format()
	if !strings.Contains(out, "X — demo") || !strings.Contains(out, "bee") {
		t.Fatalf("format: %s", out)
	}
}

// TestTableCell: a cell is addressed by its row's labels, and a lookup
// that matches no row, several rows or no column fails loudly.
func TestTableCell(t *testing.T) {
	tab := &Table{ID: "X", Header: []string{"path", "budget", "drop %"}}
	tab.AddRow("sim", "64KiB", "1.0")
	tab.AddRow("tcp", "64KiB", "2.0")
	tab.AddRow("tcp", "4MiB", "3.0")
	if got := tab.Cell("drop %", "path", "tcp", "budget", "4MiB"); got != "3.0" {
		t.Fatalf("Cell = %q, want 3.0", got)
	}
	for name, lookup := range map[string]func(){
		"missing row":    func() { tab.Cell("drop %", "path", "tcp", "budget", "frames-256 (legacy)") },
		"ambiguous row":  func() { tab.Cell("drop %", "path", "tcp") },
		"missing label":  func() { tab.Cell("drop %", "mode", "tcp") },
		"missing column": func() { tab.Cell("p99", "path", "sim") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: lookup did not panic", name)
				}
			}()
			lookup()
		}()
	}
}

func TestF1GlobalMatching(t *testing.T) {
	tab := runQuick(t, "F1", F1GlobalMatching)
	// Suggestions must exist and distillation must be strong.
	for _, row := range tab.Rows {
		if row[2] == "0" {
			t.Fatalf("no suggestions for %s users", row[0])
		}
		if cellFloat(t, row[3]) < 5 {
			t.Fatalf("distillation ratio too weak: %v", row)
		}
	}
}

func TestF2Pipelines(t *testing.T) {
	tab := runQuick(t, "F2", F2Pipelines)
	// All events delivered; inter-node slower than intra-node.
	intra := cellFloat(t, tab.Rows[0][4])
	inter := cellFloat(t, tab.Rows[2][4])
	if tab.Rows[0][3] != tab.Rows[0][2] {
		t.Fatalf("intra-node lost events: %v", tab.Rows[0])
	}
	if inter <= intra {
		t.Fatalf("inter-node (%v ms) should exceed intra-node (%v ms)", inter, intra)
	}
}

func TestF3Deployment(t *testing.T) {
	tab := runQuick(t, "F3", F3Deployment)
	for _, row := range tab.Rows {
		if row[1] != row[2] {
			t.Fatalf("deploys failed: %v", row)
		}
	}
}

func TestT1PlaxtonRouting(t *testing.T) {
	tab := runQuick(t, "T1", T1PlaxtonRouting)
	for _, row := range tab.Rows {
		if row[2] != "100.0%" {
			t.Fatalf("delivery below 100%%: %v", row)
		}
	}
	// Hops grow sub-linearly: 4x nodes must not mean 4x hops.
	h16 := cellFloat(t, tab.Rows[0][3])
	h64 := cellFloat(t, tab.Rows[1][3])
	if h64 > h16*3 {
		t.Fatalf("hops scaling looks linear: %v vs %v", h16, h64)
	}
}

func TestT2ReplicaResilience(t *testing.T) {
	tab := runQuick(t, "T2", T2ReplicaResilience)
	// At 50% staged failures, healing must beat no-healing.
	noHeal := cellFloat(t, tab.Rows[2][3])
	heal := cellFloat(t, tab.Rows[3][3])
	if heal < noHeal {
		t.Fatalf("healing made availability worse: %v vs %v", heal, noHeal)
	}
	if heal < 90 {
		t.Fatalf("healed availability too low: %v%%", heal)
	}
	if noHeal > 95 {
		t.Fatalf("no-healing availability suspiciously high (%v%%) — failure injection degenerate", noHeal)
	}
}

func TestT3PromiscuousCaching(t *testing.T) {
	tab := runQuick(t, "T3", T3PromiscuousCaching)
	offLat := cellFloat(t, tab.Rows[0][2])
	onLat := cellFloat(t, tab.Rows[1][2])
	if onLat >= offLat {
		t.Fatalf("cache did not cut latency: on=%v off=%v", onLat, offLat)
	}
	offRoot := cellFloat(t, tab.Rows[0][4])
	onRoot := cellFloat(t, tab.Rows[1][4])
	if onRoot >= offRoot {
		t.Fatalf("cache did not unload the origin: on=%v off=%v", onRoot, offRoot)
	}
}

func TestT4PubSubScaling(t *testing.T) {
	tab := runQuick(t, "T4", T4PubSubScaling)
	// Covering must shrink forwarded-subscription state, not change
	// deliveries.
	fwdOn := cellFloat(t, tab.Rows[0][4])
	fwdOff := cellFloat(t, tab.Rows[1][4])
	if fwdOn >= fwdOff {
		t.Fatalf("covering did not reduce forwarded subs: %v vs %v", fwdOn, fwdOff)
	}
	if tab.Rows[0][6] != tab.Rows[1][6] {
		t.Fatalf("covering changed deliveries: %v vs %v", tab.Rows[0][6], tab.Rows[1][6])
	}
}

func TestT5MatchThroughput(t *testing.T) {
	tab := runQuick(t, "T5", T5MatchThroughput)
	for _, row := range tab.Rows {
		if cellFloat(t, row[3]) < 1000 {
			t.Fatalf("throughput below 1k events/s: %v", row)
		}
	}
}

func TestT6EvolutionRepair(t *testing.T) {
	tab := runQuick(t, "T6", T6EvolutionRepair)
	for _, row := range tab.Rows {
		if row[2] == "setup failed" || row[2] == "0.00" {
			t.Fatalf("repair did not happen: %v", row)
		}
	}
	// Graceful departure repairs no slower than crash at the same
	// heartbeat (the crash pays the heartbeat-miss detection delay).
	crash := cellFloat(t, tab.Rows[0][2])
	graceful := cellFloat(t, tab.Rows[1][2])
	if graceful > crash {
		t.Fatalf("graceful (%v ms) slower than crash (%v ms)", graceful, crash)
	}
}

func TestT7PlacementPolicies(t *testing.T) {
	tab := runQuick(t, "T7", T7PlacementPolicies)
	// The latency policy must create extra remote copies…
	noneCopies := cellFloat(t, tab.Rows[0][4])
	latCopies := cellFloat(t, tab.Rows[2][4])
	if latCopies <= noneCopies {
		t.Fatalf("latency policy created no extra remote copies: %v vs %v", latCopies, noneCopies)
	}
	// …and cut first-access latency once chunks have migrated (t+8min),
	// versus the no-policy baseline.
	noneLate := cellFloat(t, tab.Rows[0][3])
	latLate := cellFloat(t, tab.Rows[2][3])
	if latLate >= noneLate {
		t.Fatalf("latency policy did not cut first-access latency: %v vs %v", latLate, noneLate)
	}
}

func TestT9MobilityHandoff(t *testing.T) {
	tab := runQuick(t, "T9", T9MobilityHandoff)
	naiveLost := cellFloat(t, tab.Rows[0][3])
	proxyLost := cellFloat(t, tab.Rows[1][3])
	if naiveLost == 0 {
		t.Fatalf("naive move lost nothing — experiment degenerate: %v", tab.Rows[0])
	}
	if proxyLost != 0 {
		t.Fatalf("proxy lost events: %v", tab.Rows[1])
	}
	if cellFloat(t, tab.Rows[1][4]) != 0 {
		t.Fatalf("proxy duplicated events: %v", tab.Rows[1])
	}
}

func TestT10Discovery(t *testing.T) {
	tab := runQuick(t, "T10", T10Discovery)
	for _, row := range tab.Rows {
		if row[4] != "1" {
			t.Fatalf("discovery installs != 1: %v", row)
		}
		if cellFloat(t, row[3]) == 0 {
			t.Fatalf("no post-install matches: %v", row)
		}
	}
}

func TestT16StoragePlane(t *testing.T) {
	tab := runQuick(t, "T16", T16StoragePlane)
	for _, row := range tab.Rows {
		for _, cell := range row {
			if cell == "setup failed" {
				t.Fatalf("scenario did not reach steady state: %v", row)
			}
		}
	}
	// The acceptance bar for coded repair: rebuilding one lost fragment
	// in-network must move ≥3x less storage-plane wire than the
	// whole-object re-copy ablation. The bar is held at the size the table
	// is published at (256 KiB over 24 nodes; the whole table takes under
	// a second): the ablation costs six fragment puts times the hops they
	// are routed over, and the quick world's 16 nodes give them too few
	// (≈1.2 each; 2.7x there).
	full := T16StoragePlane(false)
	erasure := cellFloat(t, full.Cell("wire KB", "repair", "erasure"))
	recopy := cellFloat(t, full.Cell("wire KB", "repair", "recopy"))
	if erasure*3 > recopy {
		t.Fatalf("erasure repair wire (%v KB) not 3x below re-copy (%v KB)", erasure, recopy)
	}
	// The quick rows are the ones BenchmarkE_T16_StoragePlane reports.
	if e, r := cellFloat(t, tab.Cell("wire KB", "repair", "erasure")), cellFloat(t, tab.Cell("wire KB", "repair", "recopy")); e*2 > r {
		t.Fatalf("quick: erasure repair wire (%v KB) not 2x below re-copy (%v KB)", e, r)
	}
}
