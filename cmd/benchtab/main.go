// Command benchtab regenerates every experiment table from
// EXPERIMENTS.md and prints them in paper-style form:
//
//	benchtab            # full-size experiments
//	benchtab -quick     # smaller worlds, faster
//	benchtab -only E-T3,E-T9
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/gloss/active/internal/exp"
)

func main() {
	var (
		quick = flag.Bool("quick", false, "shrink world sizes for a fast run")
		only  = flag.String("only", "", "comma-separated experiment IDs (e.g. E-T1,E-F2)")
	)
	flag.Parse()

	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[id] = true
		}
	}

	runners := []struct {
		id  string
		run func(bool) *exp.Table
	}{
		{"E-F1", exp.F1GlobalMatching},
		{"E-F2", exp.F2Pipelines},
		{"E-F3", exp.F3Deployment},
		{"E-T1", exp.T1PlaxtonRouting},
		{"E-T2", exp.T2ReplicaResilience},
		{"E-T3", exp.T3PromiscuousCaching},
		{"E-T4", exp.T4PubSubScaling},
		{"E-T5", exp.T5MatchThroughput},
		{"E-T6", exp.T6EvolutionRepair},
		{"E-T7", exp.T7PlacementPolicies},
		{"E-T8", exp.T8TypeProjection},
		{"E-T9", exp.T9MobilityHandoff},
		{"E-T10", exp.T10Discovery},
		{"E-T11", exp.T11WireFormat},
		{"E-T13", exp.T13Backpressure},
		{"E-T15", exp.T15ParallelFanout},
		{"E-T16", exp.T16StoragePlane},
		{"E-T17", exp.T17Knowledge},
	}
	ran := 0
	for _, r := range runners {
		if len(want) > 0 && !want[r.id] {
			continue
		}
		start := time.Now()
		table := r.run(*quick)
		fmt.Println(table.Format())
		fmt.Printf("(%s took %.1fs)\n\n", r.id, time.Since(start).Seconds())
		ran++
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "benchtab: no experiments matched -only")
		os.Exit(1)
	}
}
