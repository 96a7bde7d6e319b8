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
	"slices"
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

	selected, err := selectExperiments(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
	for _, e := range selected {
		start := time.Now()
		table := e.Run(*quick)
		fmt.Println(table.Format())
		fmt.Printf("(%s took %.1fs)\n\n", e.ID, time.Since(start).Seconds())
	}
}

// selectExperiments returns the experiments a comma-separated -only list
// names, in document order, or all of them for an empty list. An ID that
// names no experiment is an error.
func selectExperiments(only string) ([]exp.Experiment, error) {
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[id] = true
		}
	}
	if len(want) == 0 {
		return exp.Experiments, nil
	}
	var selected []exp.Experiment
	for _, e := range exp.Experiments {
		if want[e.ID] {
			selected = append(selected, e)
			delete(want, e.ID)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for id := range want {
			unknown = append(unknown, id)
		}
		slices.Sort(unknown)
		return nil, fmt.Errorf("unknown experiment IDs in -only: %s", strings.Join(unknown, ","))
	}
	return selected, nil
}
