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

	ran := 0
	for _, e := range exp.Experiments {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		start := time.Now()
		table := e.Run(*quick)
		fmt.Println(table.Format())
		fmt.Printf("(%s took %.1fs)\n\n", e.ID, time.Since(start).Seconds())
		ran++
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "benchtab: no experiments matched -only")
		os.Exit(1)
	}
}
