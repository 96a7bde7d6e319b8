package main

import (
	"context"
	"regexp"
	"testing"

	"github.com/gloss/active/bench/internal/workloads"
)

var nameRule = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmokeEmitsEveryNamedMetric runs every workload in both passes at
// smoke size and holds the result against BENCHMARK.json: every name is
// well-formed and used once, every end-to-end metric is produced — and
// is non-zero — by every workload's end-to-end pass, and every per-layer
// metric by at least one workload's traced pass. Oracles must pass.
func TestSmokeEmitsEveryNamedMetric(t *testing.T) {
	spec, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	check := func(kind, name string) {
		if !nameRule.MatchString(name) {
			t.Errorf("%s name %q is malformed", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	if len(spec.Workloads) != len(workloads.All()) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloads.All()))
	}
	for _, w := range spec.Workloads {
		check("workload", w.Name)
		have, ok := workloads.ByName(w.Name)
		if !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		} else if have.Why != w.Why {
			t.Errorf("workload %q: BENCHMARK.json's why differs from the harness's", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters", w.Name, len(w.Why))
		}
	}
	for _, m := range spec.EndToEnd {
		check("end-to-end", m.Name)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end %q needs a bound in (0, 0.25]", m.Name)
		}
	}
	for _, m := range spec.PerLayer {
		check("per-layer", m.Name)
	}

	set, err := RunSet(context.Background(), workloads.Params{Seed: 3, Seconds: 0.6, Smoke: true, OutDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	layered := map[string]bool{"failed_ratio": true} // derived from attempted/failed by the command
	for _, r := range set.Runs {
		for _, p := range r.Problems {
			t.Errorf("%s (traced=%v): %s", r.Workload, r.Traced, p)
		}
		if r.Attempted < 1 {
			t.Errorf("%s (traced=%v) attempted nothing", r.Workload, r.Traced)
		}
		if r.Traced {
			for name := range r.Metrics {
				layered[name] = true
			}
			continue
		}
		for _, m := range spec.EndToEnd {
			if v, ok := r.Metrics[m.Name]; !ok || v.Value <= 0 {
				t.Errorf("%s does not produce end-to-end metric %s (got %v)", r.Workload, m.Name, v.Value)
			}
		}
	}
	for _, m := range spec.PerLayer {
		if !layered[m.Name] {
			t.Errorf("no workload's traced pass produces per-layer metric %s", m.Name)
		}
	}
	for _, m := range workloads.EndToEnd {
		if !seen[m.Name] {
			t.Errorf("metric %s of the full list is missing from BENCHMARK.json", m.Name)
		}
	}
	if diffs := Compare(set, set); len(diffs) != 0 {
		t.Errorf("a set differs from itself: %v", diffs)
	}
}
