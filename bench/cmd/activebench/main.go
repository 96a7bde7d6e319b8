// Command activebench is the repository's end-to-end benchmark. It boots
// the real stack in-process — core.ActiveNode over transport.Listen on
// loopback, or core.NewWorld on simnet — runs named workloads from one
// generator goroutine, checks every output against an oracle and prints
// every metric by name with its unit.
//
// Two ways to run it, from the bench directory:
//
//	go run ./cmd/activebench -seed 7 -out out/run.json      every workload, both passes
//	go run ./cmd/activebench -repeat 2 -check               … twice, and compare
//	go run ./cmd/activebench --workload ctx-chain --seed 7 --seconds 12 --trace 0
//
// The last form is the one BENCHMARK.json names: one workload, one pass,
// and a single JSON object as the last line of standard output.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"

	"github.com/gloss/active/bench/internal/workloads"
)

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload and print the one-line JSON result")
		seed     = flag.Int64("seed", 1, "seed of every generator")
		seconds  = flag.Float64("seconds", 0, "measured seconds per pass (default: run_seconds of BENCHMARK.json)")
		traced   = flag.Int("trace", 0, "with -workload: 0 = end-to-end pass, 1 = traced pass")
		out      = flag.String("out", "", "write the full result as JSON to this file")
		repeat   = flag.Int("repeat", 1, "run the whole set this many times")
		check    = flag.Bool("check", false, "with -repeat 2: fail if two runs differ by more than a metric's bound")
		smoke    = flag.Bool("smoke", false, "1/10 sizes and sub-second phases, for the unit tests")
	)
	flag.Parse()
	// The program under test keeps a live heap of a few MiB, so at the
	// default GOGC the collector would run dozens of times a second, and
	// how often would depend on how much the harness has recorded so far.
	// A ballast the collector never scans fixes the cycle at one per
	// ≈256 MiB allocated, whatever the harness holds.
	ballast := make([]byte, 256<<20)
	defer runtime.KeepAlive(ballast)
	if err := run(*workload, *seed, *seconds, *traced, *out, *repeat, *check, *smoke); err != nil {
		fmt.Fprintln(os.Stderr, "activebench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, traced int, out string, repeat int, check, smoke bool) error {
	spec, root, err := loadSpec()
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = float64(spec.RunSeconds)
		if smoke {
			seconds = 0.8
		}
	}
	outDir := filepath.Join(root, spec.Paths[0], "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("create %s: %w", outDir, err)
	}
	ctx := context.Background()
	if workload != "" {
		return contractRun(ctx, spec, workload, workloads.Params{
			Seed: seed, Seconds: seconds, Trace: traced == 1, Smoke: smoke, OutDir: outDir, Log: os.Stderr,
		})
	}

	var sets []*Set
	for r := 0; r < repeat; r++ {
		set, err := RunSet(ctx, workloads.Params{Seed: seed, Seconds: seconds, Smoke: smoke, OutDir: outDir, Log: os.Stderr})
		if err != nil {
			return err
		}
		set.Environment = environment(root, seed, seconds)
		set.Print(os.Stdout)
		sets = append(sets, set)
	}
	if out != "" {
		data, err := json.MarshalIndent(sets, "", "  ")
		if err != nil {
			return fmt.Errorf("encode result: %w", err)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("write result: %w", err)
		}
	}
	failed := 0
	for _, s := range sets {
		failed += s.Failed()
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed their oracle", failed)
	}
	if check {
		if len(sets) < 2 {
			return errors.New("-check needs -repeat 2")
		}
		if diffs := Compare(sets[0], sets[1]); len(diffs) > 0 {
			return fmt.Errorf("two runs of the same code disagree:\n  %s", strings.Join(diffs, "\n  "))
		}
		fmt.Println("check: two runs agree within every metric's bound")
	}
	return nil
}

// Spec is BENCHMARK.json: the contract the benchmark is driven by.
type Spec struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []SpecMetric `json:"end_to_end"`
	PerLayer []SpecMetric `json:"per_layer"`
}

// SpecMetric is one metric entry of BENCHMARK.json.
type SpecMetric struct {
	Name  string   `json:"name"`
	Unit  string   `json:"unit"`
	Bound *float64 `json:"bound,omitempty"`
}

// loadSpec finds BENCHMARK.json in the working directory or one of its
// parents (go run -C bench runs the program inside bench/, go test
// inside the package's own directory).
func loadSpec() (*Spec, string, error) {
	for _, dir := range []string{".", "..", "../..", "../../.."} {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, "", fmt.Errorf("read BENCHMARK.json: %w", err)
		}
		var s Spec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, "", fmt.Errorf("parse BENCHMARK.json: %w", err)
		}
		if len(s.Paths) == 0 || s.RunSeconds <= 0 {
			return nil, "", errors.New("BENCHMARK.json names no paths or run_seconds")
		}
		return &s, dir, nil
	}
	return nil, "", errors.New("BENCHMARK.json not found in the working directory or its parents")
}

// contractRun is one workload, one pass, one line of JSON.
func contractRun(ctx context.Context, spec *Spec, name string, p workloads.Params) error {
	w, ok := workloads.ByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	res, err := w.Run(ctx, p)
	if err != nil {
		return err
	}
	for _, problem := range res.Problems {
		fmt.Fprintln(os.Stderr, "activebench: oracle:", problem)
	}
	wanted := spec.EndToEnd
	if p.Trace {
		wanted = spec.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Correct(), Attempted: max(res.Attempted, 1), Failed: res.Failed, Metrics: make(map[string]value)}
	res.Metrics["failed_ratio"] = workloads.Metric{Value: float64(res.Failed) / float64(line.Attempted)}
	for _, m := range wanted {
		got, ok := res.Metrics[m.Name]
		if !ok && !p.Trace {
			return fmt.Errorf("workload %s did not produce end-to-end metric %s", name, m.Name)
		}
		// A layer the workload never enters reports zero: that it stays
		// idle there is the measurement.
		if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			got.Value = 0
		}
		line.Metrics[m.Name] = value{got.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(data))
	if !res.Correct() {
		return fmt.Errorf("%d of %d operations failed their oracle", res.Failed, res.Attempted)
	}
	return nil
}

// Environment records where and how a set of runs was taken.
type Environment struct {
	GitSHA     string  `json:"git_sha"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

func environment(root string, seed int64, seconds float64) Environment {
	sha := "unknown"
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if b, err := cmd.Output(); err == nil {
		sha = strings.TrimSpace(string(b))
	}
	return Environment{GitSHA: sha, NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Seed: seed, Seconds: seconds}
}

// Set is every workload run once in both passes.
type Set struct {
	Environment Environment         `json:"environment"`
	Runs        []*workloads.Result `json:"runs"`
}

// RunSet runs each workload's end-to-end pass, then its traced pass.
func RunSet(ctx context.Context, p workloads.Params) (*Set, error) {
	set := &Set{}
	for _, w := range workloads.All() {
		for _, traced := range []bool{false, true} {
			p.Trace = traced
			res, err := w.Run(ctx, p)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.Name, err)
			}
			set.Runs = append(set.Runs, res)
			runtime.GC()
		}
	}
	return set, nil
}

// Failed sums the operations that failed their oracle.
func (s *Set) Failed() int {
	n := 0
	for _, r := range s.Runs {
		n += r.Failed
	}
	return n
}

func (s *Set) result(workload string, traced bool) *workloads.Result {
	for _, r := range s.Runs {
		if r.Workload == workload && r.Traced == traced {
			return r
		}
	}
	return nil
}

// endToEnd looks up one end-to-end metric of one workload in the pass
// that measures it.
func (s *Set) endToEnd(m workloads.EndToEndMetric, workload string) (workloads.Metric, bool) {
	if !m.AppliesTo(workload) {
		return workloads.Metric{}, false
	}
	if m.Name == "failed_ratio" {
		a, b := s.result(workload, false), s.result(workload, true)
		if a == nil || b == nil {
			return workloads.Metric{}, false
		}
		attempted := max(a.Attempted+b.Attempted, 1)
		return workloads.Metric{Value: float64(a.Failed+b.Failed) / float64(attempted), Unit: m.Unit, Samples: attempted}, true
	}
	r := s.result(workload, m.Traced)
	if r == nil {
		return workloads.Metric{}, false
	}
	v, ok := r.Metrics[m.Name]
	return v, ok
}

// Print writes every metric by name with its unit: the end-to-end table
// first, then each workload's per-layer metrics.
func (s *Set) Print(w io.Writer) {
	e := s.Environment
	fmt.Fprintf(w, "activebench  git %s  nproc %d  GOMAXPROCS %d  %s  seed %d  %.1f s per pass\n",
		e.GitSHA, e.NProc, e.GoMaxProcs, e.GoVersion, e.Seed, e.Seconds)
	for _, wl := range workloads.All() {
		fmt.Fprintf(w, "\n%s — end to end\n", wl.Name)
		for _, m := range workloads.EndToEnd {
			if v, ok := s.endToEnd(m, wl.Name); ok {
				fmt.Fprintf(w, "  %-28s %16.4f %-6s n=%d\n", m.Name, v.Value, m.Unit, v.Samples)
			}
		}
		if r := s.result(wl.Name, false); r != nil {
			for _, k := range slices.Sorted(maps.Keys(r.Rates)) {
				fmt.Fprintf(w, "  rate %-23s %16.1f\n", k, r.Rates[k])
			}
		}
		r := s.result(wl.Name, true)
		if r == nil {
			continue
		}
		fmt.Fprintf(w, "%s — per layer (traced pass and replay)\n", wl.Name)
		for _, k := range slices.Sorted(maps.Keys(r.Metrics)) {
			v := r.Metrics[k]
			fmt.Fprintf(w, "  %-28s %16.4f %-6s n=%d\n", k, v.Value, v.Unit, v.Samples)
		}
		for _, problem := range r.Problems {
			fmt.Fprintf(w, "  PROBLEM %s\n", problem)
		}
	}
}

// Compare lists every end-to-end metric on which two sets of runs of
// the same code differ by more than its bound, or — for the simulated
// world's virtual-time and byte metrics — differ at all.
func Compare(a, b *Set) []string {
	var diffs []string
	for _, wl := range workloads.All() {
		for _, m := range workloads.EndToEnd {
			x, okx := a.endToEnd(m, wl.Name)
			y, oky := b.endToEnd(m, wl.Name)
			if !okx || !oky {
				continue
			}
			if m.ExactOn(wl.Name) {
				if x.Value != y.Value {
					diffs = append(diffs, fmt.Sprintf("%s %s: %v vs %v must repeat exactly", wl.Name, m.Name, x.Value, y.Value))
				}
				continue
			}
			base := math.Min(math.Abs(x.Value), math.Abs(y.Value))
			if base == 0 {
				if x.Value != y.Value {
					diffs = append(diffs, fmt.Sprintf("%s %s: %v vs %v", wl.Name, m.Name, x.Value, y.Value))
				}
				continue
			}
			if d := math.Abs(x.Value-y.Value) / base; d > m.Bound {
				diffs = append(diffs, fmt.Sprintf("%s %s: %.4f vs %.4f %s differ by %.1f %%, bound %.0f %%",
					wl.Name, m.Name, x.Value, y.Value, m.Unit, 100*d, 100*m.Bound))
			}
		}
	}
	return diffs
}
