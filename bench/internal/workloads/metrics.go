package workloads

// EndToEndMetric describes one of the benchmark's end-to-end metrics:
// what a user of the system would see.
type EndToEndMetric struct {
	Name string
	Unit string
	// Bound is the share by which the metric may worsen, or differ
	// between two runs of the same code, before it counts as a
	// regression. Zero means the value must repeat exactly.
	Bound float64
	// Traced says the metric is taken in the traced pass (from its
	// untraced part) and reported beside the per-layer metrics: it applies
	// to one workload only, or — the p90 — repeats too poorly on a busy
	// host to be held to a bound on every run.
	Traced bool
	// On lists the workloads the metric applies to; nil means all.
	On []string
}

// AppliesTo reports whether the metric is defined on the workload.
func (m EndToEndMetric) AppliesTo(workload string) bool {
	if m.On == nil {
		return true
	}
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

// ExactOn reports whether the metric must repeat exactly on the
// workload: virtual-time and byte counts of the simulated world.
func (m EndToEndMetric) ExactOn(workload string) bool {
	if workload != "world-sim" {
		return false
	}
	switch m.Name {
	case "journey_p50_ms", "journey_p90_ms", "failed_ratio", "wire_bytes_per_event", "kb_converge_ms", "store_repair_ms":
		return true
	}
	return false
}

var (
	onMobile = []string{"mobile-subs"}
	onStore  = []string{"store-mixed"}
	onWorld  = []string{"world-sim"}
)

// EndToEnd is the full list of end-to-end metrics with the bounds the
// self-check (-repeat 2 -check) holds two runs of the same code to: a
// quarter for wall-clock metrics on the noisy 2-vCPU hosts this runs on
// (the same bounds BENCHMARK.json gives the driver), a tenth for
// allocation counts, nothing for the simulated world's virtual-time and
// byte metrics. journey_* and capacity_eps also exist on store-mixed,
// where a journey is one 4 KiB object's Put → three holders → cold Get.
var EndToEnd = []EndToEndMetric{
	{Name: "setup_s", Unit: "s", Bound: 0.25},
	{Name: "journey_p50_ms", Unit: "ms", Bound: 0.25},
	{Name: "journey_p90_ms", Unit: "ms", Bound: 0.25, Traced: true},
	{Name: "capacity_eps", Unit: "1/s", Bound: 0.25},
	{Name: "cpu_us_per_event", Unit: "us", Bound: 0.25},
	{Name: "allocs_per_event", Unit: "count", Bound: 0.10},
	{Name: "alloc_bytes_per_event", Unit: "B", Bound: 0.10},
	{Name: "failed_ratio", Unit: "ratio", Bound: 0},
	{Name: "sub_apply_p50_ms", Unit: "ms", Bound: 0.25, Traced: true, On: onMobile},
	{Name: "put_p50_ms", Unit: "ms", Bound: 0.25, Traced: true, On: onStore},
	{Name: "put_durable_p50_ms", Unit: "ms", Bound: 0.25, Traced: true, On: onStore},
	{Name: "get_p50_ms", Unit: "ms", Bound: 0.25, Traced: true, On: onStore},
	{Name: "bulk_mibps", Unit: "MiB/s", Bound: 0.25, Traced: true, On: onStore},
	{Name: "wire_bytes_per_event", Unit: "B", Bound: 0, Traced: true, On: onWorld},
	{Name: "kb_converge_ms", Unit: "ms", Bound: 0, Traced: true, On: onWorld},
	{Name: "store_repair_ms", Unit: "ms", Bound: 0, Traced: true, On: onWorld},
}
