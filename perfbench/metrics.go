package main

import (
	"math"
	"slices"
	"sort"
	"syscall"
)

// metricDef declares one reported metric by its name and unit, as
// BENCHMARK.json lists them. README.md maps each per-layer metric to the
// end-to-end metric it should move and the workloads that exercise it; a
// workload prints 0 for a per-layer metric it does not exercise.
type metricDef struct{ name, unit string }

const (
	wlBatch = "sssp-fabric-ooc"
	wlServe = "serve-mix"
)

var allWorkloads = []string{wlBatch, wlServe}

// endToEnd are printed with --trace 0. Every workload reports each of
// them with a nonzero value.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cell_s_p50", "s"},
	{"sim_events_per_s", "1/s"},
	{"sim_cycles", "cycles"},
	{"peak_rss_mb", "MB"},
	{"ok_rate", "ratio"},
	{"job_p50_ms", "ms"},
	{"miss_p50_ms", "ms"},
}

// perLayer are printed with --trace 1, from the traced run.
var perLayer = []metricDef{
	// Set-up layers.
	{"graph.gen_s", "s"},
	{"graph.build_file_s", "s"},
	{"graph.paged_load_s", "s"},
	{"graph.pager_loads", "count"},
	{"graph.pager_bytes", "B"},
	{"service.register_s", "s"},

	// Per-cell host time, split in the order nova.Accelerator.RunContext
	// calls the layers.
	{"ref.seq_edges_s", "s"},
	{"graph.partition_s", "s"},
	{"core.build_s", "s"},
	{"core.run_s", "s"},
	{"stats.bag_s", "s"},
	{"stats.dump_records", "count"},
	{"nova.adapter_s", "s"},
	{"trace.cell_s_p50", "s"},
	{"trace.overhead_s", "s"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.windows", "count"},
	{"sim.barrier_share", "ratio"},
	{"cpu.samples", "count"},
	{"cpu.sim", "ratio"},
	{"cpu.core", "ratio"},
	{"cpu.mem", "ratio"},
	{"cpu.network", "ratio"},
	{"cpu.program", "ratio"},
	{"cpu.runtime", "ratio"},
	{"cpu.other", "ratio"},
	{"samples.cells", "count"},

	// Modelled counts of the measured cells.
	{"mem.cache_hit_rate", "ratio"},
	{"mem.vertex_useful_frac", "ratio"},
	{"mem.vertex_wasteful_frac", "ratio"},
	{"mem.edge_utilization", "ratio"},
	{"core.vmu.spills", "count"},
	{"core.vmu.direct_pushes", "count"},
	{"core.vmu.recovery_hit_rate", "ratio"},
	{"core.load_imbalance", "ratio"},
	{"network.inter_messages", "count"},
	{"network.avg_hops", "hops"},
	{"mem.ssd.partition_loads", "count"},
	{"mem.ssd.io_stall_cycles", "cycles"},

	// Serving.
	{"job_p90_ms", "ms"},
	{"hit_p50_ms", "ms"},
	{"slo_rate_per_s", "1/s"},
	{"slo_limit_ms", "ms"},
	{"service.submit_ms_p50", "ms"},
	{"service.done_ms_p50", "ms"},
	{"service.result_ms_p50", "ms"},
	{"stats.dump_json_s", "s"},
	{"service.hit_rate", "ratio"},
	{"service.rejects", "count"},
	{"loadgen.late_ms_p90", "ms"},
	{"samples.jobs", "count"},
	{"samples.hits", "count"},
	{"samples.misses", "count"},

	{"fail_rate", "ratio"},
}

// median returns the middle of the raw samples (mean of the two middle
// ones for an even count), or 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the sorted raw samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// geoMedian is the geometric mean, over the groups, of each group's
// median; empty groups are left out.
func geoMedian(groups map[string][]float64) float64 {
	var logSum float64
	n := 0
	for _, xs := range groups {
		if m := median(xs); m > 0 {
			logSum += math.Log(m)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

func countAll(groups map[string][]float64) int {
	n := 0
	for _, xs := range groups {
		n += len(xs)
	}
	return n
}

// tailSupported reports whether n raw samples leave at least ten beyond
// the q-quantile — the rule for the highest percentile worth reporting.
func tailSupported(n int, q float64) bool { return float64(n)*(1-q) >= 10 }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// peakRSSMB is the process's peak resident set (Linux reports ru_maxrss
// in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// tally counts attempted operations and the ones that failed a check.
type tally struct {
	attempted, failed int
	firstErrs         []string
}

func (t *tally) op(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.firstErrs) < 5 {
			t.firstErrs = append(t.firstErrs, err.Error())
		}
	}
}

func (t *tally) okRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.attempted-t.failed) / float64(t.attempted)
}

func (t *tally) failRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
