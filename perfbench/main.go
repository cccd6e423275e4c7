// Command perfbench is the repository's end-to-end benchmark. One run
// executes one workload in this process, checks every output, and prints
// as its last line a JSON object with the end-to-end metrics (--trace 0)
// or the per-layer split (--trace 1) that BENCHMARK.json names.
//
//	go run . --workload sssp-fabric-ooc --seed 1 --seconds 10 --trace 0
//
// Workloads: sssp-fabric-ooc (SSSP on 8 GPNs over the crossbar with VMU
// spill and SSD page-ins, over a paged, partitioned container) and
// serve-mix (an open loop of cache hits and misses against the novad
// service, in process). README.md maps each per-layer metric to the
// end-to-end metric it should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	work     string // directory for containers and the span dump
	small    bool   // reduced inputs, for the smoke test
	corrupt  bool   // corrupt one cell's properties, for the smoke test
}

// outcome is one run's measurements before they are printed.
type outcome struct {
	m            map[string]float64
	tally        *tally
	tracer       *tracer
	samples      map[string]int
	setupSamples []float64
	cellSamples  []float64
}

func newOutcome() *outcome {
	return &outcome{m: map[string]float64{}, samples: map[string]int{}}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	o := &options{}
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "workload: sssp-fabric-ooc or serve-mix")
	flag.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&seconds, "seconds", 10, "measured seconds per phase")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer split from a traced run")
	flag.StringVar(&o.work, "work", filepath.Join(".bench_build", "work"), "scratch directory for containers and spans")
	flag.Parse()
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	res, rec, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"record": rec}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one workload and assembles the printed result and the
// record that goes with it.
func run(ctx context.Context, o *options) (*result, map[string]any, error) {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, nil, err
	}
	var out *outcome
	var err error
	switch o.workload {
	case wlBatch:
		out, err = runBatch(ctx, o)
	case wlServe:
		out, err = runServe(ctx, o)
	default:
		return nil, nil, fmt.Errorf("unknown workload %q (want %s or %s)", o.workload, wlBatch, wlServe)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	out.m["peak_rss_mb"] = peakRSSMB()
	out.m["ok_rate"] = out.tally.okRate()
	out.m["fail_rate"] = out.tally.failRate()
	// Set-up layers and counters recorded by the tracer default to the
	// median over the run's set-ups.
	for _, d := range perLayer {
		if _, ok := out.m[d.name]; ok {
			continue
		}
		if xs := out.tracer.durations(d.name); len(xs) > 0 {
			out.m[d.name] = median(xs)
		} else if xs := out.tracer.counts[d.name]; len(xs) > 0 {
			out.m[d.name] = median(xs)
		}
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
		spans := filepath.Join(o.work, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
		if err := out.tracer.write(spans); err != nil {
			return nil, nil, err
		}
	}
	res := &result{
		Correct:   out.tally.failed == 0,
		Attempted: out.tally.attempted,
		Failed:    out.tally.failed,
		Metrics:   map[string]metricOut{},
	}
	for _, d := range defs {
		v := out.m[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	rec := map[string]any{
		"workload":      o.workload,
		"seed":          o.seed,
		"seconds":       o.seconds.Seconds(),
		"trace":         o.trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"samples":       out.samples,
		"setup_samples": out.setupSamples,
		"cell_samples":  out.cellSamples,
		"errors":        out.tally.firstErrs,
	}
	return res, rec, nil
}
