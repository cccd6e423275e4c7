package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"nova"
)

type benchFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func smallRun(t *testing.T, workload string, trace, corrupt bool) *result {
	t.Helper()
	o := &options{workload: workload, seed: 3, seconds: time.Second, trace: trace,
		work: t.TempDir(), small: true, corrupt: corrupt}
	res, _, err := run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMetricTablesMatchBenchmarkFile keeps the metric tables the program
// prints and BENCHMARK.json in step.
func TestMetricTablesMatchBenchmarkFile(t *testing.T) {
	bf := readBenchFile(t)
	check := func(kind string, file []struct{ Name, Unit string }, defs []metricDef) {
		if len(file) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(file), len(defs))
			return
		}
		for i, d := range defs {
			if file[i].Name != d.name || file[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, file[i].Name, file[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(allWorkloads) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, allWorkloads)
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload on reduced inputs,
// untraced and traced, and checks the printed metrics against
// BENCHMARK.json: every name present with its unit, end-to-end values
// nonzero, and the per-layer metrics the workload exercises nonzero where
// they count work that always happens.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	bf := readBenchFile(t)
	for _, w := range bf.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				res := smallRun(t, w.Name, trace, false)
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
				}
				want := bf.EndToEnd
				if trace {
					want = bf.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics, want %d", trace, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("trace=%v: missing %s", trace, m.Name)
					case got.Unit != m.Unit:
						t.Errorf("trace=%v: %s unit %q, want %q", trace, m.Name, got.Unit, m.Unit)
					case !trace && got.Value <= 0:
						t.Errorf("%s = %v, want > 0", m.Name, got.Value)
					}
				}
				if trace {
					for _, name := range []string{"sim.events", "samples.cells", "trace.cell_s_p50"} {
						if res.Metrics[name].Value <= 0 {
							t.Errorf("traced %s = %v, want > 0", name, res.Metrics[name].Value)
						}
					}
				}
			}
		})
	}
}

// TestCorruptedPropertiesRaiseFailRate corrupts one cell's property array
// before the oracle check; the run must count it as a failure.
func TestCorruptedPropertiesRaiseFailRate(t *testing.T) {
	for _, w := range []string{wlBatch, wlServe} {
		res := smallRun(t, w, true, true)
		if res.Correct || res.Failed == 0 || res.Metrics["fail_rate"].Value <= 0 {
			t.Errorf("%s: correct=%v failed=%d fail_rate=%v after corrupting a property array",
				w, res.Correct, res.Failed, res.Metrics["fail_rate"].Value)
		}
	}
}

// TestCoreConfigRefusesUntranslatedKnobs keeps the traced path's copy of
// the nova.Config translation honest: a knob it does not translate must
// fail the run instead of being dropped.
func TestCoreConfigRefusesUntranslatedKnobs(t *testing.T) {
	base := nova.DefaultConfig()
	if _, err := coreConfig(base); err != nil {
		t.Fatalf("default config: %v", err)
	}
	for name, edit := range map[string]func(*nova.Config){
		"spill":    func(c *nova.Config) { c.Spill = "fifo" },
		"fabric":   func(c *nova.Config) { c.Fabric = "ideal" },
		"mapping":  func(c *nova.Config) { c.Mapping = "locality" },
		"ssd":      func(c *nova.Config) { c.SSDPreset = "sata" },
		"coalesce": func(c *nova.Config) { c.CoalesceWindow = 16 },
		"events":   func(c *nova.Config) { c.MaxEvents = 1000 },
	} {
		c := base
		edit(&c)
		if _, err := coreConfig(c); err == nil {
			t.Errorf("%s: untranslated knob accepted", name)
		}
	}
}
