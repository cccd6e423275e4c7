package service_test

import (
	"context"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"nova"
	"nova/graph"
	"nova/internal/harness"
	"nova/internal/service"
	"nova/internal/sim"
)

// requestSchema parses API.md's POST /jobs request table into its keys:
// top-level fields map to nil, object fields to their documented keys.
func requestSchema(t *testing.T) map[string][]string {
	t.Helper()
	doc, err := os.ReadFile("../../API.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "### `POST /jobs`")
	_, section, ok2 := strings.Cut(section, "Request schema")
	if !ok || !ok2 {
		t.Fatal("API.md: no request schema")
	}
	row := regexp.MustCompile("^\\| `([a-z_]+)` \\| ([a-z?]+) \\| (.*)\\|$")
	key := regexp.MustCompile("`([a-z_]+)`")
	schema := map[string][]string{}
	inTable := false
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		m := row.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		var nested []string
		if strings.HasPrefix(m[2], "object") {
			for _, k := range key.FindAllStringSubmatch(m[3], -1) {
				nested = append(nested, k[1])
			}
		}
		schema[m[1]] = nested
	}
	if len(schema) == 0 {
		t.Fatal("API.md: request schema table not found")
	}
	return schema
}

// wireValues holds a valid value for every documented request key; the
// nova block also satisfies the knobs' mutual constraints.
var wireValues = map[string]map[string]any{
	"": {
		"engine": "nova", "workload": "bfs", "graph": "g", "root": 0,
		"pr_iters": 3, "timeout_ms": 60000, "max_events": 1 << 30, "no_cache": true,
	},
	"nova": {
		"gpns": 2, "pes_per_gpn": 2, "cache_bytes_per_pe": 4096, "active_buffer_entries": 16,
		"spill": "fifo", "fabric": "hierarchical", "topology": "ring", "coalesce_window": 16,
		"coalesce_capacity": 8, "mapping": "interleave", "seed": 3, "shards": 2,
		"out_of_core": true, "ssd_preset": "sata", "ssd_resident_pages": 64,
	},
	"polygraph": {"onchip_bytes": 4096, "force_slices": 3},
	"ligra":     {"threads": 2},
	"extmem":    {"ram_bytes": 4096, "partition_edges": 64, "ssd_preset": "sata"},
}

// TestWireSchemaMatchesAPIDoc: every key API.md documents decodes through
// the strict decoder (a request carrying all of them runs), and every
// JSON field of the request types is documented.
func TestWireSchemaMatchesAPIDoc(t *testing.T) {
	schema := requestSchema(t)
	req := map[string]any{}
	for k, nested := range schema {
		if nested == nil {
			v, ok := wireValues[""][k]
			if !ok {
				t.Fatalf("API.md documents %q; add a test value", k)
			}
			req[k] = v
			continue
		}
		obj := map[string]any{}
		for _, nk := range nested {
			v, ok := wireValues[k][nk]
			if !ok {
				t.Fatalf("API.md documents %s.%s; add a test value", k, nk)
			}
			obj[nk] = v
		}
		req[k] = obj
	}

	documented := func(obj, field string) bool {
		if obj == "" {
			_, ok := schema[field]
			return ok
		}
		for _, k := range schema[obj] {
			if k == field {
				return true
			}
		}
		return false
	}
	checkTags := func(obj string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			if name != "-" && !documented(obj, name) {
				t.Errorf("%s field %q is on the wire but not in API.md's request schema", typ, name)
			}
		}
	}
	checkTags("", reflect.TypeOf(service.JobRequest{}))
	checkTags("nova", reflect.TypeOf(nova.Config{}))
	checkTags("polygraph", reflect.TypeOf(nova.PolyGraphBaseline{}))
	checkTags("ligra", reflect.TypeOf(nova.Software{}))
	checkTags("extmem", reflect.TypeOf(nova.ExternalMemory{}))

	_, ts := newTestServer(t, service.Config{})
	register(t, ts.URL, "g", buildCSR(t, 300))
	st := submitAndWait(t, ts.URL, req)
	if st.State != service.JobDone || st.Partial {
		t.Fatalf("full-schema request: %+v", st)
	}
}

// TestWireRejectsUnexposedKnobs: option fields kept off the wire stay
// unknown to the strict decoder.
func TestWireRejectsUnexposedKnobs(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	register(t, ts.URL, "g", buildCSR(t, 200))
	for name, extra := range map[string]map[string]any{
		"nova.superblock_dim":     {"nova": map[string]any{"superblock_dim": 64}},
		"nova.stall_timeout":      {"nova": map[string]any{"stall_timeout": 1}},
		"nova.max_events":         {"nova": map[string]any{"max_events": 1000}},
		"nova.observer":           {"nova": map[string]any{"observer": 1}},
		"polygraph.mem_bandwidth": {"polygraph": map[string]any{"mem_bandwidth": 1e9}},
		"extmem.max_rounds":       {"extmem": map[string]any{"max_rounds": 3}},
	} {
		req := map[string]any{"engine": "nova", "workload": "bfs", "graph": "g"}
		for k, v := range extra {
			req[k] = v
		}
		resp, body := postJSON(t, ts.URL+"/jobs", req)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "unknown field") {
			t.Errorf("%s: HTTP %d (%s), want 400 unknown field", name, resp.StatusCode, body)
		}
	}
}

// TestWireRejectsNegativeOptions: a negative size is a 400 naming the
// field, for the nova engine and the baselines alike.
func TestWireRejectsNegativeOptions(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	register(t, ts.URL, "g", buildCSR(t, 200))
	for _, c := range []struct {
		engine, block, key, field string
	}{
		{"nova", "nova", "pes_per_gpn", "PEsPerGPN"},
		{"nova", "nova", "cache_bytes_per_pe", "CacheBytesPerPE"},
		{"nova", "nova", "gpns", "GPNs"},
		{"polygraph", "polygraph", "onchip_bytes", "OnChipBytes"},
		{"ligra", "ligra", "threads", "Threads"},
		{"extmem", "extmem", "ram_bytes", "RAMBytes"},
	} {
		resp, body := postJSON(t, ts.URL+"/jobs", map[string]any{
			"engine": c.engine, "workload": "bfs", "graph": "g",
			c.block: map[string]any{c.key: -5},
		})
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), c.field) {
			t.Errorf("%s.%s = -5: HTTP %d (%s), want 400 naming %s", c.block, c.key, resp.StatusCode, body, c.field)
		}
	}
}

// TestNovaOptionsOverlayDefaults: options naming only a seed build the
// engine the Table II defaults with that seed build.
func TestNovaOptionsOverlayDefaults(t *testing.T) {
	const seed = 99
	got, err := service.BuildEngine(&service.JobRequest{Engine: "nova", Nova: &service.NovaOptions{Seed: seed}}, sim.NewInterrupt())
	if err != nil {
		t.Fatal(err)
	}
	cfg := nova.DefaultConfig()
	cfg.Seed = seed
	acc, err := nova.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := acc.Engine()
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("fingerprint %s, want %s", got.Fingerprint(), want.Fingerprint())
	}
	g := graph.GenRMAT("t", 9, 8, graph.DefaultRMAT, 16, 5)
	w := harness.Workload{Name: "sssp", G: g, Root: g.LargestOutDegreeVertex()}
	a, err := got.RunWorkload(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := want.RunWorkload(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats != b.Stats || !reflect.DeepEqual(a.Props, b.Props) {
		t.Fatalf("runs differ: %+v vs %+v", a.Stats, b.Stats)
	}
}
