package nova_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"nova"
	"nova/graph"
	"nova/internal/ref"
	"nova/program"
)

func smallConfig() nova.Config {
	cfg := nova.DefaultConfig()
	cfg.PEsPerGPN = 2
	cfg.GPNs = 2
	cfg.CacheBytesPerPE = 4 << 10
	cfg.SuperblockDim = 16
	cfg.ActiveBufferEntries = 16
	return cfg
}

func testGraph() *graph.CSR {
	return graph.GenRMAT("t", 9, 10, graph.DefaultRMAT, 16, 3)
}

func TestAcceleratorBFSReport(t *testing.T) {
	g := testGraph()
	root := g.LargestOutDegreeVertex()
	acc, err := nova.New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := acc.Run(program.NewBFS(root), g)
	if err != nil {
		t.Fatal(err)
	}
	if err := nova.Verify("bfs", g, root, rep.Props); err != nil {
		t.Fatal(err)
	}
	if rep.GTEPS(g) <= 0 {
		t.Fatal("no throughput reported")
	}
	if rep.Cycles == 0 || rep.Stats.SimSeconds <= 0 {
		t.Fatalf("report timing empty: %+v", rep.Stats)
	}
	if rep.EdgeUtilization <= 0 || rep.EdgeUtilization > 1.01 {
		t.Fatalf("edge utilization %v", rep.EdgeUtilization)
	}
}

func TestConfigErrors(t *testing.T) {
	bad := smallConfig()
	bad.Spill = "magic"
	if _, err := nova.New(bad); err == nil {
		t.Fatal("bad spill accepted")
	}
	bad = smallConfig()
	bad.Fabric = "telepathy"
	if _, err := nova.New(bad); err == nil {
		t.Fatal("bad fabric accepted")
	}
	bad = smallConfig()
	bad.Mapping = "vibes"
	if _, err := nova.New(bad); err == nil {
		t.Fatal("bad mapping accepted")
	}
	bad = smallConfig()
	bad.GPNs = -1
	if _, err := nova.New(bad); err == nil {
		t.Fatal("negative GPNs accepted")
	}
}

func TestAllMappingsCorrect(t *testing.T) {
	g := testGraph()
	root := g.LargestOutDegreeVertex()
	for _, mapping := range []string{"random", "interleave", "load-balanced", "locality"} {
		cfg := smallConfig()
		cfg.Mapping = mapping
		acc, err := nova.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := acc.Run(program.NewBFS(root), g)
		if err != nil {
			t.Fatalf("%s: %v", mapping, err)
		}
		if err := nova.Verify("bfs", g, root, rep.Props); err != nil {
			t.Fatalf("%s: %v", mapping, err)
		}
	}
}

func TestRunWorkloadAllFiveOnAllEngines(t *testing.T) {
	g := testGraph()
	gT := g.Transpose()
	sym := g.Symmetrize()
	root := g.LargestOutDegreeVertex()
	acc, err := nova.New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	pg := &nova.PolyGraphBaseline{ForceSlices: 3}
	engines := map[string]program.Runner{"nova": acc, "polygraph": pg}

	for engName, eng := range engines {
		for _, w := range nova.WorkloadNames {
			gw, gwT := g, gT
			if w == "cc" {
				gw, gwT = sym, sym
			}
			out, err := nova.RunWorkload(eng, w, gw, gwT, root, 5)
			if err != nil {
				t.Fatalf("%s/%s: %v", engName, w, err)
			}
			if out.Stats.SimSeconds <= 0 {
				t.Fatalf("%s/%s: no simulated time", engName, w)
			}
			// BC's denominator counts forward edges twice, while the
			// backward pass walks in-edges, so its ratio can exceed 1
			// slightly.
			weMax := 1.01
			if w == "bc" {
				weMax = 1.5
			}
			if we := out.WorkEfficiency(); we <= 0 || we > weMax {
				t.Fatalf("%s/%s: work efficiency %v", engName, w, we)
			}
			if out.EffectiveGTEPS() <= 0 {
				t.Fatalf("%s/%s: no throughput", engName, w)
			}
		}
	}
}

func TestEnginesAgreeOnResults(t *testing.T) {
	// NOVA and PolyGraph are different machines but must compute the
	// same answers.
	g := testGraph()
	root := g.LargestOutDegreeVertex()
	acc, _ := nova.New(smallConfig())
	pg := &nova.PolyGraphBaseline{ForceSlices: 4}
	a, err := nova.RunWorkload(acc, "sssp", g, nil, root, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := nova.RunWorkload(pg, "sssp", g, nil, root, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Props {
		if a.Props[v] != b.Props[v] {
			t.Fatalf("engines disagree at vertex %d: %d vs %d", v, a.Props[v], b.Props[v])
		}
	}
}

func TestSoftwareBaseline(t *testing.T) {
	g := testGraph()
	gT := g.Transpose()
	sym := g.Symmetrize()
	root := g.LargestOutDegreeVertex()
	sw := &nova.Software{Threads: 2}
	for _, w := range nova.WorkloadNames {
		gw, gwT := g, gT
		if w == "cc" {
			gw, gwT = sym, sym
		}
		rep, err := sw.RunWorkload(w, gw, gwT, root, 5)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if rep.Seconds <= 0 {
			t.Fatalf("%s: no wall time", w)
		}
	}
	// Correctness spot-check.
	rep, err := sw.RunWorkload("bfs", g, gT, root, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.BFS(g, root)
	for v := range want {
		if rep.Dists[v] != want[v] {
			t.Fatalf("software BFS wrong at %d", v)
		}
	}
	if _, err := sw.RunWorkload("nope", g, gT, root, 0); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestBCOutcomeMatchesOracle(t *testing.T) {
	g := testGraph()
	root := g.LargestOutDegreeVertex()
	acc, _ := nova.New(smallConfig())
	out, err := nova.RunWorkload(acc, "bc", g, nil, root, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.BC(g, root)
	for v := range want {
		tol := 1e-3 * (1 + math.Abs(want[v]))
		if math.Abs(out.Scores[v]-want[v]) > tol {
			t.Fatalf("BC at %d: %v want %v", v, out.Scores[v], want[v])
		}
	}
}

func TestSequentialEdgesExposed(t *testing.T) {
	g := testGraph()
	root := g.LargestOutDegreeVertex()
	if nova.SequentialEdges(g, root, "bfs", 0) <= 0 {
		t.Fatal("no sequential edges for bfs")
	}
	if nova.SequentialEdges(g, root, "pr", 10) != 10*g.NumEdges() {
		t.Fatal("pr sequential edges wrong")
	}
}

func TestVerifyRejectsWrongProps(t *testing.T) {
	g := testGraph()
	root := g.LargestOutDegreeVertex()
	props := make([]program.Prop, g.NumVertices())
	if err := nova.Verify("bfs", g, root, props); err == nil {
		t.Fatal("all-zero properties verified as BFS output")
	}
	if err := nova.Verify("pagerank??", g, root, props); err == nil {
		t.Fatal("unknown workload verified")
	}
}

func TestRunTracedProducesValidTrace(t *testing.T) {
	g := testGraph()
	acc, err := nova.New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rep, err := acc.RunTraced(program.NewBFS(g.LargestOutDegreeVertex()), g, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.SimSeconds <= 0 {
		t.Fatal("no simulated time")
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Fatal("trace is empty")
	}
	cats := map[string]bool{}
	for _, e := range parsed.TraceEvents {
		if c, ok := e["cat"].(string); ok {
			cats[c] = true
		}
	}
	for _, want := range []string{"mgu", "vmu"} {
		if !cats[want] {
			t.Fatalf("trace missing %q events (got %v)", want, cats)
		}
	}
}

func TestFacadeDeterminism(t *testing.T) {
	run := func() *nova.Report {
		g := testGraph()
		acc, err := nova.New(smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := acc.Run(program.NewSSSP(g.LargestOutDegreeVertex()), g)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles ||
		a.Stats.EdgesTraversed != b.Stats.EdgesTraversed ||
		a.Stats.MessagesCoalesced != b.Stats.MessagesCoalesced ||
		a.NetworkBytes != b.NetworkBytes {
		t.Fatalf("facade runs diverge: %+v vs %+v", a.Stats, b.Stats)
	}
}

func TestReportLoadImbalancePopulated(t *testing.T) {
	g := testGraph()
	acc, _ := nova.New(smallConfig())
	rep, err := acc.Run(program.NewBFS(g.LargestOutDegreeVertex()), g)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LoadImbalance < 1 {
		t.Fatalf("load imbalance %v < 1", rep.LoadImbalance)
	}
}
