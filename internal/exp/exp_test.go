package exp

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"sync"
	"testing"

	"nova/internal/harness"
)

func TestParseScale(t *testing.T) {
	for _, s := range []string{"small", "medium", "full", "large"} {
		sc, err := ParseScale(s)
		if err != nil {
			t.Fatal(err)
		}
		if sc.String() != s {
			t.Fatalf("round trip %q -> %q", s, sc.String())
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("bad scale accepted")
	}
}

func TestDatasetsRegistry(t *testing.T) {
	ds := Datasets(Small)
	if len(ds) != 5 {
		t.Fatalf("datasets = %d, want 5", len(ds))
	}
	names := map[string]bool{}
	for _, d := range ds {
		names[d.Name] = true
		if d.Graph.NumVertices() == 0 || d.Graph.NumEdges() == 0 {
			t.Fatalf("%s: empty graph", d.Name)
		}
		if d.Graph.OutDegree(d.Root) == 0 {
			t.Fatalf("%s: root has no out-edges", d.Name)
		}
	}
	for _, want := range []string{"road", "twitter", "friendster", "host", "urand"} {
		if !names[want] {
			t.Fatalf("missing dataset %q", want)
		}
	}
	// Registry caches: same pointer on second call.
	if &Datasets(Small)[0].Graph.Dst[0] != &ds[0].Graph.Dst[0] {
		t.Fatal("registry rebuilt graphs instead of caching")
	}
	if _, err := DatasetByName(Small, "nope"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

// freshRegistry swaps in an unbuilt Small registry for the test's
// duration and returns it.
func freshRegistry(t *testing.T) []*datasetEntry {
	regMu.Lock()
	saved, had := registries[Small]
	fresh := newRegistry(Small)
	registries[Small] = fresh
	regMu.Unlock()
	t.Cleanup(func() {
		regMu.Lock()
		defer regMu.Unlock()
		if had {
			registries[Small] = saved
		} else {
			delete(registries, Small)
		}
	})
	return fresh
}

// TestDatasetByNameBuildsOnlyThatGraph checks the registry is lazy: asking
// for road builds the grid and none of the RMAT or uniform graphs.
func TestDatasetByNameBuildsOnlyThatGraph(t *testing.T) {
	fresh := freshRegistry(t)
	d, err := DatasetByName(Small, "road")
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "road" || d.Graph.NumVertices() == 0 {
		t.Fatalf("got dataset %q with %d vertices", d.Name, d.Graph.NumVertices())
	}
	for _, e := range fresh {
		if built := e.ds != nil; built != (e.name == "road") {
			t.Errorf("%s: built = %v after DatasetByName(Small, \"road\")", e.name, built)
		}
	}
}

// TestDatasetByNameConcurrent has goroutines race to build the same
// entries: each graph is built once and every caller gets it.
func TestDatasetByNameConcurrent(t *testing.T) {
	freshRegistry(t)
	names := []string{"road", "urand", "road", "urand", "road", "urand"}
	got := make([]*Dataset, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			d, err := DatasetByName(Small, name)
			if err != nil {
				t.Error(err)
			}
			got[i] = d
		}(i, name)
	}
	wg.Wait()
	for i := range names {
		if got[i] == nil || got[i] != got[i%2] {
			t.Fatalf("caller %d (%s) got %p, caller %d got %p", i, names[i], got[i], i%2, got[i%2])
		}
	}
}

func TestSliceCountsMatchTableIII(t *testing.T) {
	// The calibration invariant: at every scale, ceil(4V/cap) equals the
	// paper's Table III slice counts.
	scales := []Scale{Small, Medium, Full}
	if testing.Short() {
		scales = scales[:1]
	}
	for _, s := range scales {
		cap := s.PolyGraphOnChip()
		for _, d := range Datasets(s) {
			got := int((4*int64(d.Graph.NumVertices()) + cap - 1) / cap)
			if got != d.PaperSlices {
				t.Errorf("scale %s, %s: slices = %d, want %d (V=%d, cap=%d)",
					s, d.Name, got, d.PaperSlices, d.Graph.NumVertices(), cap)
			}
		}
	}
}

func TestDatasetDegreesFollowPaper(t *testing.T) {
	want := map[string]float64{"road": 2.44, "twitter": 35, "friendster": 27, "host": 20, "urand": 31}
	for _, d := range Datasets(Small) {
		got := d.Graph.AvgDegree()
		w := want[d.Name]
		if got < 0.8*w || got > 1.2*w {
			t.Errorf("%s: avg degree %.2f, want ≈ %.2f", d.Name, got, w)
		}
	}
}

func TestLargeTierConfig(t *testing.T) {
	// The large tier must shrink the active buffers far below the Table II
	// default so spill/recovery dominates; the other tiers must not.
	if got := Large.ActiveBufferEntries(); got >= Full.ActiveBufferEntries() {
		t.Fatalf("large-tier buffer %d not smaller than full-tier %d",
			got, Full.ActiveBufferEntries())
	}
	cfg := NOVAConfig(Large, 1)
	if cfg.ActiveBufferEntries != Large.ActiveBufferEntries() {
		t.Fatalf("NOVAConfig(Large) buffer = %d, want %d",
			cfg.ActiveBufferEntries, Large.ActiveBufferEntries())
	}
	for _, s := range []Scale{Small, Medium, Full} {
		if NOVAConfig(s, 1).ActiveBufferEntries != 80 {
			t.Fatalf("scale %s: buffer = %d, want Table II default 80",
				s, NOVAConfig(s, 1).ActiveBufferEntries)
		}
	}
	if Large.divisor() >= Medium.divisor() || Large.divisor() < Full.divisor() {
		t.Fatalf("large divisor %d not between full (%d) and medium (%d)",
			Large.divisor(), Full.divisor(), Medium.divisor())
	}
}

func TestWeakScalingGraphDoubles(t *testing.T) {
	g1 := WeakScalingGraph(Small, 1)
	g2 := WeakScalingGraph(Small, 2)
	g8 := WeakScalingGraph(Small, 8)
	if g2.NumVertices() != 2*g1.NumVertices() {
		t.Fatalf("2-GPN graph not 2x: %d vs %d", g2.NumVertices(), g1.NumVertices())
	}
	if g8.NumVertices() != 8*g1.NumVertices() {
		t.Fatalf("8-GPN graph not 8x: %d vs %d", g8.NumVertices(), g1.NumVertices())
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "x", Title: "demo", Header: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.Note("hello %d", 7)
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "a", "bb", "hello 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q in %q", want, out)
		}
	}
	buf.Reset()
	tb.Markdown(&buf)
	if !strings.Contains(buf.String(), "| a | bb |") {
		t.Fatalf("markdown missing header: %q", buf.String())
	}
}

func TestAllExperimentsRegistered(t *testing.T) {
	want := []string{"fig1", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9a", "fig9b", "fig9c", "fig10", "fignet", "figooc", "tab1", "tab2", "tab3", "tab4", "tab5"}
	if len(All) != len(want) {
		t.Fatalf("registered %d experiments, want %d", len(All), len(want))
	}
	for _, id := range want {
		if All[id] == nil {
			t.Fatalf("experiment %s not registered", id)
		}
	}
	ids := IDs()
	if len(ids) != len(want) {
		t.Fatalf("IDs() returned %d", len(ids))
	}
}

// TestStaticExperiments runs the cheap (analytic) experiments fully.
func TestStaticExperiments(t *testing.T) {
	for _, id := range []string{"tab2", "tab3", "tab4", "tab5"} {
		tb, err := All[id](context.Background(), Small, nil)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tb.Rows) == 0 {
			t.Fatalf("%s: no rows", id)
		}
	}
}

// TestTab3SliceColumnConsistent verifies the rendered slice column agrees
// with the paper column in the output itself.
func TestTab3SliceColumnConsistent(t *testing.T) {
	tb, err := Tab3(context.Background(), Small, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		got, err1 := strconv.Atoi(row[5])
		want, err2 := strconv.Atoi(row[6])
		if err1 != nil || err2 != nil || got != want {
			t.Fatalf("row %v: slice mismatch", row)
		}
	}
}

// TestQuickSimulatedExperiments smoke-runs the cheapest simulation-backed
// experiments end-to-end at small scale, through a concurrent pool.
func TestQuickSimulatedExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed experiments skipped in -short mode")
	}
	pool := &harness.Pool{Workers: 4}
	for _, id := range []string{"fig2", "fig8", "tab1"} {
		tb, err := All[id](context.Background(), Small, pool)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tb.Rows) == 0 {
			t.Fatalf("%s: no rows", id)
		}
	}
}

// TestFigOOCPagesOnEveryCell runs the out-of-core figure end-to-end at
// small scale and checks that every row records paging work for both
// engines — the acceptance gate for the SSD tier's instrumentation.
func TestFigOOCPagesOnEveryCell(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed experiments skipped in -short mode")
	}
	tb, err := FigOOC(context.Background(), Small, &harness.Pool{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 9 {
		t.Fatalf("got %d rows, want 9 (3 workloads x 3 sizes)", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		novaLoads, err1 := strconv.Atoi(row[4])
		emLoads, err2 := strconv.Atoi(row[7])
		if err1 != nil || err2 != nil || novaLoads <= 0 || emLoads <= 0 {
			t.Errorf("row %v: both engines must page (nova=%d extmem=%d)", row, novaLoads, emLoads)
		}
	}
}

// render flattens a table so worker-count determinism is comparable
// byte-for-byte.
func render(t *Table) string {
	var buf bytes.Buffer
	t.Render(&buf)
	return buf.String()
}

// TestPoolDeterminism is the acceptance check for the harness refactor:
// a figure rendered through a 1-worker pool and a 4-worker pool must be
// byte-identical (the simulated engines are deterministic; result order
// is fixed by submission order, not completion order).
func TestPoolDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed experiments skipped in -short mode")
	}
	for _, id := range []string{"fig2", "fig8"} {
		seq, err := All[id](context.Background(), Small, &harness.Pool{Workers: 1})
		if err != nil {
			t.Fatalf("%s sequential: %v", id, err)
		}
		par, err := All[id](context.Background(), Small, &harness.Pool{Workers: 4})
		if err != nil {
			t.Fatalf("%s parallel: %v", id, err)
		}
		if render(seq) != render(par) {
			t.Errorf("%s: jobs=1 and jobs=4 tables differ:\n--- jobs=1 ---\n%s\n--- jobs=4 ---\n%s",
				id, render(seq), render(par))
		}
	}
}
