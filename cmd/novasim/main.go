// Command novasim runs workloads on the simulated engines and prints the
// full metrics report — the quickest way to poke at the simulator.
//
// Usage:
//
//	novasim -engine nova -workload sssp -graph twitter -gpns 2 -scale small
//	novasim -engine polygraph -workload bfs -graph urand
//	novasim -engine ligra -workload pr -graph road
//
// Comma-separated lists (or "all") sweep the engine×workload grid through
// the harness pool, fanning cells out over -jobs workers:
//
//	novasim -engine all -workload bfs,pr -graph twitter -jobs 4
//
// -stats-out writes the merged hierarchical statistics dump of every cell
// (format by extension: .json, .csv, .txt); see STATS.md for the record
// reference and cmd/statdiff for comparing dumps:
//
//	novasim -engine nova -workload sssp -graph urand -stats-out run.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"nova"
	"nova/graph"
	"nova/internal/exp"
	"nova/internal/extmem"
	"nova/internal/harness"
	"nova/internal/polygraph"
	"nova/internal/prof"
	"nova/internal/stats"
	"nova/program"
)

func main() {
	engine := flag.String("engine", "nova", "nova|polygraph|ligra|extmem, comma-separated list, or all")
	workload := flag.String("workload", "bfs", "bfs|sssp|cc|pr|bc|prdelta, comma-separated list, or all")
	graphName := flag.String("graph", "twitter", "road|twitter|friendster|host|urand")
	scaleFlag := flag.String("scale", "small", "small|medium|full|large")
	gpns := flag.Int("gpns", 1, "number of GPNs (nova engine)")
	shards := flag.Int("shards", 1, "simulation worker goroutines for the sharded nova kernel (clamped to -gpns; results are bit-identical at every setting)")
	mapping := flag.String("mapping", "random", "random|interleave|load-balanced|locality")
	spill := flag.String("spill", "overwrite", "overwrite|fifo")
	fabric := flag.String("fabric", "hierarchical", "hierarchical|ideal")
	topology := flag.String("topology", "crossbar", "inter-GPN topology: crossbar|ring|mesh|torus (nova engine, hierarchical fabric)")
	coalesceWindow := flag.Int64("coalesce-window", 0, "in-fabric coalescing window in cycles (0 = off; nova engine, hierarchical fabric)")
	coalesceCap := flag.Int("coalesce-cap", 0, "coalescing buffer capacity in message entries (0 = default; requires -coalesce-window)")
	prIters := flag.Int("pr-iters", 10, "PageRank iterations")
	outOfCore := flag.Bool("out-of-core", false, "enable the SSD-backed out-of-core tier (nova engine): vertex blocks outside the resident window pay a modeled page-in")
	ssdPreset := flag.String("ssd", "", "SSD timing preset for paging engines: nvme (default) or sata")
	ssdResidentPages := flag.Int("ssd-resident-pages", 0, "per-PE SSD resident window in pages (nova engine, requires -out-of-core; 0 = default)")
	extmemRAM := flag.Int64("extmem-ram", 0, "DRAM partition-cache budget in bytes for the extmem engine (0 = default 256 MiB)")
	extmemPartEdges := flag.Int64("extmem-part-edges", 0, "target edges per vertex interval for the extmem engine (0 = default 1Mi)")
	verify := flag.Bool("verify", true, "check results against the sequential oracle")
	graphFile := flag.String("graph-file", "", "load graph from a file instead of the registry (.csr = binary CSR container, else edge list)")
	partitionCache := flag.Int("partition-cache", 0, "page a partitioned .csr -graph-file through a bounded partition cache of this many resident partitions (0 = load normally)")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON file (nova engine only)")
	statsOut := flag.String("stats-out", "", "write the merged statistics dump to FILE (.json, .csv, or .txt by extension)")
	jobsN := flag.Int("jobs", runtime.GOMAXPROCS(0), "concurrent cells in sweep mode")
	timeout := flag.Duration("timeout", 0, "per-cell wall-clock timeout (0 = unbounded); a timed-out cell reports a partial result")
	profFlags := prof.RegisterFlags()
	flag.Parse()
	defer profFlags.Start()()
	exp.Shards = *shards

	// SIGINT/SIGTERM cancel the run context: the engines stop cooperatively
	// within one poll interval and partial results are still rendered (and
	// flushed to -stats-out, marked partial). A second signal kills the
	// process the default way, because stop() deregisters on cancellation.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	context.AfterFunc(ctx, stopSignals)

	engines := splitList(*engine, []string{"nova", "polygraph", "ligra", "extmem"})
	workloads := splitList(*workload, nova.WorkloadNames)
	scale, err := exp.ParseScale(*scaleFlag)
	check(err)
	// Validate every knob before touching any dataset: graph construction
	// at the larger scales is the expensive part of a run, and a bad flag
	// combination should fail in milliseconds, not minutes.
	cfg := exp.NOVAConfig(scale, *gpns)
	cfg.Mapping = *mapping
	cfg.Spill = *spill
	cfg.Fabric = *fabric
	cfg.Topology = *topology
	cfg.CoalesceWindow = *coalesceWindow
	cfg.CoalesceCapacity = *coalesceCap
	cfg.OutOfCore = *outOfCore
	cfg.SSDResidentPages = *ssdResidentPages
	if *outOfCore {
		cfg.SSDPreset = *ssdPreset // -ssd also picks the extmem device
	}
	acc, err := nova.New(cfg)
	check(err)
	em := &nova.ExternalMemory{RAMBytes: *extmemRAM, PartitionEdges: *extmemPartEdges, SSDPreset: *ssdPreset}
	check(em.Validate())
	check(checkIgnoredFlags(engines, cfg, em))
	if *tracePath != "" {
		switch {
		case len(engines)*len(workloads) > 1 || *statsOut != "" || engines[0] != "nova":
			check(fmt.Errorf("-trace records a single nova cell without -stats-out; a sweep over engines %v x workloads %v would silently ignore it", engines, workloads))
		case singleProgram(workloads[0], 0, *prIters) == nil:
			check(fmt.Errorf("-trace supports single-phase workloads (bfs/sssp/cc/pr/prdelta)"))
		}
	}

	var d *exp.Dataset
	if *graphFile != "" {
		var loaded *graph.CSR
		if strings.HasSuffix(*graphFile, ".csr") {
			// The versioned binary CSR container: checksummed, loaded in
			// constant memory (graphgen -o writes it).
			loaded, err = loadCSRFile(*graphFile, *partitionCache)
		} else {
			if *partitionCache > 0 {
				check(fmt.Errorf("-partition-cache pages the partitioned .csr container; %q is an edge list", *graphFile))
			}
			var f *os.File
			f, err = os.Open(*graphFile)
			check(err)
			loaded, err = graph.ReadEdgeList(*graphFile, f)
			f.Close()
		}
		check(err)
		d = &exp.Dataset{Name: loaded.Name, Graph: loaded, Root: loaded.LargestOutDegreeVertex()}
	} else {
		if *partitionCache > 0 {
			check(fmt.Errorf("-partition-cache applies to a partitioned -graph-file, not registry graphs"))
		}
		d, err = exp.DatasetByName(scale, *graphName)
		check(err)
	}

	// -stats-out routes through the sweep path even for a single cell, so
	// every cell's dump lands in one merged, engine.workload-prefixed file.
	if len(engines)*len(workloads) > 1 || *statsOut != "" {
		runSweep(ctx, scale, d, engines, workloads, acc, em, *prIters, *jobsN, *timeout, *statsOut, *verify)
		return
	}

	g := d.Graph
	var gT *graph.CSR
	switch {
	case *workload == "cc":
		g = d.Sym()
		gT = g
	case *workload == "bc" || *engine == "ligra":
		// Only bc and the pull-direction software engine consume the
		// transpose; building it unconditionally would double the memory
		// footprint of large-tier runs.
		gT = d.Transpose()
	}
	fmt.Printf("graph %s: %d vertices, %d edges (avg deg %.1f)\n",
		g.Name, g.NumVertices(), g.NumEdges(), g.AvgDegree())

	switch *engine {
	case "nova", "polygraph", "extmem":
		if *tracePath != "" {
			f, err := os.Create(*tracePath)
			check(err)
			rep, err := acc.RunTraced(singleProgram(*workload, d.Root, *prIters), g, f)
			check(f.Close())
			check(err)
			fmt.Printf("trace written to %s\n", *tracePath)
			fmt.Printf("workload %s: %.3f ms simulated, %d edges traversed\n",
				*workload, rep.Stats.SimSeconds*1e3, rep.Stats.EdgesTraversed)
			return
		}
		eng, err := buildEngine(*engine, scale, acc, em)
		check(err)
		rep, err := eng.RunWorkload(ctx, harness.Workload{Name: *workload, G: g, GT: gT, Root: d.Root, PRIters: *prIters, Tier: scale.String()})
		if err != nil && (rep == nil || !rep.Partial) {
			check(err)
		}
		if rep.Dump != nil && !rep.Partial { // two-phase bc has no dump
			printBreakdown(rep)
		}
		printOutcome(rep)
		// A polygraph single cell prints no oracle line, so its stdout
		// stays byte-identical to earlier releases for scripts that parse
		// it; its sweep cells, and so every -stats-out run, are verified.
		if *engine != "polygraph" && *verify && !rep.Partial && rep.Props != nil && verifiable(*workload) {
			check(nova.Verify(*workload, g, d.Root, rep.Props))
			fmt.Println("verified against sequential oracle: OK")
		}
		if rep.Partial {
			os.Exit(1)
		}
	case "ligra":
		sw := &nova.Software{}
		rep, err := sw.RunWorkloadContext(ctx, *workload, g, gT, d.Root, *prIters)
		if err != nil && (rep == nil || !rep.Partial) {
			check(err)
		}
		fmt.Printf("wall time: %.3f ms, traversed %d edges, %.3f GTEPS, %d iterations\n",
			rep.Seconds*1e3, rep.EdgesTraversed, rep.GTEPS(), rep.Iterations)
		if rep.Partial {
			fmt.Printf("PARTIAL run (%s): counts cover only the iterations before the stop\n", rep.StopReason)
			os.Exit(1)
		}
	default:
		check(fmt.Errorf("unknown engine %q", *engine))
	}
}

// singleProgram builds the one-phase program -trace records, or nil for
// a workload that has none (bc is two-phase).
func singleProgram(workload string, root graph.VertexID, prIters int) program.Program {
	switch workload {
	case "bfs":
		return program.NewBFS(root)
	case "sssp":
		return program.NewSSSP(root)
	case "cc":
		return program.NewCC()
	case "pr":
		return program.NewPageRank(0.85, prIters)
	case "prdelta":
		return program.NewPRDelta(0.85, 1e-7) // see nova.SpillStressWorkload on the tolerance
	default:
		return nil
	}
}

// verifiable reports whether nova.Verify has an oracle for workload.
func verifiable(workload string) bool {
	return workload == "bfs" || workload == "sssp" || workload == "cc"
}

// printBreakdown prints the engine's cost breakdown from root records of
// the cell's stats dump; the nova engine has none.
func printBreakdown(rep *harness.Report) {
	root := func(path string) float64 {
		v, _ := rep.Dump.Value(path)
		return v
	}
	switch rep.Engine {
	case "polygraph":
		sim := rep.Stats.SimSeconds
		fmt.Printf("slices=%d passes=%d breakdown: proc=%.1f%% switch=%.1f%% ineff=%.1f%%\n",
			int64(root(polygraph.MetricSliceCount)), int64(root(polygraph.MetricSlicePasses)),
			100*root(polygraph.MetricProcessingSeconds)/sim,
			100*root(polygraph.MetricSwitchingSeconds)/sim,
			100*root(polygraph.MetricInefficiencySeconds)/sim)
	case "extmem":
		fmt.Printf("partitions=%d rounds=%d loads=%d paged=%d B io-stall=%.1f%% hit-rate=%.1f%%\n",
			int64(root(extmem.MetricPartitions)), int64(root(extmem.MetricRounds)),
			int64(root(extmem.MetricPartitionLoads)), int64(root(extmem.MetricBytesPaged)),
			100*root(extmem.MetricIOStallTicks)/max(root(extmem.MetricCycles), 1),
			100*root(extmem.MetricCacheHitRate))
	}
}

func printOutcome(out *harness.Report) {
	fmt.Printf("workload %s: %.3f ms simulated, %d edges traversed, %d messages (%.1f%% coalesced)\n",
		out.Workload, out.Stats.SimSeconds*1e3, out.Stats.EdgesTraversed,
		out.Stats.MessagesSent,
		100*float64(out.Stats.MessagesCoalesced)/float64(max64(out.Stats.MessagesSent, 1)))
	fmt.Printf("work efficiency %.3f, effective throughput %.3f GTEPS\n",
		out.WorkEfficiency(), out.EffectiveGTEPS())
	if out.Stats.Epochs > 0 {
		fmt.Printf("BSP epochs: %d\n", out.Stats.Epochs)
	}
	if out.Partial {
		fmt.Printf("PARTIAL run (%s): stats cover only the work before the stop\n", out.StopReason)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "novasim:", err)
		os.Exit(1)
	}
}

// splitList parses a comma-separated flag value, expanding "all".
func splitList(v string, all []string) []string {
	if v == "all" {
		return all
	}
	parts := strings.Split(v, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// checkIgnoredFlags rejects engine knobs that no selected engine reads,
// so a sweep never silently runs without them. The knobs' own validity
// is checked by nova.New and ExternalMemory.Validate.
func checkIgnoredFlags(engines []string, cfg nova.Config, em *nova.ExternalMemory) error {
	has := func(name string) bool {
		for _, e := range engines {
			if e == name {
				return true
			}
		}
		return false
	}
	onNova, onExtmem := has("nova"), has("extmem")
	switch {
	case !onNova && ((cfg.Topology != "" && cfg.Topology != "crossbar") || cfg.CoalesceWindow > 0):
		return fmt.Errorf("-topology/-coalesce-window apply to the nova engine only; engines %v would silently ignore them (add nova to -engine)", engines)
	case !onNova && cfg.OutOfCore:
		return fmt.Errorf("-out-of-core applies to the nova engine only; engines %v would silently ignore it (add nova to -engine)", engines)
	case !onExtmem && (em.RAMBytes > 0 || em.PartitionEdges > 0):
		return fmt.Errorf("-extmem-ram/-extmem-part-edges apply to the extmem engine only; engines %v would silently ignore them (add extmem to -engine)", engines)
	case !onExtmem && !cfg.OutOfCore && em.SSDPreset != "":
		return fmt.Errorf("-ssd picks the paging device for -out-of-core nova or the extmem engine; neither is selected")
	}
	return nil
}

// loadCSRFile loads a binary CSR container. A partitioned container with
// -partition-cache set is paged through a bounded PartitionedCSR — the
// process never holds more than the cache's worth of partitions while
// assembling the graph — and the pager traffic is reported; the result is
// bit-identical to a flat load at every cache size.
func loadCSRFile(path string, partitionCache int) (*graph.CSR, error) {
	info, err := graph.StatCSRFile(path)
	if err != nil {
		return nil, err
	}
	if !info.Partitioned {
		if partitionCache > 0 {
			return nil, fmt.Errorf("-partition-cache needs a partitioned container; %s is flat (rebuild with graphgen -partition-edges)", path)
		}
		return graph.ReadCSRFile(path)
	}
	if partitionCache <= 0 {
		// Partitioned containers load fine through the flat reader; paging
		// is opt-in via -partition-cache.
		return graph.ReadCSRFile(path)
	}
	pc, err := graph.OpenPartitionedCSR(path, partitionCache)
	if err != nil {
		return nil, err
	}
	defer pc.Close()
	g, err := pc.Materialize()
	if err != nil {
		return nil, err
	}
	st := pc.Stats()
	fmt.Fprintf(os.Stderr, "paged %s: %d partitions through a %d-slot cache (loads=%d evictions=%d, %d B paged, mmap=%v)\n",
		path, pc.NumPartitions(), partitionCache, st.Loads, st.Evictions, st.BytesPaged, pc.Mapped())
	return g, nil
}

// buildEngine returns the harness view of one selected engine.
func buildEngine(name string, scale exp.Scale, acc *nova.Accelerator, em *nova.ExternalMemory) (harness.Engine, error) {
	switch name {
	case "nova":
		return acc.Engine(), nil
	case "polygraph":
		return exp.PGEngine(scale), nil
	case "ligra":
		return exp.LigraEngine(), nil
	case "extmem":
		return em.Engine(), nil
	default:
		return nil, fmt.Errorf("unknown engine %q", name)
	}
}

// runSweep fans the engine×workload grid out over the harness pool and
// prints one summary line per cell, in grid order, plus the wall-clock
// cost of the sweep vs its sequential equivalent. With verify, every
// complete bfs/sssp/cc cell is checked against the sequential oracle once
// the pool is done, so cell timings, the sweep's wall time and -timeout
// cover the simulation alone; a mismatch fails its cell. Cancelling ctx (Ctrl-C) stops running cells
// cooperatively; their salvaged partial reports are rendered, flushed to
// -stats-out marked partial, and fail the process.
func runSweep(ctx context.Context, scale exp.Scale, d *exp.Dataset, engines, workloads []string, acc *nova.Accelerator, em *nova.ExternalMemory, prIters, jobsN int, timeout time.Duration, statsOut string, verify bool) {
	fmt.Printf("graph %s: %d vertices, %d edges (avg deg %.1f)\n",
		d.Graph.Name, d.Graph.NumVertices(), d.Graph.NumEdges(), d.Graph.AvgDegree())
	var jobs []harness.Job[*harness.Report]
	type cell struct {
		w string
		g *graph.CSR
	}
	var cells []cell // parallel to jobs, for the oracle
	for _, en := range engines {
		eng, err := buildEngine(en, scale, acc, em)
		check(err)
		for _, w := range workloads {
			eng, w := eng, w
			g := d.Graph
			var gT *graph.CSR
			switch {
			case w == "cc":
				g = d.Sym()
				gT = g
			case w == "bc" || en == "ligra":
				gT = d.Transpose() // cached across cells by the dataset
			}
			cells = append(cells, cell{w, g})
			jobs = append(jobs, harness.Job[*harness.Report]{
				Name: fmt.Sprintf("%s/%s", eng.Name(), w),
				Run: func(ctx context.Context) (*harness.Report, error) {
					return eng.RunWorkload(ctx, harness.Workload{Name: w, G: g, GT: gT, Root: d.Root, PRIters: prIters, Tier: scale.String()})
				},
			})
		}
	}
	var busy time.Duration
	pool := &harness.Pool{Workers: jobsN, JobTimeout: timeout, OnDone: func(ev harness.Event) {
		busy += ev.Elapsed
		fmt.Fprintf(os.Stderr, "  [%d/%d] %s (%v)\n", ev.Done, ev.Total, ev.Name, ev.Elapsed.Round(time.Millisecond))
	}}
	start := time.Now()
	results := harness.Map(ctx, pool, jobs)
	wall := time.Since(start)
	verified := 0
	for i, r := range results {
		rep, c := r.Value, cells[i]
		if !verify || r.Err != nil || rep == nil || rep.Partial || rep.Props == nil || !verifiable(c.w) {
			continue
		}
		if err := nova.Verify(c.w, c.g, d.Root, rep.Props); err != nil {
			results[i].Value, results[i].Err = nil, fmt.Errorf("sequential oracle mismatch: %w", err)
			continue
		}
		verified++
	}

	fmt.Printf("%-10s %-8s %12s %14s %12s %10s\n", "engine", "workload", "time(ms)", "edges", "eff-gteps", "work-eff")
	failed := 0
	for _, r := range results {
		rep := r.Value
		if r.Err != nil && (rep == nil || !rep.Partial) {
			failed++
			fmt.Printf("%-10s %s\n", r.Name, r.Err)
			continue
		}
		marker := ""
		if rep.Partial {
			// A salvaged cell still renders its stats — they cover the work
			// completed before the stop — but fails the sweep.
			failed++
			marker = fmt.Sprintf("  PARTIAL(%s)", rep.StopReason)
		}
		fmt.Printf("%-10s %-8s %12.3f %14d %12.3f %10.3f%s\n",
			rep.Engine, rep.Workload, rep.Stats.SimSeconds*1e3, rep.Stats.EdgesTraversed,
			rep.EffectiveGTEPS(), rep.WorkEfficiency(), marker)
	}
	speedup := 0.0
	if wall > 0 {
		speedup = float64(busy) / float64(wall)
	}
	fmt.Fprintf(os.Stderr, "sweep: %d cells in %v wall (%v busy, jobs=%d, shards=%d, %.2fx vs sequential)\n",
		len(jobs), wall.Round(time.Millisecond), busy.Round(time.Millisecond), jobsN, exp.Shards, speedup)
	if verify {
		fmt.Fprintf(os.Stderr, "sweep: %d cells verified against the sequential oracle\n", verified)
	}
	if statsOut != "" {
		check(writeStatsDump(results, d, statsOut, wall))
	}
	if failed > 0 {
		// A failed cell must fail the process, or CI reads a partial (even
		// empty) stats dump as a green run.
		fmt.Fprintf(os.Stderr, "novasim: %d of %d cells failed\n", failed, len(jobs))
		os.Exit(1)
	}
}

// writeStatsDump merges every cell's dump (prefixed engine.workload) into
// one file, choosing the sink by extension: .csv, .txt/.text, else JSON.
// Salvaged partial cells (interrupted, timed out, budget-capped) are
// included — their stats cover the work completed before the stop — and
// stamp the dump metadata partial=true so downstream tooling never
// mistakes a truncated sweep for a complete one.
func writeStatsDump(results []harness.Result[*harness.Report], d *exp.Dataset, path string, wall time.Duration) error {
	var parts []*stats.Dump
	partial := false
	for _, r := range results {
		if r.Value == nil || r.Value.Dump == nil {
			continue // failed cells and two-phase workloads ("bc") have no dump
		}
		if r.Value.Partial {
			partial = true
		}
		parts = append(parts, r.Value.Dump.Prefixed(r.Value.Engine+"."+r.Value.Workload))
	}
	meta := map[string]string{
		"graph":        d.Graph.Name,
		"shards":       fmt.Sprintf("%d", exp.Shards),
		"wall_seconds": fmt.Sprintf("%.3f", wall.Seconds()),
	}
	if partial {
		meta["partial"] = "true"
	}
	merged := stats.Merge(meta, parts...)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	switch {
	case strings.HasSuffix(path, ".csv"):
		err = merged.WriteCSV(f)
	case strings.HasSuffix(path, ".txt"), strings.HasSuffix(path, ".text"):
		err = merged.WriteText(f)
	default:
		err = merged.WriteJSON(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "stats: %d records from %d cells written to %s\n",
		len(merged.Records), len(parts), path)
	return nil
}
