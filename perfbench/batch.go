package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"nova"
	"nova/graph"
	"nova/internal/core"
	"nova/internal/exp"
	"nova/internal/harness"
	"nova/internal/mem"
	"nova/internal/network"
	"nova/internal/ref"
	"nova/program"
)

// setupReps is how many times the batch workload sets up per run;
// setup_s is the median.
const setupReps = 3

// batchRoots is how many distinct SSSP roots one round of the batch
// workload runs. A round's mean cell time is one sample, so the mix of
// cheap and dear roots is the same in every sample, and sim_cycles sums
// one cell per root, so it is exact for a seed.
const batchRoots = 4

// seeds derives the run's independent seeds from the benchmark seed, in
// a fixed order, so one --seed fixes every input.
type seeds struct{ mapping, roots int64 }

func deriveSeeds(seed int64) seeds {
	r := rand.New(rand.NewSource(seed))
	next := func() int64 { return r.Int63n(1<<31) + 1 }
	return seeds{mapping: next(), roots: next()}
}

// batchConfig is SSSP on 8 GPNs over the crossbar (exp's medium
// configuration) with a 16-entry active buffer, a 1 KiB vertex cache and
// the SSD tier on, so one cell uses the fabric, the shard windows, VMU
// spill and recovery and SSD page-ins. One shard keeps the cell on one
// host thread.
func batchConfig(s seeds) nova.Config {
	cfg := exp.NOVAConfig(exp.Medium, 8)
	cfg.ActiveBufferEntries = 16
	cfg.CacheBytesPerPE = 1 << 10
	cfg.OutOfCore = true
	cfg.SSDResidentPages = 64
	cfg.Shards = 1
	cfg.Seed = s.mapping
	return cfg
}

// rmatStream is the batch workload's graph: a degree-16 RMAT edge stream
// and the partition size of its container. Like the graphs of exp's
// dataset registry it has a fixed generator seed (twitter's, 12): the
// benchmark seed picks the roots and the vertex mapping, not the graph,
// whose size and shape would otherwise move the cost of every cell.
func rmatStream(o *options) (*graph.RMATStream, int64) {
	n, partEdges := 20000, int64(64<<10)
	if o.small {
		n, partEdges = 3000, 8<<10
	}
	return graph.NewRMATStream("rmat", n, 16, graph.DefaultRMAT, 64, 12), partEdges
}

// setup streams the graph into a partitioned container and loads it back
// through a one-slot pager.
func (b *batchRun) setup(rep int) (*graph.CSR, error) {
	path := filepath.Join(b.o.work, fmt.Sprintf("batch-%d.csr", rep))
	defer os.Remove(path)
	st, partEdges := rmatStream(b.o)
	if err := b.tr.do("graph.build_file_s", -1, func() error {
		_, err := graph.BuildCSRFile(path, st, graph.BuildOptions{PartitionEdges: partEdges})
		return err
	}); err != nil {
		return nil, fmt.Errorf("building container: %w", err)
	}
	var g *graph.CSR
	var ps graph.PagedStats
	err := b.tr.do("graph.paged_load_s", -1, func() error {
		pc, err := graph.OpenPartitionedCSR(path, 1)
		if err != nil {
			return err
		}
		defer pc.Close()
		if g, err = pc.Materialize(); err != nil {
			return err
		}
		ps = pc.Stats()
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("paged load: %w", err)
	}
	b.tr.count("graph.pager_loads", float64(ps.Loads))
	b.tr.count("graph.pager_bytes", float64(ps.BytesPaged))
	return g, nil
}

// timeGeneration drains a fresh copy of the graph's edge stream, timed as
// graph.gen_s: the generator's share of graph.build_file_s, measured
// apart from set-up so setup_s does not pay for it twice.
func (b *batchRun) timeGeneration() {
	st, _ := rmatStream(b.o)
	b.tr.do("graph.gen_s", -1, func() error {
		for _, ok := st.Next(); ok; _, ok = st.Next() {
		}
		return nil
	})
}

// pickRoots draws n distinct roots among the 64 highest out-degree
// vertices, so every cell reaches the graph's giant component.
func pickRoots(g *graph.CSR, n int, seed int64) []graph.VertexID {
	vs := make([]graph.VertexID, g.NumVertices())
	for i := range vs {
		vs[i] = graph.VertexID(i)
	}
	sort.SliceStable(vs, func(i, j int) bool { return g.OutDegree(vs[i]) > g.OutDegree(vs[j]) })
	vs = vs[:min(64, len(vs))]
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
	return vs[:min(n, len(vs))]
}

// cellKey is what must repeat exactly for a root: the simulated cycle
// and event counts.
type cellKey struct{ cycles, events float64 }

// batchRun holds the batch workload's state across its phases.
type batchRun struct {
	o     *options
	cfg   nova.Config
	g     *graph.CSR
	roots []graph.VertexID
	eng   harness.Engine
	tr    *tracer
	tal   *tally
	first map[graph.VertexID]cellKey
	cells int // cells checked so far, for the corruption hook
}

// check verifies one cell: a complete run, oracle-equal distances, and
// the same cycle and event counts as every other cell on its root.
func (b *batchRun) check(root graph.VertexID, props []program.Prop, partial bool, k cellKey) error {
	b.cells++
	if partial {
		return fmt.Errorf("root %d: partial run", root)
	}
	if b.o.corrupt && b.cells == 2 && len(props) > 0 {
		props[0]++
	}
	if err := nova.Verify("sssp", b.g, root, props); err != nil {
		return fmt.Errorf("root %d: %w", root, err)
	}
	if prev, ok := b.first[root]; ok && prev != k {
		return fmt.Errorf("root %d: cycles/events %v differ from the first cell's %v", root, k, prev)
	}
	b.first[root] = k
	return nil
}

// rounds calls round until the run's seconds have passed, and at least
// once.
func (b *batchRun) rounds(round func()) {
	for start := time.Now(); ; {
		round()
		if time.Since(start) >= b.o.seconds {
			return
		}
	}
}

func runBatch(ctx context.Context, o *options) (*outcome, error) {
	s := deriveSeeds(o.seed)
	b := &batchRun{o: o, cfg: batchConfig(s), tr: newTracer(), tal: &tally{}, first: map[graph.VertexID]cellKey{}}
	out := newOutcome()

	var setupS []float64
	for rep := range setupReps {
		runtime.GC()
		t0 := time.Now()
		g, err := b.setup(rep)
		if err != nil {
			return nil, err
		}
		acc, err := nova.New(b.cfg)
		if err != nil {
			return nil, err
		}
		b.g, b.eng = g, acc.Engine()
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	b.roots = pickRoots(b.g, batchRoots, s.roots)
	out.m["setup_s"] = median(setupS)
	out.setupSamples = setupS

	// Warm-up round, untimed: every root once. It also records the cycle
	// and event counts every later cell on the root must repeat.
	for _, r := range b.roots {
		b.runCell(ctx, r)
	}
	var cycles, events float64
	for _, r := range b.roots {
		cycles += b.first[r].cycles
		events += b.first[r].events
	}
	out.m["sim_cycles"] = cycles
	out.m["sim.events"] = events

	if o.trace {
		b.timeGeneration()
		if err := b.traced(ctx, out); err != nil {
			return nil, err
		}
	} else {
		// One sample per round: the round's mean seconds per cell and its
		// simulated events per host second.
		var cellS, rates []float64
		b.rounds(func() {
			var t, ev float64
			for _, r := range b.roots {
				dt, rep := b.runCell(ctx, r)
				t += dt
				if rep != nil {
					ev += rep.Metric(core.MetricEventsExecuted)
				}
			}
			cellS = append(cellS, t/float64(len(b.roots)))
			rates = append(rates, ev/t)
		})
		cellP50 := median(cellS)
		out.m["cell_s_p50"] = cellP50
		out.m["sim_events_per_s"] = median(rates)
		out.m["job_p50_ms"] = cellP50 * 1e3
		out.m["miss_p50_ms"] = cellP50 * 1e3
		out.samples["rounds"] = len(cellS)
		out.cellSamples = cellS
	}
	out.tally = b.tal
	out.tracer = b.tr
	return out, nil
}

// runCell runs and checks one cell through harness.Engine.RunWorkload,
// the path novasim, experiments and novad use, and returns its seconds.
func (b *batchRun) runCell(ctx context.Context, root graph.VertexID) (float64, *harness.Report) {
	w := harness.Workload{Name: "sssp", G: b.g, Root: root}
	runtime.GC() // start every cell from the same heap
	t0 := time.Now()
	rep, err := b.eng.RunWorkload(ctx, w)
	dt := time.Since(t0).Seconds()
	if err == nil {
		err = b.check(root, rep.Props, rep.Partial, cellKey{rep.Metric(core.MetricCycles), rep.Metric(core.MetricEventsExecuted)})
	}
	b.tal.op(err)
	return dt, rep
}

// coreConfig mirrors nova.Config's translation to core.Config for the
// knobs the batch workloads set, and refuses any knob it does not
// translate, so a workload that starts using one fails loudly here. The
// traced cells also check their cycle and event counts against the
// untraced ones, so a drift in what is translated shows as a failure.
func coreConfig(c nova.Config) (core.Config, error) {
	switch {
	case c.Spill != "" && c.Spill != "overwrite":
		return core.Config{}, fmt.Errorf("coreConfig: Spill %q not translated", c.Spill)
	case c.Fabric != "" && c.Fabric != "hierarchical":
		return core.Config{}, fmt.Errorf("coreConfig: Fabric %q not translated", c.Fabric)
	case c.Mapping != "" && c.Mapping != "random":
		return core.Config{}, fmt.Errorf("coreConfig: Mapping %q not translated", c.Mapping)
	case c.SSDPreset != "" && c.SSDPreset != "nvme":
		return core.Config{}, fmt.Errorf("coreConfig: SSDPreset %q not translated", c.SSDPreset)
	case c.CoalesceWindow != 0 || c.CoalesceCapacity != 0:
		return core.Config{}, fmt.Errorf("coreConfig: coalescing not translated")
	case c.MaxEvents != 0:
		return core.Config{}, fmt.Errorf("coreConfig: MaxEvents not translated")
	case c.Observer != nil:
		return core.Config{}, fmt.Errorf("coreConfig: Observer not translated")
	}
	cc := core.DefaultConfig(c.GPNs)
	if c.PEsPerGPN > 0 {
		cc.PEsPerGPN = c.PEsPerGPN
	}
	if c.CacheBytesPerPE > 0 {
		cc.CacheBytesPerPE = c.CacheBytesPerPE
	}
	if c.SuperblockDim > 0 {
		cc.SuperblockDim = c.SuperblockDim
	}
	if c.ActiveBufferEntries > 0 {
		cc.ActiveBufferEntries = c.ActiveBufferEntries
		cc.PrefetchBatch = min(cc.PrefetchBatch, c.ActiveBufferEntries)
	}
	cc.StallTimeout = c.StallTimeout
	cc.Shards = c.Shards
	topo, err := network.ParseTopoKind(c.Topology)
	if err != nil {
		return cc, err
	}
	cc.Topology = topo
	if c.OutOfCore {
		cc.OutOfCore = true
		cc.SSD = mem.NVMeSSDConfig("ssd")
		if c.SSDResidentPages > 0 {
			cc.SSDResidentPages = c.SSDResidentPages
		}
	}
	return cc, cc.Validate()
}

// Kinds of cell in the traced phase. Each root runs once as each kind,
// back to back, so the three see the same roots in the same stretch of
// time.
const (
	kindPlain    = iota // RunWorkload, untraced
	kindSpans           // layer calls with spans, no profiler
	kindProfiled        // layer calls with spans and System.Run profiled
)

// traced is the measured phase of a traced run. It calls the layers in
// the order
// nova.Accelerator.RunContext (behind the harness adapter) does, with a
// span around each call. Round after round, every root runs as an untraced RunWorkload cell,
// a spans-only cell and a fully traced cell whose System.Run is also
// CPU-profiled. The layer medians come from the spans-only cells, so
// nova.adapter_s (untraced median minus their sum) holds no profiling
// cost; trace.overhead_s is the fully traced median minus the untraced
// one. The two are measured apart, so the layers can fail to account for
// the untraced cell within the overhead.
func (b *batchRun) traced(ctx context.Context, out *outcome) error {
	cc, err := coreConfig(b.cfg)
	if err != nil {
		return err
	}
	prof := &cpuShares{}
	layers := []string{"ref.seq_edges_s", "graph.partition_s", "core.build_s", "core.run_s", "stats.bag_s"}
	durs := map[string][]float64{}
	var plain, profiled, nsPerEvent, barrierShare []float64
	seen := map[graph.VertexID]bool{}
	var windows float64
	var bags []map[string]float64
	tracedCell := func(root graph.VertexID, kind int) {
		tr := b.tr
		runtime.GC()
		cell := tr.begin([]string{kindSpans: "cell", kindProfiled: "cell.profiled"}[kind], -1)
		layer := func(name string, f func() error) error {
			id := tr.begin(name, cell)
			err := f()
			if d := tr.end(id); kind == kindSpans {
				durs[name] = append(durs[name], d)
			}
			return err
		}
		layer("ref.seq_edges_s", func() error {
			_ = ref.SequentialEdges(b.g, root, "sssp", 10)
			return nil
		})
		var part *graph.Partition
		layer("graph.partition_s", func() error {
			part = graph.PartitionRandom(b.g.NumVertices(), cc.GPNs*cc.PEsPerGPN, b.cfg.Seed)
			return nil
		})
		var sys *core.System
		err := layer("core.build_s", func() (err error) {
			sys, err = core.NewSystem(cc, b.g, part)
			return err
		})
		var res *core.Result
		if err == nil {
			if kind == kindProfiled {
				prof.start()
			}
			err = layer("core.run_s", func() (err error) {
				res, err = sys.Run(ctx, program.NewSSSP(root))
				return err
			})
			if kind == kindProfiled {
				prof.stop()
			}
		}
		var bag map[string]float64
		if res != nil {
			layer("stats.bag_s", func() error {
				bag = res.Dump.Bag()
				return nil
			})
		}
		if total := tr.end(cell); kind == kindProfiled {
			profiled = append(profiled, total)
		}
		if err == nil {
			k := cellKey{bag[core.MetricCycles], bag[core.MetricEventsExecuted]}
			err = b.check(root, res.Props, res.Partial, k)
			if kind == kindSpans {
				runS := durs["core.run_s"][len(durs["core.run_s"])-1]
				nsPerEvent = append(nsPerEvent, runS/k.events*1e9)
				if ws := res.WindowWallSeconds + res.BarrierWallSeconds; ws > 0 {
					barrierShare = append(barrierShare, res.BarrierWallSeconds/ws)
				}
			}
			out.m["stats.dump_records"] = float64(len(res.Dump.Records))
			if !seen[root] {
				seen[root] = true
				windows += float64(res.Windows)
				bags = append(bags, bag)
			}
		}
		b.tal.op(err)
	}
	step := 0
	b.rounds(func() {
		for _, root := range b.roots {
			// Rotate which kind goes first, so no kind always follows another.
			for i := range 3 {
				switch kind := (step + i) % 3; kind {
				case kindPlain:
					dt, _ := b.runCell(ctx, root)
					plain = append(plain, dt)
				default:
					tracedCell(root, kind)
				}
			}
			step++
		}
	})

	var layerSum float64
	for _, l := range layers {
		v := median(durs[l])
		out.m[l] = v
		layerSum += v
	}
	plainP50, tracedP50 := median(plain), median(profiled)
	out.m["nova.adapter_s"] = plainP50 - layerSum
	out.m["trace.cell_s_p50"] = tracedP50
	out.m["trace.overhead_s"] = tracedP50 - plainP50
	out.m["sim.ns_per_event"] = median(nsPerEvent)
	out.m["sim.windows"] = windows
	out.m["sim.barrier_share"] = median(barrierShare)
	prof.report(out.m)
	modelledCounts(out.m, bags)
	out.m["samples.cells"] = float64(len(plain))
	out.samples["traced_cells"] = len(profiled)
	out.samples["plain_cells"] = len(plain)
	return nil
}

// modelledCounts folds the stats bags of one cell per distinct input into
// the modelled per-layer metrics: counts are summed, ratios averaged.
func modelledCounts(m map[string]float64, bags []map[string]float64) {
	ratios := map[string]string{
		"mem.cache_hit_rate":         core.MetricCacheHitRate,
		"mem.vertex_useful_frac":     core.MetricVertexUsefulFrac,
		"mem.vertex_wasteful_frac":   core.MetricVertexWastefulFrac,
		"mem.edge_utilization":       core.MetricEdgeUtilization,
		"core.vmu.recovery_hit_rate": core.MetricRecoveryHitRate,
		"core.load_imbalance":        core.MetricLoadImbalance,
		"network.avg_hops":           core.MetricNetworkAvgHops,
	}
	counts := map[string]string{
		"core.vmu.spills":         core.MetricSpills,
		"core.vmu.direct_pushes":  core.MetricDirectPushes,
		"network.inter_messages":  "network.inter_messages",
		"mem.ssd.partition_loads": core.MetricPartitionLoads,
		"mem.ssd.io_stall_cycles": core.MetricIOStallTicks,
	}
	for name, key := range ratios {
		var xs []float64
		for _, b := range bags {
			xs = append(xs, b[key])
		}
		m[name] = mean(xs)
	}
	for name, key := range counts {
		for _, b := range bags {
			m[name] += b[key]
		}
	}
}
