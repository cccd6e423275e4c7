// Package nova is the public API of the NOVA reproduction: a simulated
// graph-processing accelerator with a decoupled vertex management
// architecture (HPCA 2025), its temporal-partitioning baseline
// (PolyGraph), and a Ligra-style software baseline, all runnable on the
// same vertex-centric programs.
//
// Quick start:
//
//	g := graph.GenRMAT("social", 16, 16, graph.DefaultRMAT, 1, 42)
//	acc, _ := nova.New(nova.DefaultConfig())
//	rep, _ := acc.Run(program.NewBFS(g.LargestOutDegreeVertex()), g)
//	fmt.Printf("%.2f GTEPS\n", rep.GTEPS(g))
package nova

import (
	"context"
	"fmt"
	"io"
	"time"

	"nova/graph"
	"nova/internal/core"
	"nova/internal/harness"
	"nova/internal/mem"
	"nova/internal/network"
	"nova/internal/ref"
	"nova/internal/sim"
	"nova/internal/stats"
	"nova/internal/trace"
	"nova/program"
)

// Config selects the NOVA system organization. The zero value of every
// field selects its Table II default, so Config{} is the single-GPN
// Table II system that DefaultConfig spells out. The JSON tags are
// novad's wire names (API.md); fields tagged "-" are not on the wire.
type Config struct {
	// GPNs is the number of graph processing nodes (Table II: 8 PEs,
	// one HBM2 stack and four DDR4 channels each; default 1).
	GPNs int `json:"gpns,omitempty"`
	// PEsPerGPN overrides the per-GPN processing element count (default 8).
	PEsPerGPN int `json:"pes_per_gpn,omitempty"`
	// CacheBytesPerPE sizes the MPU vertex cache (default 64 KiB).
	CacheBytesPerPE int `json:"cache_bytes_per_pe,omitempty"`
	// SuperblockDim sets the tracker granularity (default 128 blocks).
	SuperblockDim int `json:"-"`
	// ActiveBufferEntries sizes the VMU FIFO (default 80).
	ActiveBufferEntries int `json:"active_buffer_entries,omitempty"`
	// Spill selects the vertex spilling mechanism: "overwrite" (NOVA's
	// design, default) or "fifo" (the Table I strawman).
	Spill string `json:"spill,omitempty"`
	// Fabric selects the interconnect: "hierarchical" (Table II, default)
	// or "ideal" (infinite-bandwidth point-to-point, Fig. 9c).
	Fabric string `json:"fabric,omitempty"`
	// Topology selects the inter-GPN topology of the hierarchical fabric:
	// "crossbar" (default, Table II), "ring", "mesh", or "torus".
	Topology string `json:"topology,omitempty"`
	// CoalesceWindow enables the fabric's in-flight message coalescing
	// stage: cross-GPN batches wait up to this many core cycles for
	// further same-destination traffic to merge with (0 disables).
	CoalesceWindow int64 `json:"coalesce_window,omitempty"`
	// CoalesceCapacity bounds buffered message entries per destination PE
	// while a coalescing window is open (0 = network default, 64).
	CoalesceCapacity int `json:"coalesce_capacity,omitempty"`
	// OutOfCore enables the SSD-backed third memory tier (DESIGN.md §18):
	// vertex blocks whose SSD page falls outside each PE's resident
	// window pay a modeled page-in before the HBM2 access.
	OutOfCore bool `json:"out_of_core,omitempty"`
	// SSDPreset picks the out-of-core device timing: "nvme" (default) or
	// "sata". Requires OutOfCore.
	SSDPreset string `json:"ssd_preset,omitempty"`
	// SSDResidentPages sizes each PE's DRAM-resident window in SSD pages
	// (0 = core default, 1024). Requires OutOfCore.
	SSDResidentPages int `json:"ssd_resident_pages,omitempty"`
	// Mapping selects spatial vertex placement: "random" (default),
	// "interleave", "load-balanced", or "locality" (Fig. 9b).
	Mapping string `json:"mapping,omitempty"`
	// Seed drives the random vertex mapping (0 = seed 1).
	Seed int64 `json:"seed,omitempty"`
	// MaxEvents bounds simulation length (0 = default budget).
	MaxEvents uint64 `json:"-"`
	// StallTimeout arms the wall-clock stall watchdog (0 = the core
	// default, 30s; negative disables it). Excluded from the engine
	// fingerprint: it cannot affect results, only when a stuck run aborts.
	StallTimeout time.Duration `json:"-"`
	// Shards is the number of worker goroutines driving the per-GPN
	// engine shards (0 or 1 = sequential). Clamped to GPNs; results are
	// bit-identical at every setting, so it is excluded from the engine
	// fingerprint.
	Shards int `json:"shards,omitempty"`
	// Observer, when non-nil, is attached as the run's cooperative-stop
	// interrupt instead of a private one, so an external scheduler (the
	// novad service) can sample liveness beats while the simulation
	// executes and trip it from outside the context path. Excluded from
	// the engine fingerprint, like StallTimeout: observation cannot
	// affect results, so two runs differing only in Observer are
	// cache-equivalent.
	Observer *sim.Interrupt `json:"-"`
}

// DefaultConfig returns a single-GPN Table II system with random vertex
// mapping: the values the zero Config resolves to.
func DefaultConfig() Config {
	return Config{
		GPNs:                1,
		PEsPerGPN:           8,
		CacheBytesPerPE:     64 << 10,
		SuperblockDim:       128,
		ActiveBufferEntries: 80,
		Spill:               "overwrite",
		Fabric:              "hierarchical",
		Mapping:             "random",
		Seed:                1,
	}
}

// coreConfig translates c into the simulator's configuration, resolving
// every zero field to its default, and validates the result.
func (c Config) coreConfig() (core.Config, error) {
	if err := nonNegative(
		option{"GPNs", float64(c.GPNs)},
		option{"PEsPerGPN", float64(c.PEsPerGPN)},
		option{"CacheBytesPerPE", float64(c.CacheBytesPerPE)},
		option{"SuperblockDim", float64(c.SuperblockDim)},
		option{"ActiveBufferEntries", float64(c.ActiveBufferEntries)},
		option{"CoalesceWindow", float64(c.CoalesceWindow)},
		option{"CoalesceCapacity", float64(c.CoalesceCapacity)},
		option{"SSDResidentPages", float64(c.SSDResidentPages)},
		option{"Shards", float64(c.Shards)},
	); err != nil {
		return core.Config{}, err
	}
	cc := core.DefaultConfig(max(c.GPNs, 1))
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
	cc.MaxEvents = c.MaxEvents
	cc.StallTimeout = c.StallTimeout
	cc.Shards = c.Shards
	cc.Observer = c.Observer
	switch c.Spill {
	case "", "overwrite":
		cc.Spill = core.SpillOverwrite
	case "fifo":
		cc.Spill = core.SpillFIFO
	default:
		return cc, fmt.Errorf("nova: unknown spill policy %q", c.Spill)
	}
	switch c.Fabric {
	case "", "hierarchical":
		cc.Fabric = core.FabricHierarchical
	case "ideal":
		cc.Fabric = core.FabricIdeal
	default:
		return cc, fmt.Errorf("nova: unknown fabric %q", c.Fabric)
	}
	topo, err := network.ParseTopoKind(c.Topology)
	if err != nil {
		return cc, fmt.Errorf("nova: %w", err)
	}
	cc.Topology = topo
	cc.CoalesceWindow = sim.Ticks(c.CoalesceWindow)
	cc.CoalesceCapacity = c.CoalesceCapacity
	if c.OutOfCore {
		cc.OutOfCore = true
		switch c.SSDPreset {
		case "", "nvme":
			cc.SSD = mem.NVMeSSDConfig("ssd")
		case "sata":
			cc.SSD = mem.SATASSDConfig("ssd")
		default:
			return cc, fmt.Errorf("nova: unknown SSD preset %q", c.SSDPreset)
		}
		if c.SSDResidentPages > 0 {
			cc.SSDResidentPages = c.SSDResidentPages
		}
	} else if c.SSDPreset != "" || c.SSDResidentPages != 0 {
		return cc, fmt.Errorf("nova: SSDPreset/SSDResidentPages set without OutOfCore")
	}
	return cc, cc.Validate()
}

// partition places g's vertices on the accelerator's PEs.
func (a *Accelerator) partition(g *graph.CSR) (*graph.Partition, error) {
	gpns, pesPerGPN := a.cc.GPNs, a.cc.PEsPerGPN
	parts := gpns * pesPerGPN
	switch a.mapping {
	case "random":
		return graph.PartitionRandom(g.NumVertices(), parts, a.seed), nil
	case "interleave":
		return graph.PartitionInterleave(g.NumVertices(), parts), nil
	case "load-balanced":
		return graph.PartitionLoadBalanced(g, parts), nil
	case "locality":
		// Keep communities on one GPN (saving crossbar traffic) while
		// spreading them over its PEs for parallelism.
		return graph.PartitionLocalityHierarchical(g, gpns, pesPerGPN), nil
	default:
		return nil, fmt.Errorf("nova: unknown mapping %q", a.mapping)
	}
}

// system builds a fresh simulated machine holding g.
func (a *Accelerator) system(g *graph.CSR) (*core.System, error) {
	part, err := a.partition(g)
	if err != nil {
		return nil, err
	}
	return core.NewSystem(a.cc, g, part)
}

// Accelerator runs programs on the simulated NOVA machine. It implements
// program.Runner.
type Accelerator struct {
	// cc, mapping and seed are the resolved configuration; fp is its
	// fingerprint, rendered once.
	cc      core.Config
	mapping string
	seed    int64
	fp      string
}

// New validates the configuration and returns an Accelerator.
func New(cfg Config) (*Accelerator, error) {
	cc, err := cfg.coreConfig()
	if err != nil {
		return nil, err
	}
	a := &Accelerator{cc: cc, mapping: cfg.Mapping, seed: cfg.Seed}
	if a.mapping == "" {
		a.mapping = "random"
	}
	if a.seed == 0 {
		a.seed = 1
	}
	if _, err := a.partition(graph.FromEdges("probe", 1, nil)); err != nil {
		return nil, err
	}
	a.fp = fingerprint("nova", struct {
		Core    core.Config
		Mapping string
		Seed    int64
	}{resultKnobs(cc), a.mapping, a.seed})
	return a, nil
}

// resultKnobs clears the core fields that only steer the host — worker
// count, watchdog, poll stride, observer — none of which can change a
// result.
func resultKnobs(cc core.Config) core.Config {
	cc.Shards, cc.StallTimeout, cc.PollEvents, cc.Observer = 0, 0, 0, nil
	return cc
}

// fingerprint renders an engine's identity, novad's result-cache key: the
// engine name and every field of the configuration it runs, after
// translation and default resolution. Two configurations that run alike
// share a fingerprint, and any knob that changes a result changes it.
func fingerprint(engine string, cfg any) string { return fmt.Sprintf("%s%+v", engine, cfg) }

// option is one numeric knob and its name, for nonNegative.
type option struct {
	name  string
	value float64
}

// nonNegative rejects the first negative knob by name: zero selects a
// knob's default, and no size or count is negative.
func nonNegative(opts ...option) error {
	for _, o := range opts {
		if o.value < 0 {
			return fmt.Errorf("nova: %s = %v is negative", o.name, o.value)
		}
	}
	return nil
}

// Report is the outcome of one accelerator run.
type Report struct {
	// Props holds the final vertex properties.
	Props []program.Prop
	// Stats is the engine-agnostic summary.
	Stats program.RunStats
	// Cycles is the simulated cycle count at 2 GHz.
	Cycles uint64

	// EdgeUtilization is the achieved fraction of edge-memory bandwidth.
	EdgeUtilization float64
	// Vertex-memory bandwidth fractions (Fig. 10 bars).
	VertexUsefulFrac   float64
	VertexWriteFrac    float64
	VertexWastefulFrac float64
	// Time attribution (Fig. 6): overfetch overhead vs processing.
	ProcessingSeconds float64
	OverheadSeconds   float64
	// CacheHitRate of the MPU vertex caches.
	CacheHitRate float64
	// OnChipBytes is the modeled on-chip storage.
	OnChipBytes int64
	// Spills, DirectPushes, SpillWrites, StaleRetrievals and
	// MetadataBytes instrument the Table I spilling trade-offs.
	Spills          uint64
	DirectPushes    uint64
	SpillWrites     uint64
	StaleRetrievals uint64
	MetadataBytes   uint64
	// NetworkBytes and NetworkInterBytes count fabric traffic;
	// NetworkMessagesCoalesced and NetworkBytesSaved instrument the
	// fabric's in-flight coalescing stage, and NetworkAvgHops is the mean
	// inter-GPN links traversed per cross-GPN message.
	NetworkBytes             uint64
	NetworkInterBytes        uint64
	NetworkMessagesCoalesced uint64
	NetworkBytesSaved        uint64
	NetworkAvgHops           float64
	// LoadImbalance is max(per-PE propagations)/mean (1.0 = balanced).
	LoadImbalance float64
	// Out-of-core tier traffic (all zero unless Config.OutOfCore):
	// partition page-in events, their page-rounded volume, and the SSD
	// latency they exposed, in cycles.
	PartitionLoads uint64
	BytesPaged     uint64
	IOStallCycles  uint64
	// Shards is the worker-goroutine count the run executed with;
	// Windows counts conservative synchronization windows, and the two
	// wall-clock fields split host time between in-window execution and
	// barrier synchronization (all zero-window for 1-GPN systems).
	Shards             int
	Windows            uint64
	WindowWallSeconds  float64
	BarrierWallSeconds float64
	// Partial marks a salvaged report: the run stopped early (cancelled,
	// deadline, budget, or watchdog stall) and the stats cover only the
	// work completed before the stop. StopReason names the cause
	// ("cancelled", "deadline", "budget", "stalled").
	Partial    bool
	StopReason string
	// Dump is the full hierarchical statistics dump (per-PE, per-channel,
	// per-link detail); the flat fields above are its root-level records.
	Dump *stats.Dump
}

// GTEPS returns effective throughput: sequential-work edges per second in
// billions (the paper's headline metric), computed against the graph's
// total edge count as a neutral denominator.
func (r *Report) GTEPS(g *graph.CSR) float64 {
	if r.Stats.SimSeconds <= 0 {
		return 0
	}
	return float64(g.NumEdges()) / r.Stats.SimSeconds / 1e9
}

// Run executes p on g and returns a detailed report.
func (a *Accelerator) Run(p program.Program, g *graph.CSR) (*Report, error) {
	return a.RunContext(context.Background(), p, g)
}

// RunContext is Run under a context. Cancellation is observed
// cooperatively (each engine shard polls every few thousand events, the
// cluster at every window barrier), so the simulation stops within one
// poll interval. On a cooperative stop — cancellation, deadline, event
// budget, or watchdog stall — RunContext salvages the statistics so far
// and returns BOTH a Report marked Partial (with its StopReason) and the
// error.
func (a *Accelerator) RunContext(ctx context.Context, p program.Program, g *graph.CSR) (*Report, error) {
	sys, err := a.system(g)
	if err != nil {
		return nil, err
	}
	res, err := sys.Run(ctx, p)
	if res == nil {
		return nil, err
	}
	return reportFromCore(res), err
}

func avgHops(res *core.Result) float64 {
	if res.Net.InterMessages == 0 {
		return 0
	}
	return float64(res.Net.HopsSum) / float64(res.Net.InterMessages)
}

func reportFromCore(res *core.Result) *Report {
	u, w, waste := res.VertexBWFractions()
	return &Report{
		Props:                    res.Props,
		Stats:                    res.Stats,
		Cycles:                   uint64(res.Ticks),
		EdgeUtilization:          res.EdgeUtilization,
		VertexUsefulFrac:         u,
		VertexWriteFrac:          w,
		VertexWastefulFrac:       waste,
		ProcessingSeconds:        res.ProcessingSeconds,
		OverheadSeconds:          res.OverheadSeconds,
		CacheHitRate:             res.CacheHitRate,
		OnChipBytes:              res.OnChipBytes,
		Spills:                   res.VMU.Spills,
		DirectPushes:             res.VMU.DirectPushes,
		SpillWrites:              res.VMU.SpillWrites,
		StaleRetrievals:          res.VMU.StaleRetrievals,
		MetadataBytes:            res.VMU.MetadataBytes,
		NetworkBytes:             res.Net.Bytes,
		NetworkInterBytes:        res.Net.InterBytes,
		NetworkMessagesCoalesced: res.Net.Coalesced,
		NetworkBytesSaved:        res.Net.BytesSaved,
		NetworkAvgHops:           avgHops(res),
		LoadImbalance:            res.LoadImbalance(),
		PartitionLoads:           res.PartitionLoads,
		BytesPaged:               res.BytesPaged,
		IOStallCycles:            uint64(res.IOStallTicks),
		Shards:                   res.Shards,
		Windows:                  res.Windows,
		WindowWallSeconds:        res.WindowWallSeconds,
		BarrierWallSeconds:       res.BarrierWallSeconds,
		Partial:                  res.Partial,
		StopReason:               string(res.StopReason),
		Dump:                     res.Dump,
	}
}

// RunTraced executes p on g while recording simulator activity (MGU
// propagation spans, VMU prefetch batches, drains, BSP barriers) and
// writes a Chrome trace-event JSON file (chrome://tracing, Perfetto) to w.
func (a *Accelerator) RunTraced(p program.Program, g *graph.CSR, w io.Writer) (*Report, error) {
	sys, err := a.system(g)
	if err != nil {
		return nil, err
	}
	tr := trace.New(a.cc.ClockHz)
	sys.SetTracer(tr)
	res, err := sys.Run(context.Background(), p)
	if err != nil {
		return nil, err
	}
	if err := tr.WriteJSON(w); err != nil {
		return nil, fmt.Errorf("nova: writing trace: %w", err)
	}
	return reportFromCore(res), nil
}

// RunProgram implements program.Runner.
func (a *Accelerator) RunProgram(p program.Program, g *graph.CSR) ([]program.Prop, program.RunStats, error) {
	rep, err := a.Run(p, g)
	if err != nil {
		return nil, program.RunStats{}, err
	}
	return rep.Props, rep.Stats, nil
}

// RunProgramContext is RunProgram under a context; on a cooperative stop
// the error carries the stop cause and the partial props/stats are
// returned alongside it.
func (a *Accelerator) RunProgramContext(ctx context.Context, p program.Program, g *graph.CSR) ([]program.Prop, program.RunStats, error) {
	rep, err := a.RunContext(ctx, p, g)
	if rep == nil {
		return nil, program.RunStats{}, err
	}
	return rep.Props, rep.Stats, err
}

var _ program.Runner = (*Accelerator)(nil)

// contextRunner is a program runner that observes a context: every
// engine here implements it.
type contextRunner interface {
	RunProgramContext(ctx context.Context, p program.Program, g *graph.CSR) ([]program.Prop, program.RunStats, error)
}

// ctxRunner binds a context to a context-aware program runner so the
// two-phase workloads (program.RunBC takes a plain program.Runner) stay
// cancellable between and within phases.
type ctxRunner struct {
	ctx   context.Context
	inner contextRunner
}

func (r ctxRunner) RunProgram(p program.Program, g *graph.CSR) ([]program.Prop, program.RunStats, error) {
	return r.inner.RunProgramContext(r.ctx, p, g)
}

// Engine returns the harness view of the accelerator. Each RunWorkload
// call builds a private core.System, so the engine is safe for concurrent
// use by harness.Pool workers.
//
// The metrics bag is derived from the run's stats dump (Report.Dump), so
// its keys are the dump's record paths: the root-level legacy keys
// (cycles, edge_utilization, vertex_useful_frac, vertex_write_frac,
// vertex_wasteful_frac, processing_seconds, overhead_seconds,
// cache_hit_rate, onchip_bytes, spills, direct_pushes, spill_writes,
// stale_retrievals, metadata_bytes, network_bytes, network_inter_bytes,
// load_imbalance — see the Metric* constants) plus hierarchical detail
// (gpn0.pe3.vmu.spills, network.gpn0.p2p_utilization, …). The two-phase
// "bc" workload reports Stats only.
func (a *Accelerator) Engine() harness.Engine { return novaEngine{a} }

type novaEngine struct{ acc *Accelerator }

func (e novaEngine) Name() string { return "nova" }

func (e novaEngine) Fingerprint() string { return e.acc.fp }

func (e novaEngine) RunWorkload(ctx context.Context, w harness.Workload) (*harness.Report, error) {
	acc := e.acc
	if w.MaxEvents > 0 {
		budgeted := *acc
		budgeted.cc.MaxEvents = w.MaxEvents
		acc = &budgeted
	}
	return runAdapted(w, e.Name(), e.Fingerprint(), ctxRunner{ctx, acc}, func(p program.Program, out *harness.Report) error {
		rep, err := acc.RunContext(ctx, p, w.G)
		if rep != nil {
			out.Props, out.Stats = rep.Props, rep.Stats
			out.Dump, out.Metrics = rep.Dump, rep.Dump.Bag()
			out.Shards = rep.Shards
			out.WindowWallSeconds = rep.WindowWallSeconds
			out.BarrierWallSeconds = rep.BarrierWallSeconds
		}
		return err
	})
}

var _ harness.Engine = novaEngine{}

// SequentialEdges exposes the work-efficiency denominator for a workload
// on a graph (Beamer's metric; see Section II-A).
func SequentialEdges(g *graph.CSR, root graph.VertexID, workload string, prIters int) int64 {
	return ref.SequentialEdges(g, root, workload, prIters)
}

// Verify checks accelerator output against the sequential oracles. It
// returns nil when the distances (BFS/SSSP) or labels (CC) match exactly.
func Verify(workload string, g *graph.CSR, root graph.VertexID, props []program.Prop) error {
	var want []int64
	switch workload {
	case "bfs":
		want = ref.BFS(g, root)
	case "sssp":
		want = ref.SSSP(g, root)
	case "cc":
		want = ref.CC(g)
	default:
		return fmt.Errorf("nova: Verify does not support workload %q", workload)
	}
	if len(props) != len(want) {
		return fmt.Errorf("nova: Verify: got %d properties, want %d", len(props), len(want))
	}
	for v := range want {
		got := int64(props[v])
		if props[v] == program.Inf {
			got = -1
		}
		if got != want[v] {
			return fmt.Errorf("nova: vertex %d: got %d, want %d", v, got, want[v])
		}
	}
	return nil
}
