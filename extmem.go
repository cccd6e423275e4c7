package nova

import (
	"context"
	"fmt"

	"nova/graph"
	"nova/internal/extmem"
	"nova/internal/harness"
	"nova/internal/mem"
	"nova/internal/stats"
	"nova/program"
)

// ExternalMemory runs programs on the external-memory baseline: a
// PartitionedVC/GridGraph-style out-of-core framework that keeps vertex
// state in DRAM and streams interval edge partitions from SSD through a
// bounded partition cache. It implements program.Runner for asynchronous
// programs (bfs, sssp, cc, prdelta); bulk-synchronous programs are
// rejected — interval-at-a-time processing is the async trade-off the
// NOVA spill/recovery comparison is about. Zero fields select their
// defaults; the JSON tags are novad's wire names.
type ExternalMemory struct {
	// RAMBytes is the DRAM partition-cache budget (default 256 MiB).
	RAMBytes int64 `json:"ram_bytes,omitempty"`
	// PartitionEdges is the target edges per vertex interval (default 1 Mi).
	PartitionEdges int64 `json:"partition_edges,omitempty"`
	// SSDPreset picks the paging device: "nvme" (default) or "sata".
	SSDPreset string `json:"ssd_preset,omitempty"`
	// MaxRounds bounds the outer loop (0 = default).
	MaxRounds int `json:"-"`
}

// ExternalMemoryReport extends the engine-agnostic stats with the
// out-of-core cost breakdown.
type ExternalMemoryReport struct {
	Props []program.Prop
	Stats program.RunStats
	// Cycles is total modeled time at 2 GHz; ComputeCycles the DRAM
	// streaming share; IOStallCycles the SSD latency compute could not
	// hide behind the prefetch pipeline.
	Cycles        uint64
	ComputeCycles uint64
	IOStallCycles uint64
	// PartitionLoads, BytesPaged, Evictions and CacheHitRate instrument
	// the DRAM partition cache.
	PartitionLoads uint64
	BytesPaged     uint64
	Evictions      uint64
	CacheHitRate   float64
	// Partitions and Rounds describe the interval schedule.
	Partitions int
	Rounds     int
	// Dump is the full hierarchical statistics dump (per-partition loads
	// and footprints); the flat fields above are its root-level records.
	Dump *stats.Dump
	// Partial marks a salvaged report from a run that stopped early;
	// StopReason classifies why ("cancelled", "deadline", "budget").
	Partial    bool
	StopReason string
}

// GTEPS returns effective throughput against the graph's edge count.
func (r *ExternalMemoryReport) GTEPS(g *graph.CSR) float64 {
	if r.Stats.SimSeconds <= 0 {
		return 0
	}
	return float64(g.NumEdges()) / r.Stats.SimSeconds / 1e9
}

// Validate reports the first invalid option.
func (b *ExternalMemory) Validate() error {
	_, err := b.config()
	return err
}

func (b *ExternalMemory) config() (extmem.Config, error) {
	cfg := extmem.DefaultConfig()
	if err := nonNegative(
		option{"ExternalMemory.RAMBytes", float64(b.RAMBytes)},
		option{"ExternalMemory.PartitionEdges", float64(b.PartitionEdges)},
		option{"ExternalMemory.MaxRounds", float64(b.MaxRounds)},
	); err != nil {
		return cfg, err
	}
	if b.RAMBytes > 0 {
		cfg.RAMBytes = b.RAMBytes
	}
	if b.PartitionEdges > 0 {
		cfg.PartitionEdges = b.PartitionEdges
	}
	switch b.SSDPreset {
	case "", "nvme":
		cfg.SSD = mem.NVMeSSDConfig("ssd")
	case "sata":
		cfg.SSD = mem.SATASSDConfig("ssd")
	default:
		return cfg, fmt.Errorf("nova: unknown SSD preset %q", b.SSDPreset)
	}
	cfg.MaxRounds = b.MaxRounds
	return cfg, nil
}

// Run executes p on g under the external-memory model.
func (b *ExternalMemory) Run(p program.Program, g *graph.CSR) (*ExternalMemoryReport, error) {
	return b.RunContext(context.Background(), p, g)
}

// RunContext executes p on g, polling ctx cooperatively per round and per
// partition. On a cooperative stop it returns BOTH a partial report
// (Partial set, with its StopReason) and the error.
func (b *ExternalMemory) RunContext(ctx context.Context, p program.Program, g *graph.CSR) (*ExternalMemoryReport, error) {
	cfg, err := b.config()
	if err != nil {
		return nil, err
	}
	res, err := extmem.Run(ctx, cfg, g, p)
	if res == nil {
		return nil, err
	}
	return &ExternalMemoryReport{
		Props:          res.Props,
		Stats:          res.Stats,
		Cycles:         uint64(res.Ticks),
		ComputeCycles:  uint64(res.ComputeTicks),
		IOStallCycles:  uint64(res.IOStallTicks),
		PartitionLoads: res.PartitionLoads,
		BytesPaged:     res.BytesPaged,
		Evictions:      res.Evictions,
		CacheHitRate:   res.CacheHitRate,
		Partitions:     res.Partitions,
		Rounds:         res.Rounds,
		Dump:           res.Dump,
		Partial:        res.Partial,
		StopReason:     string(res.StopReason),
	}, err
}

// RunProgram implements program.Runner.
func (b *ExternalMemory) RunProgram(p program.Program, g *graph.CSR) ([]program.Prop, program.RunStats, error) {
	rep, err := b.Run(p, g)
	if err != nil {
		return nil, program.RunStats{}, err
	}
	return rep.Props, rep.Stats, nil
}

// RunProgramContext is RunProgram with cooperative cancellation; on a
// cooperative stop the partial props and stats come back alongside the
// error.
func (b *ExternalMemory) RunProgramContext(ctx context.Context, p program.Program, g *graph.CSR) ([]program.Prop, program.RunStats, error) {
	rep, err := b.RunContext(ctx, p, g)
	if rep == nil {
		return nil, program.RunStats{}, err
	}
	return rep.Props, rep.Stats, err
}

var _ program.Runner = (*ExternalMemory)(nil)

// Engine returns the harness view of the external-memory baseline. Each
// RunWorkload call owns a private model, so the engine is safe for
// concurrent use by harness.Pool workers.
//
// The metrics bag is derived from the run's stats dump: root-level keys
// cycles, compute_cycles, io_stall_ticks, partition_loads, bytes_paged,
// cache_hit_rate, partitions, rounds, evictions plus per-partition detail
// (part0.loads, …). Workloads pr and bc are bulk-synchronous and rejected.
func (b *ExternalMemory) Engine() harness.Engine {
	cfg, _ := b.config() // an invalid b fails in RunWorkload
	return extmemEngine{*b, fingerprint("extmem", cfg)}
}

type extmemEngine struct {
	b  ExternalMemory
	fp string
}

func (e extmemEngine) Name() string { return "extmem" }

func (e extmemEngine) Fingerprint() string { return e.fp }

func (e extmemEngine) RunWorkload(ctx context.Context, w harness.Workload) (*harness.Report, error) {
	switch w.Name {
	case "pr", "bc":
		return nil, fmt.Errorf("nova: workload %q is bulk-synchronous; the extmem engine runs asynchronous workloads only (bfs, sssp, cc, prdelta)", w.Name)
	}
	return runAdapted(w, e.Name(), e.fp, nil, func(p program.Program, out *harness.Report) error {
		rep, err := e.b.RunContext(ctx, p, w.G)
		if rep != nil {
			out.Props, out.Stats = rep.Props, rep.Stats
			out.Dump, out.Metrics = rep.Dump, rep.Dump.Bag()
		}
		return err
	})
}

var _ harness.Engine = extmemEngine{}
