package nova

import (
	"context"
	"fmt"

	"nova/graph"
	"nova/internal/harness"
	"nova/internal/ligra"
	"nova/internal/polygraph"
	"nova/internal/sim"
	"nova/internal/stats"
	"nova/program"
)

// PolyGraphBaseline runs programs on the temporal-partitioning baseline
// accelerator model. It implements program.Runner. Zero fields select
// their defaults; the JSON tags are novad's wire names.
type PolyGraphBaseline struct {
	// OnChipBytes is the scratchpad capacity (default 32 MiB; scaled
	// experiments shrink it to keep Table III slice counts).
	OnChipBytes int64 `json:"onchip_bytes,omitempty"`
	// MemBandwidth is unified off-chip bandwidth in bytes/second
	// (default 332.8 GB/s, the iso-bandwidth setting).
	MemBandwidth float64 `json:"-"`
	// ForceSlices overrides the computed slice count when positive.
	ForceSlices int `json:"force_slices,omitempty"`
}

// PolyGraphReport extends the engine-agnostic stats with the temporal-
// partitioning breakdown of Figs. 2 and 6.
type PolyGraphReport struct {
	Props               []program.Prop
	Stats               program.RunStats
	ProcessingSeconds   float64
	SwitchingSeconds    float64
	InefficiencySeconds float64
	SliceCount          int
	Rounds              int
	SlicePasses         int
	EdgeBandwidthShare  float64
	// Dump is the full hierarchical statistics dump (per-slice schedule,
	// traffic split); the flat fields above are its root-level records.
	Dump *stats.Dump
	// Partial marks a salvaged report from a run that stopped early;
	// StopReason classifies why ("cancelled", "deadline", "budget").
	Partial    bool
	StopReason string
}

// GTEPS returns effective throughput against the graph's edge count.
func (r *PolyGraphReport) GTEPS(g *graph.CSR) float64 {
	if r.Stats.SimSeconds <= 0 {
		return 0
	}
	return float64(g.NumEdges()) / r.Stats.SimSeconds / 1e9
}

// Validate reports the first invalid option.
func (b *PolyGraphBaseline) Validate() error {
	_, err := b.config()
	return err
}

func (b *PolyGraphBaseline) config() (polygraph.Config, error) {
	cfg := polygraph.DefaultConfig()
	if b.OnChipBytes > 0 {
		cfg.OnChipBytes = b.OnChipBytes
	}
	if b.MemBandwidth > 0 {
		cfg.MemBandwidth = b.MemBandwidth
	}
	cfg.ForceSlices = b.ForceSlices
	return cfg, nonNegative(
		option{"PolyGraphBaseline.OnChipBytes", float64(b.OnChipBytes)},
		option{"PolyGraphBaseline.MemBandwidth", b.MemBandwidth},
		option{"PolyGraphBaseline.ForceSlices", float64(b.ForceSlices)},
	)
}

// Run executes p on g under the PolyGraph model.
func (b *PolyGraphBaseline) Run(p program.Program, g *graph.CSR) (*PolyGraphReport, error) {
	return b.RunContext(context.Background(), p, g)
}

// RunContext executes p on g, polling ctx cooperatively between rounds
// and slice activations. On a cooperative stop (cancellation, deadline,
// round-budget exhaustion) it returns BOTH a partial report (Partial set,
// with its StopReason) and the error.
func (b *PolyGraphBaseline) RunContext(ctx context.Context, p program.Program, g *graph.CSR) (*PolyGraphReport, error) {
	cfg, err := b.config()
	if err != nil {
		return nil, err
	}
	res, err := polygraph.Run(ctx, cfg, g, p)
	if res == nil {
		return nil, err
	}
	return &PolyGraphReport{
		Props:               res.Props,
		Stats:               res.Stats,
		ProcessingSeconds:   res.ProcessingSeconds,
		SwitchingSeconds:    res.SwitchingSeconds,
		InefficiencySeconds: res.InefficiencySeconds,
		SliceCount:          res.SliceCount,
		Rounds:              res.Rounds,
		SlicePasses:         res.SlicePasses,
		EdgeBandwidthShare:  res.EdgeBandwidthShare,
		Dump:                res.Dump,
		Partial:             res.Partial,
		StopReason:          string(res.StopReason),
	}, err
}

// RunProgram implements program.Runner.
func (b *PolyGraphBaseline) RunProgram(p program.Program, g *graph.CSR) ([]program.Prop, program.RunStats, error) {
	rep, err := b.Run(p, g)
	if err != nil {
		return nil, program.RunStats{}, err
	}
	return rep.Props, rep.Stats, nil
}

// RunProgramContext is RunProgram with cooperative cancellation; on a
// cooperative stop the partial props and stats come back alongside the
// error so multi-phase drivers can salvage what completed.
func (b *PolyGraphBaseline) RunProgramContext(ctx context.Context, p program.Program, g *graph.CSR) ([]program.Prop, program.RunStats, error) {
	rep, err := b.RunContext(ctx, p, g)
	if rep == nil {
		return nil, program.RunStats{}, err
	}
	return rep.Props, rep.Stats, err
}

var _ program.Runner = (*PolyGraphBaseline)(nil)

// Engine returns the harness view of the PolyGraph baseline. Each
// RunWorkload call owns a private simulation, so the engine is safe for
// concurrent use by harness.Pool workers.
//
// The metrics bag is derived from the run's stats dump (the
// PolyGraphReport.Dump tree): root-level legacy keys processing_seconds,
// switching_seconds, inefficiency_seconds, slice_count, rounds,
// slice_passes, edge_bw_share plus traffic counters and per-slice detail
// (slice0.passes, …). The two-phase "bc" workload reports Stats only.
func (b *PolyGraphBaseline) Engine() harness.Engine {
	cfg, _ := b.config() // an invalid b fails in RunWorkload
	return pgEngine{*b, fingerprint("polygraph", cfg)}
}

type pgEngine struct {
	b  PolyGraphBaseline
	fp string
}

func (e pgEngine) Name() string { return "polygraph" }

func (e pgEngine) Fingerprint() string { return e.fp }

func (e pgEngine) RunWorkload(ctx context.Context, w harness.Workload) (*harness.Report, error) {
	if w.Name == SpillStressWorkload {
		// PolyGraph can execute the program, but an always-active delta
		// workload defeats temporal slicing — every slice pass touches
		// every vertex — so runs take hours at scales NOVA finishes in
		// minutes. The workload exists to stress NOVA's VMU; keep it there.
		return nil, fmt.Errorf("nova: %q is the NOVA spill-stress workload; run it on the nova engine", w.Name)
	}
	return runAdapted(w, e.Name(), e.fp, ctxRunner{ctx, &e.b}, func(p program.Program, out *harness.Report) error {
		rep, err := e.b.RunContext(ctx, p, w.G)
		if rep != nil {
			out.Props, out.Stats = rep.Props, rep.Stats
			out.Dump, out.Metrics = rep.Dump, rep.Dump.Bag()
		}
		return err
	})
}

var _ harness.Engine = pgEngine{}

// Software runs the Ligra-style shared-memory framework on the host and
// reports wall-clock performance — the paper's software reference point.
// The JSON tag is novad's wire name.
type Software struct {
	// Threads bounds worker goroutines (0 = all cores).
	Threads int `json:"threads,omitempty"`
}

// Validate reports the first invalid option.
func (s *Software) Validate() error {
	return nonNegative(option{"Software.Threads", float64(s.Threads)})
}

// SoftwareReport is the outcome of one software run.
type SoftwareReport struct {
	// Seconds is wall-clock time; EdgesTraversed counts update attempts.
	Seconds        float64
	EdgesTraversed int64
	Iterations     int
	// Dists/Labels/Scores hold workload-specific outputs (one non-nil).
	Dists  []int64
	Ranks  []float64
	Scores []float64
	// Dump is the statistics dump (wall-clock and traversal counts are
	// marked volatile, so dump diffs skip them by default).
	Dump *stats.Dump
	// Partial marks a salvaged report: the kernel stopped between edgeMap
	// iterations because its context was cancelled. StopReason classifies
	// why ("cancelled", "deadline").
	Partial    bool
	StopReason string
}

// GTEPS returns traversed giga-edges per second.
func (r *SoftwareReport) GTEPS() float64 {
	if r.Seconds <= 0 {
		return 0
	}
	return float64(r.EdgesTraversed) / r.Seconds / 1e9
}

func (s *Software) engine() *ligra.Engine {
	e := ligra.NewEngine()
	if s.Threads > 0 {
		e.Threads = s.Threads
	}
	return e
}

// RunWorkload executes one of the five paper workloads by name ("bfs",
// "sssp", "cc", "pr", "bc"). gT (the transpose) is required for bfs, pr
// and bc; prIters configures PageRank.
func (s *Software) RunWorkload(name string, g, gT *graph.CSR, root graph.VertexID, prIters int) (*SoftwareReport, error) {
	return s.RunWorkloadContext(context.Background(), name, g, gT, root, prIters)
}

// RunWorkloadContext is RunWorkload with cooperative cancellation: the
// kernel checks ctx between edgeMap iterations and, when cancelled,
// returns the partial report (Partial set) alongside the context error.
func (s *Software) RunWorkloadContext(ctx context.Context, name string, g, gT *graph.CSR, root graph.VertexID, prIters int) (*SoftwareReport, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	e := s.engine()
	intr := sim.NewInterrupt()
	e.Interrupt = intr
	stop := sim.WatchContext(ctx, intr)
	defer stop()
	var rep *SoftwareReport
	var res ligra.Result
	switch name {
	case "bfs":
		d, r := e.BFS(g, gT, root)
		rep, res = &SoftwareReport{Dists: d}, r
	case "sssp":
		d, r := e.SSSP(g, nil, root)
		rep, res = &SoftwareReport{Dists: d}, r
	case "cc":
		d, r := e.CC(g)
		rep, res = &SoftwareReport{Dists: d}, r
	case "pr":
		if prIters <= 0 {
			prIters = 10
		}
		ranks, r := e.PR(g, gT, 0.85, prIters)
		rep, res = &SoftwareReport{Ranks: ranks}, r
	case "bc":
		sc, r := e.BC(g, gT, root)
		rep, res = &SoftwareReport{Scores: sc}, r
	case SpillStressWorkload:
		// The software baseline implements the five paper workloads as
		// dedicated kernels; there is no generic asynchronous executor to
		// run delta PageRank on.
		return nil, fmt.Errorf("nova: %q is the NOVA spill-stress workload; run it on the nova engine", name)
	default:
		return nil, fmt.Errorf("nova: unknown workload %q", name)
	}
	rep.Seconds, rep.EdgesTraversed, rep.Iterations = res.Seconds, res.EdgesTraversed, res.Iterations
	rep.Dump = e.StatsDump(res, map[string]string{
		"engine":   "ligra",
		"workload": name,
		"graph":    g.Name,
	})
	if err := intr.Err(); err != nil {
		rep.Partial = true
		rep.StopReason = string(sim.ReasonFor(err))
		return rep, err
	}
	return rep, nil
}

// Engine returns the harness view of the software framework. Stats report
// wall-clock seconds (the software reference point measures real time, so
// unlike the simulated engines its timings vary run to run and tighten
// when cells share cores).
//
// The metrics bag is derived from the run's stats dump: legacy keys
// iterations and wall_seconds plus edges_traversed, the push/pull
// direction profile and frontier-size distribution. Distance outputs
// (bfs/sssp/cc) convert to Props with -1 mapping to program.Inf;
// PageRank ranks and BC scores land in Scores.
func (s *Software) Engine() harness.Engine { return ligraEngine{*s, fingerprint("ligra", *s)} }

type ligraEngine struct {
	s  Software
	fp string
}

func (e ligraEngine) Name() string { return "ligra" }

func (e ligraEngine) Fingerprint() string { return e.fp }

func (e ligraEngine) RunWorkload(ctx context.Context, w harness.Workload) (*harness.Report, error) {
	return runAdapted(w, e.Name(), e.fp, nil, func(_ program.Program, out *harness.Report) error {
		rep, err := e.s.RunWorkloadContext(ctx, w.Name, w.G, transposeOf(w), w.Root, w.PRIters)
		if rep == nil {
			return err
		}
		out.Stats = program.RunStats{SimSeconds: rep.Seconds, EdgesTraversed: rep.EdgesTraversed}
		out.Dump, out.Metrics = rep.Dump, rep.Dump.Bag()
		if rep.Dists != nil {
			out.Props = make([]program.Prop, len(rep.Dists))
			for i, d := range rep.Dists {
				if d < 0 {
					out.Props[i] = program.Inf
				} else {
					out.Props[i] = program.Prop(d)
				}
			}
		}
		switch {
		case rep.Ranks != nil:
			out.Scores = rep.Ranks
		case rep.Scores != nil:
			out.Scores = rep.Scores
		}
		return err
	})
}

var _ harness.Engine = ligraEngine{}
