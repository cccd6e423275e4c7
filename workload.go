package nova

import (
	"context"
	"fmt"

	"nova/graph"
	"nova/internal/harness"
	"nova/internal/ref"
	"nova/internal/sim"
	"nova/program"
)

// WorkloadNames lists the paper's five evaluation workloads in Fig. 4
// order. BFS, CC and SSSP run asynchronously; PR and BC run bulk-
// synchronously (Section V).
var WorkloadNames = []string{"bfs", "sssp", "cc", "pr", "bc"}

// SpillStressWorkload is the sixth, non-paper workload: asynchronous
// delta PageRank keeps a large fraction of vertices simultaneously
// active, so on the large scale tier it drives the VMU's spill/recovery
// machinery far harder than the traversal workloads do. It runs on the
// nova and extmem engines — the software baseline has no generic
// asynchronous executor, and PolyGraph's temporal slicing degenerates
// when every vertex stays active (both reject it with an explanatory
// error).
const SpillStressWorkload = "prdelta"

// Outcome is the engine-agnostic result of running one workload through a
// program.Runner, with the sequential-work denominator attached so both
// throughput metrics of the paper are computable.
type Outcome struct {
	Workload string
	Stats    program.RunStats
	// SequentialEdges is the edges a sequential implementation traverses
	// (Beamer's work-efficiency numerator).
	SequentialEdges int64
	// Props holds the final properties (nil for BC, which returns Scores).
	Props []program.Prop
	// Scores holds BC dependency values.
	Scores []float64
	// Partial marks a salvaged outcome from a run that stopped early;
	// StopReason classifies why ("cancelled", "deadline", "budget",
	// "stalled"). Only RunWorkloadContext produces partial outcomes.
	Partial    bool
	StopReason string
}

// WorkEfficiency returns sequential edges / traversed edges.
func (o *Outcome) WorkEfficiency() float64 {
	return o.Stats.WorkEfficiency(o.SequentialEdges)
}

// EffectiveGTEPS returns useful giga-edges per second — the metric the
// paper's figures plot (TEPS × work efficiency).
func (o *Outcome) EffectiveGTEPS() float64 {
	return o.Stats.EffectiveGTEPS(o.SequentialEdges)
}

// workloadProgram builds the single-phase program for a workload name.
// "bc" is two-phase and handled separately via program.RunBC.
func workloadProgram(name string, root graph.VertexID, prIters int) (program.Program, error) {
	if prIters <= 0 {
		prIters = 10
	}
	switch name {
	case "bfs":
		return program.NewBFS(root), nil
	case "sssp":
		return program.NewSSSP(root), nil
	case "cc":
		return program.NewCC(), nil
	case "pr":
		return program.NewPageRank(0.85, prIters), nil
	case SpillStressWorkload:
		// The residual tolerance is absolute mass, which bounds the run in
		// both directions: it must sit well below the initial per-vertex
		// residual (1-d)/|V| — 1.9e-6 at the large tier's twitter — or the
		// computation converges before it starts, while total activations
		// are capped by total-mass/tolerance, so every 10× of extra slack
		// buys ~10× more simulated work. 1e-7 stays below the initial
		// residual of every registry graph at every tier (2.9e-7 at
		// full-scale urand, the largest) and keeps the large-tier run
		// inside the simulator's event budget.
		return program.NewPRDelta(0.85, 1e-7), nil
	default:
		return nil, fmt.Errorf("nova: unknown workload %q", name)
	}
}

// RunWorkload executes the named workload on any engine implementing
// program.Runner. The transpose gT is needed only for "bc"; "cc" expects a
// symmetric graph. prIters configures PageRank (≤0 means 10).
func RunWorkload(r program.Runner, name string, g, gT *graph.CSR, root graph.VertexID, prIters int) (*Outcome, error) {
	return RunWorkloadContext(context.Background(), r, name, g, gT, root, prIters)
}

// RunWorkloadContext is RunWorkload with cooperative cancellation. When
// the runner is context-aware (it implements RunProgramContext, as every
// engine here does), a cancelled ctx stops the simulation within one
// poll interval and the partial outcome comes back alongside the error,
// with Partial and StopReason set.
func RunWorkloadContext(ctx context.Context, r program.Runner, name string, g, gT *graph.CSR, root graph.VertexID, prIters int) (*Outcome, error) {
	if cr, ok := r.(contextRunner); ok {
		r = ctxRunner{ctx, cr}
	}
	w := harness.Workload{Name: name, G: g, GT: gT, Root: root, PRIters: prIters}
	rep, err := runAdapted(w, "", "", r, func(p program.Program, out *harness.Report) (err error) {
		out.Props, out.Stats, err = r.RunProgram(p, g)
		return err
	})
	if rep == nil {
		return nil, err
	}
	return &Outcome{
		Workload:        name,
		Stats:           rep.Stats,
		SequentialEdges: rep.SequentialEdges,
		Props:           rep.Props,
		Scores:          rep.Scores,
		Partial:         rep.Partial,
		StopReason:      rep.StopReason,
	}, err
}

// runAdapted is the body RunWorkloadContext and the harness adapters
// share. It fills the report header and the work-efficiency denominator,
// runs "bc" as program.RunBC over bc, and hands every other workload's
// single-phase program to run; a nil bc hands "bc" to run as well, with
// a nil program, for engines with their own BC kernel. A cooperative stop
// is salvaged as a Partial report; any other error discards the report.
func runAdapted(w harness.Workload, engine, fingerprint string, bc program.Runner, run func(p program.Program, out *harness.Report) error) (*harness.Report, error) {
	prIters := w.PRIters
	if prIters <= 0 {
		prIters = 10
	}
	out := &harness.Report{
		Engine:          engine,
		Fingerprint:     fingerprint,
		Workload:        w.Name,
		Tier:            w.Tier,
		SequentialEdges: ref.SequentialEdges(w.G, w.Root, w.Name, prIters),
	}
	var err error
	switch {
	case w.Name == "bc" && bc != nil:
		out.Scores, out.Stats, err = program.RunBC(bc, w.G, transposeOf(w), w.Root)
	case w.Name == "bc":
		err = run(nil, out)
	default:
		var p program.Program
		if p, err = workloadProgram(w.Name, w.Root, prIters); err != nil {
			return nil, err
		}
		err = run(p, out)
	}
	if err != nil {
		reason := sim.ReasonFor(err)
		if reason == "" {
			return nil, err
		}
		out.Partial, out.StopReason = true, string(reason)
	}
	return out, err
}

// transposeOf returns the workload's transpose, building it when the
// caller did not supply one.
func transposeOf(w harness.Workload) *graph.CSR {
	if w.GT != nil {
		return w.GT
	}
	return w.G.Transpose()
}
