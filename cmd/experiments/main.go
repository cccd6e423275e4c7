// Command experiments regenerates every table and figure of the paper's
// evaluation section on the scaled dataset registry.
//
// Usage:
//
//	experiments -scale small|medium|full|large [-only fig4,tab1] [-jobs N] [-markdown]
//
// Each experiment prints the same rows/series the paper reports, plus a
// note recalling the paper's expected shape. Independent simulation cells
// fan out over -jobs worker goroutines through the harness pool; tables
// land on stdout (byte-identical at any -jobs value for the simulated
// engines), progress and timing lines on stderr.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"nova/internal/exp"
	"nova/internal/harness"
	"nova/internal/prof"
)

func main() {
	scaleFlag := flag.String("scale", "small", "dataset scale: small|medium|full|large")
	onlyFlag := flag.String("only", "", "comma-separated experiment IDs (default: all)")
	markdown := flag.Bool("markdown", false, "emit GitHub markdown instead of aligned text")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "concurrent simulation cells per experiment")
	quiet := flag.Bool("quiet", false, "suppress per-cell progress lines on stderr")
	shards := flag.Int("shards", 1, "simulation worker goroutines per NOVA cell (clamped to the cell's GPN count; results are bit-identical at every setting)")
	topology := flag.String("topology", "crossbar", "inter-GPN topology for every NOVA cell: crossbar|ring|mesh|torus (fignet sweeps all regardless)")
	coalesceWindow := flag.Int64("coalesce-window", 0, "in-fabric coalescing window in cycles for every NOVA cell (0 disables; fignet sweeps on/off regardless)")
	coalesceCap := flag.Int("coalesce-cap", 0, "coalescing buffer capacity in messages (0 = default; requires -coalesce-window)")
	profFlags := prof.RegisterFlags()
	flag.Parse()
	defer profFlags.Start()()
	exp.Shards = *shards
	exp.Topology = *topology
	exp.CoalesceWindow = *coalesceWindow
	exp.CoalesceCap = *coalesceCap

	if *list {
		for _, id := range exp.IDs() {
			fmt.Println(id)
		}
		return
	}
	scale, err := exp.ParseScale(*scaleFlag)
	if err != nil {
		fatal(err)
	}
	// Validate the fabric flags before any dataset is built: an unknown
	// topology or an inconsistent coalescing setting must fail instantly,
	// not after minutes of graph generation.
	if _, err := exp.NovaEngine(scale, 1); err != nil {
		fatal(err)
	}
	ids := exp.IDs()
	if *onlyFlag != "" {
		// Validate the full ID list up front — an unknown ID must fail
		// before any experiment burns time — and keep the user's order.
		ids = strings.Split(*onlyFlag, ",")
		for i, id := range ids {
			ids[i] = strings.TrimSpace(id)
			if _, ok := exp.All[ids[i]]; !ok {
				fatal(fmt.Errorf("unknown experiment %q (use -list)", ids[i]))
			}
		}
	}
	// SIGINT/SIGTERM cancel the sweep context: in-flight cells stop
	// cooperatively, undispatched cells report the cancellation, and the
	// process exits nonzero. A second signal kills the process the default
	// way, because stop() deregisters once the context is cancelled.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	context.AfterFunc(ctx, stopSignals)
	fmt.Printf("NOVA reproduction experiments — scale=%s\n", scale)
	for _, id := range ids {
		runner := exp.All[id]
		table, st, err := runOne(ctx, runner, id, scale, *jobs, !*quiet)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "experiments: %s interrupted\n", id)
				os.Exit(130)
			}
			fatal(fmt.Errorf("%s: %w", id, err))
		}
		if *markdown {
			table.Markdown(os.Stdout)
		} else {
			table.Render(os.Stdout)
		}
		fmt.Fprintf(os.Stderr, "  [%s completed in %v, %d cells, jobs=%d]\n",
			id, st.wall.Round(time.Millisecond), st.cells, *jobs)
	}
}

// sweepStats aggregates one experiment run: wall clock and cell count.
type sweepStats struct {
	wall  time.Duration
	cells int
}

func runOne(ctx context.Context, runner exp.Runner, id string, scale exp.Scale, jobs int, progress bool) (*exp.Table, sweepStats, error) {
	var st sweepStats
	pool := &harness.Pool{Workers: jobs}
	pool.OnDone = func(ev harness.Event) {
		st.cells++
		if progress {
			status := ""
			if ev.Err != nil {
				status = " FAILED"
			}
			fmt.Fprintf(os.Stderr, "  [%s %d/%d] %s (%v)%s\n",
				id, ev.Done, ev.Total, ev.Name, ev.Elapsed.Round(time.Millisecond), status)
		}
	}
	start := time.Now()
	table, err := runner(ctx, scale, pool)
	st.wall = time.Since(start)
	return table, st, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
