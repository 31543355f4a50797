// Package experiments regenerates every table and figure of the paper's
// evaluation section (§5). Each FigN function runs the corresponding
// scenario on the full protocol stack and returns the series the paper
// plots; the WriteTo methods print them as aligned text tables.
//
// Absolute numbers come from this repository's simulator, not the authors'
// NetSquid testbed, so the comparison target is the *shape* of each result:
// who wins, where the knees and crossovers sit, and the scaling trends.
// The *Quick tests in experiments_test.go assert those claims per figure;
// a generated paper-versus-measured ledger is an open ROADMAP item.
package experiments

import (
	"context"
	"fmt"
	"io"

	"qnp/internal/runner"
	"qnp/qnet"
)

// Options control experiment size.
type Options struct {
	// Runs is the number of independent simulation replicas averaged per
	// point (the paper uses 100). The effective count is 1 when Quick and
	// min(Runs, 3) otherwise; Fig. 5 is uncapped and pools Runs link-layer
	// sample batches. Runs < 1 counts as 1.
	Runs int
	Seed int64
	// Quick shrinks workloads (fewer pairs, shorter horizons) for smoke
	// runs and benchmarks.
	Quick bool
	// Workers caps the replica runner's worker pool (0 = NumCPU). The
	// value only changes wall-clock time: figure aggregates are
	// bit-identical for any worker count.
	Workers int
	// Progress, when non-nil, receives a tick after each simulation
	// replica of the current figure completes.
	Progress func(done, total int)
	// Context, when non-nil, cancels the remaining replicas of the
	// current figure early. A cancelled figure's aggregates include
	// zero values for the replicas that never ran, so callers must
	// treat its output as garbage and discard it (cmd/figures does).
	Context context.Context
	// Physics selects the pair-state engine for the figures that support
	// it (fig9, eer, churn, city, multipath). The other figures always
	// run exact: they measure fidelity-sensitive quantities the Werner
	// approximation is not meant to reproduce.
	Physics qnet.Physics
}

// DefaultOptions is the standard reproduction size.
func DefaultOptions() Options { return Options{Runs: 10, Seed: 1} }

// QuickOptions is the smoke-test size.
func QuickOptions() Options { return Options{Runs: 2, Seed: 1, Quick: true} }

func (o Options) runnerOpts() runner.Options {
	return runner.Options{Workers: o.Workers, Seed: o.Seed, Progress: o.Progress, Context: o.Context}
}

// replicas is the per-cell replica count of a grid: 1 when quick,
// otherwise Runs capped at 3, and never below 1.
func (o Options) replicas() int {
	if o.Quick || o.Runs < 1 {
		return 1
	}
	return min(o.Runs, 3)
}

// grid is a figure's evaluation method: each cell, in output order,
// averages o.replicas() independent replicas. The grid runs on the replica
// runner with the replica innermost, so job c·runs+r draws
// runner.DeriveSeed(o.Seed, c·runs+r), and the results come back grouped
// by cell. Cancellation returns the partial results, which cmd/figures
// discards.
func grid[C, R any](o Options, cells []C, run func(c C, replica int, seed int64) R) [][]R {
	runs := o.replicas()
	flat, _ := runner.Run(o.runnerOpts(), len(cells)*runs, func(i int, seed int64) R {
		return run(cells[i/runs], i%runs, seed)
	})
	byCell := make([][]R, len(cells))
	for c := range byCell {
		byCell[c] = flat[c*runs : (c+1)*runs]
	}
	return byCell
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
}
