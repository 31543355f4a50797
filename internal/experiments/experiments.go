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
	"bytes"
	"context"
	"encoding/json"
	"errors"
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
	// Backend, when non-nil, executes each figure's sweep through the
	// runner's Backend seam (a runner.Fleet shards it across worker
	// processes). Replica seeding and aggregation order are
	// backend-independent, so figure output is bit-identical for any
	// backend and shard count.
	Backend runner.Backend
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

// replicas is the per-cell replica count of a sweep: 1 when quick,
// otherwise Runs capped at 3, and never below 1.
func (o Options) replicas() int {
	if o.Quick || o.Runs < 1 {
		return 1
	}
	return min(o.Runs, 3)
}

// A sweep is one figure's evaluation method: a parameter grid whose cells
// each average independent replicas. P holds everything a replica needs
// besides its cell — including values the parent probes once, so replicas
// never probe — and must JSON round-trip exactly (ints and float64s do):
// a shard worker, which holds only the serialized sweepJob, rebuilds the
// cells from P and runs any job of the grid. That is what keeps sharded
// figure output byte-identical.
type sweep[P, C, R any] struct {
	fig   string
	cells func(P) []C // in output order
	run   func(p P, c C, replica int, seed int64) R
}

// sweepJob is the wire form of a sweep: Runs replicas of every cell of
// figure Fig's grid under Params.
type sweepJob[P any] struct {
	Fig    string
	Runs   int
	Params P
}

// sweepKind is the runner job kind for figure sweeps: payload = sweepJob,
// result = the run function's JSON-encoded return value.
const sweepKind = "experiments.sweep"

// sweeper is a sweep with its types erased, as a worker rebuilds it.
type sweeper interface {
	rebuild(params json.RawMessage, runs int) (jobs int, run func(i int, seed int64) any, err error)
}

// sweeps is every figure sweep a worker can rebuild, by sweepJob.Fig.
var sweeps = map[string]sweeper{
	fig5Sweep.fig: fig5Sweep, fig8Sweep.fig: fig8Sweep, fig9Sweep.fig: fig9Sweep,
	fig10ABSweep.fig: fig10ABSweep, fig10CSweep.fig: fig10CSweep, topoSweep.fig: topoSweep,
	hubSweep.fig: hubSweep, diversitySweep.fig: diversitySweep, eerSweep.fig: eerSweep,
	churnSweep.fig: churnSweep, citySweep.fig: citySweep, multipathSweep.fig: multipathSweep,
}

func init() { runner.RegisterKind(sweepKind, runSweepJob) }

// runSweepJob runs job i of a serialized sweep: the worker half of
// sweep.runN's Backend path.
func runSweepJob(payload []byte, i int, seed int64) ([]byte, error) {
	jobs, run, err := decodeSweepJob(payload)
	if err != nil {
		return nil, err
	}
	if i < 0 || i >= jobs {
		return nil, fmt.Errorf("experiments: sweep %s has %d jobs, got index %d", payload, jobs, i)
	}
	return json.Marshal(run(i, seed))
}

// decodeSweepJob rebuilds a serialized sweep's job count and job function.
func decodeSweepJob(payload []byte) (int, func(i int, seed int64) any, error) {
	var j sweepJob[json.RawMessage]
	if err := decodeStrict(payload, &j); err != nil {
		return 0, nil, fmt.Errorf("experiments: decode sweep job: %w", err)
	}
	s := sweeps[j.Fig]
	if s == nil {
		return 0, nil, fmt.Errorf("experiments: unknown figure sweep %q", j.Fig)
	}
	return s.rebuild(j.Params, j.Runs)
}

// decodeStrict decodes exactly one JSON value into v. The bytes come from
// another process, so unknown fields and trailing data are errors rather
// than silently dropped.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the value")
	}
	return nil
}

func (s *sweep[P, C, R]) rebuild(raw json.RawMessage, runs int) (int, func(i int, seed int64) any, error) {
	var p P
	if err := decodeStrict(raw, &p); err != nil {
		return 0, nil, fmt.Errorf("experiments: decode %s params: %w", s.fig, err)
	}
	cells := s.cells(p)
	return len(cells) * runs, func(i int, seed int64) any { return s.run(p, cells[i/runs], i%runs, seed) }, nil
}

// Run runs o.replicas() replicas of every cell and returns the cells with
// their results grouped by cell.
func (s *sweep[P, C, R]) Run(o Options, p P) ([]C, [][]R) { return s.runN(o, o.replicas(), p) }

// runN runs the cells × runs grid with the replica innermost, so job
// c·runs+r draws runner.DeriveSeed(o.Seed, c·runs+r) — locally on the
// goroutine pool, or through o.Backend when set. Infrastructure failures
// (a shard crashing past its retries, undecodable results) panic, like any
// other impossible condition inside a figure; cancellation returns the
// partial results, which cmd/figures discards.
func (s *sweep[P, C, R]) runN(o Options, runs int, p P) ([]C, [][]R) {
	cells := s.cells(p)
	jobs := len(cells) * runs
	var flat []R
	if o.Backend == nil {
		flat, _ = runner.Run(o.runnerOpts(), jobs, func(i int, seed int64) R {
			return s.run(p, cells[i/runs], i%runs, seed)
		})
	} else {
		payload, err := json.Marshal(sweepJob[P]{Fig: s.fig, Runs: runs, Params: p})
		if err != nil {
			panic(fmt.Sprintf("experiments: encode %s sweep: %v", s.fig, err))
		}
		flat, err = runner.Collect[R](o.Backend, runner.ExecRequest{
			Kind: sweepKind, Payload: payload, Replicas: jobs, Options: o.runnerOpts(),
		})
		if err != nil && (o.Context == nil || o.Context.Err() == nil) {
			panic(fmt.Sprintf("experiments: %s sweep on %T: %v", s.fig, o.Backend, err))
		}
	}
	byCell := make([][]R, len(cells))
	for c := range byCell {
		byCell[c] = flat[c*runs : (c+1)*runs]
	}
	return cells, byCell
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
}
