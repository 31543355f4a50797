// Package experiments regenerates every table and figure of the paper's
// evaluation section (§5). Each FigN function runs the corresponding
// scenario on the full protocol stack and returns the series the paper
// plots; the WriteTo methods print them as aligned text tables.
//
// Absolute numbers come from this repository's simulator, not the authors'
// NetSquid testbed, so the comparison target is the *shape* of each result:
// who wins, where the knees and crossovers sit, and the scaling trends.
// EXPERIMENTS.md records paper-versus-measured for every item.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"qnp/internal/runner"
	"qnp/internal/sim"
	"qnp/qnet"
)

// Options control experiment size. Runs is the number of independent
// simulation repetitions averaged per point (the paper uses 100; the
// default here is smaller so the whole suite regenerates in minutes).
type Options struct {
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
	// Backend, when non-nil, executes each figure's replica grid through
	// the runner's Backend seam (a runner.Fleet shards it across worker
	// processes). Replica seeding and aggregation order are
	// backend-independent, so figure output is bit-identical for any
	// backend and shard count.
	Backend runner.Backend
	// Physics selects the pair-state engine for the figures that support
	// it (fig9, eer, churn, city — the cross-engine validation set). The
	// other figures always run exact: they measure fidelity-sensitive
	// quantities the Werner approximation is not meant to reproduce.
	Physics qnet.Physics
}

// DefaultOptions is the standard reproduction size.
func DefaultOptions() Options { return Options{Runs: 10, Seed: 1} }

// QuickOptions is the smoke-test size.
func QuickOptions() Options { return Options{Runs: 2, Seed: 1, Quick: true} }

func (o Options) runnerOpts() runner.Options {
	return runner.Options{Workers: o.Workers, Seed: o.Seed, Progress: o.Progress, Context: o.Context}
}

// Figures fan their scenario grid × replica matrix through the runner as a
// "grid": the job count plus a function running job i from its seed. Every
// grid is registered by figure ID with a constructor that rebuilds it from
// (Options, params) alone, so a shard worker process — which holds only
// the serialized gridJob — re-derives the exact same job list and runs any
// index of it. Grid results must JSON round-trip exactly (ints and
// float64s do); that is what keeps sharded figure output byte-identical.

// grid is one figure's replica matrix.
type grid struct {
	n   int
	run func(i int, seed int64) any
}

// wireOptions is the serializable Options subset a worker needs to rebuild
// a grid. Workers, Progress, Context and Backend stay parent-side: they
// steer execution, never results.
type wireOptions struct {
	Runs    int
	Seed    int64
	Quick   bool
	Physics qnet.Physics `json:",omitempty"`
}

func (w wireOptions) options() Options {
	return Options{Runs: w.Runs, Seed: w.Seed, Quick: w.Quick, Physics: w.Physics}
}

// gridJob is the wire form of "one replica of figure Fig's grid".
type gridJob struct {
	Fig    string
	Opts   wireOptions
	Params json.RawMessage `json:",omitempty"`
}

// gridFuncs rebuilds a figure's grid from its wire coordinates; populated
// in each figure file's init, so parent and re-exec'd worker share it.
var gridFuncs = map[string]func(o Options, params json.RawMessage) (grid, error){}

func registerGrid(fig string, mk func(o Options, params json.RawMessage) (grid, error)) {
	if _, dup := gridFuncs[fig]; dup {
		panic("experiments: grid " + fig + " registered twice")
	}
	gridFuncs[fig] = mk
}

// gridKind is the runner job kind for figure grids: payload = gridJob,
// result = the grid run function's JSON-encoded return value.
const gridKind = "experiments.grid"

// gridMemo caches the last rebuilt grid by payload: a shard worker serves
// one payload for its whole replica range, so rebuilding the grid (which
// for some figures probes a network, e.g. eer's allocation read) once
// instead of once per replica. Grid run functions are replica-pure, so
// reuse across concurrent replicas is safe.
var gridMemo struct {
	sync.Mutex
	payload string
	g       grid
	ok      bool
}

func gridFor(payload []byte) (grid, error) {
	gridMemo.Lock()
	defer gridMemo.Unlock()
	if gridMemo.ok && gridMemo.payload == string(payload) {
		return gridMemo.g, nil
	}
	var j gridJob
	if err := json.Unmarshal(payload, &j); err != nil {
		return grid{}, fmt.Errorf("experiments: decode grid job: %w", err)
	}
	mk := gridFuncs[j.Fig]
	if mk == nil {
		return grid{}, fmt.Errorf("experiments: unknown figure grid %q", j.Fig)
	}
	g, err := mk(j.Opts.options(), j.Params)
	if err != nil {
		return grid{}, fmt.Errorf("experiments: rebuild %s grid: %w", j.Fig, err)
	}
	gridMemo.payload, gridMemo.g, gridMemo.ok = string(payload), g, true
	return g, nil
}

func init() {
	runner.RegisterKind(gridKind, func(payload []byte, replica int, seed int64) ([]byte, error) {
		g, err := gridFor(payload)
		if err != nil {
			return nil, err
		}
		if replica < 0 || replica >= g.n {
			return nil, fmt.Errorf("experiments: grid %s has %d jobs, got index %d", payload, g.n, replica)
		}
		return json.Marshal(g.run(replica, seed))
	})
}

// decodeParams is the grid constructors' params decoder (nil params decode
// to the zero value, for grids without any).
func decodeParams[P any](raw json.RawMessage) (P, error) {
	var p P
	if len(raw) == 0 {
		return p, nil
	}
	err := json.Unmarshal(raw, &p)
	return p, err
}

// gridMap runs figure fig's whole grid — locally on the goroutine pool, or
// through o.Backend when set — and returns the results in job order.
// params must be the same value the registered constructor derives g from.
// Infrastructure failures (a shard crashing past its retries, undecodable
// results) panic, like any other impossible condition inside a figure;
// cancellation returns the partial results, which cmd/figures discards.
func gridMap[T any](o Options, fig string, params any, g grid) []T {
	if o.Backend == nil {
		out, _ := runner.Run(o.runnerOpts(), g.n, func(i int, seed int64) T {
			return g.run(i, seed).(T)
		})
		return out
	}
	job := gridJob{Fig: fig, Opts: wireOptions{Runs: o.Runs, Seed: o.Seed, Quick: o.Quick, Physics: o.Physics}}
	if params != nil {
		raw, err := json.Marshal(params)
		if err != nil {
			panic(fmt.Sprintf("experiments: encode %s grid params: %v", fig, err))
		}
		job.Params = raw
	}
	payload, err := json.Marshal(job)
	if err != nil {
		panic(fmt.Sprintf("experiments: encode %s grid job: %v", fig, err))
	}
	out := make([]T, g.n)
	var decErr error
	ex, err := o.Backend.Dispatch(runner.ExecRequest{
		Kind: gridKind, Payload: payload, Replicas: g.n,
		Options: o.runnerOpts(),
	})
	if err == nil {
		for r := range ex.Results() {
			if e := json.Unmarshal(r.Data, &out[r.Replica]); e != nil && decErr == nil {
				decErr = fmt.Errorf("experiments: decode %s result %d: %w", fig, r.Replica, e)
			}
		}
		err = ex.Wait()
	}
	if err == nil {
		err = decErr
	}
	if err != nil {
		if o.Context != nil && o.Context.Err() != nil {
			return out // cancelled: partial results, discarded by the caller
		}
		panic(fmt.Sprintf("experiments: %s grid on %T: %v", fig, o.Backend, err))
	}
	return out
}

func mean(xs []float64) float64 { return runner.Mean(xs) }

func percentile(xs []float64, p float64) float64 { return runner.Percentile(xs, p) }

func seconds(d sim.Duration) float64 { return d.Seconds() }

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
}
