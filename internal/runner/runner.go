// Package runner runs independent simulation replicas on a goroutine pool.
// Every replica draws its RNG seed from the base seed and its own index
// alone, and results are collected in replica order, so aggregate output is
// bit-identical regardless of how many workers run or how the scheduler
// interleaves them. This is the execution platform for the experiment
// suite and qnpsim's -replicas: they fan their scenario grid × replica
// matrix through Run without touching experiment code.
package runner

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// SeedStride separates per-replica seed streams. Replica seeds are
// base*SeedStride + replica, so distinct bases give disjoint streams for
// any replica count below the stride.
const SeedStride = 7919

// DeriveSeed returns the deterministic RNG seed for one replica of a run.
func DeriveSeed(base int64, replica int) int64 {
	return base*SeedStride + int64(replica)
}

// Options configure a parallel run.
type Options struct {
	// Workers is the pool size; 0 means runtime.NumCPU(). The value never
	// affects results, only wall-clock time.
	Workers int
	// Seed is the base seed; replica i runs with DeriveSeed(Seed, i).
	Seed int64
	// Progress, when non-nil, is called after each replica completes with
	// the number finished so far and the total. Calls are serialized, and
	// Progress never fires after the context is cancelled — replicas that
	// were already in flight still finish and their results are recorded,
	// but they tick no progress.
	Progress func(done, total int)
	// Context, when non-nil, cancels the run: workers stop claiming new
	// replicas once it is done and Run returns the context's error with
	// the partial results (unclaimed slots hold zero values). Replicas in
	// flight at cancellation run to completion — their slots hold real
	// results — but their Progress callbacks are suppressed.
	Context context.Context
}

func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes fn for replicas 0..replicas-1 across the worker pool and
// returns the results in replica order. fn must be self-contained: it
// builds its own simulation from the seed it is handed and shares no
// mutable state with other replicas.
func Run[T any](o Options, replicas int, fn func(replica int, seed int64) T) ([]T, error) {
	out := make([]T, replicas)
	err := dispatch(o, replicas, func(i int) {
		out[i] = fn(i, DeriveSeed(o.Seed, i))
	})
	return out, err
}

// dispatch is the shared pool: workers claim replica indices from an
// atomic counter until the range is exhausted or the context fires.
func dispatch(o Options, n int, work func(i int)) error {
	ctx := o.Context
	var claim atomic.Int64
	done := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := o.workers(n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(claim.Add(1)) - 1
				if i >= n || (ctx != nil && ctx.Err() != nil) {
					return
				}
				work(i)
				if o.Progress != nil {
					mu.Lock()
					// Re-check under the lock: a replica finishing after
					// cancellation keeps its result but must not tick
					// progress (the run is already reporting an error).
					if ctx == nil || ctx.Err() == nil {
						done++
						o.Progress(done, n)
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if ctx != nil {
		return ctx.Err()
	}
	return nil
}
