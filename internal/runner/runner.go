// Package runner shards independent simulation replicas across workers.
// Every replica draws its RNG seed from the base seed and its own index
// alone, and results are collected in replica order, so aggregate output is
// bit-identical regardless of how many workers run or how the scheduler
// interleaves them. This is the execution platform for the experiment
// suite: figures fan their scenario grid × replica matrix through Run, or
// through a Backend when sharded, and scaling work plugs in underneath
// without touching experiment code.
//
// # The Backend seam
//
// Run executes on a goroutine pool inside the calling process. The Backend
// interface is the drop-in seam beneath it for
// executing replicas elsewhere: Dispatch takes a typed ExecRequest — a
// registered job kind, an opaque payload, a replica count and Options —
// and returns an Execution that streams the encoded results in strict
// ascending replica order (Results) and reports the final verdict (Wait).
//
// Two backends ship today: InProcess (the goroutine pool, routed through
// the job codec) and Fleet (worker endpoints — re-execs of the current
// binary behind WorkerFlag, or ssh-style remote execs — speaking
// length-prefixed JSON frames over stdin/stdout and pulling chunks from a
// shared work-stealing queue, with heartbeat-based failure detection and
// an optional on-disk checkpoint journal for resume). LocalEndpoints
// builds the one-host fleet. Because replica seeds and ordering are
// backend-independent, swapping backends can never change results, only
// wall-clock time.
//
// Job kinds are registered by name (RegisterKind) in package init, so a
// re-exec'd worker process holds the same kind table as its parent.
// Binaries that offer the Fleet backend must call MaybeWorker first in
// main.
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

// stream executes fn for each replica and hands results to sink in strict
// replica order as soon as the completed prefix grows, buffering
// out-of-order completions, so sink observes the exact same sequence for
// any worker count — the ordering InProcess and shard workers emit their
// results in. sink runs under the runner's lock and must not call back into
// the runner.
func stream[T any](o Options, replicas int, fn func(replica int, seed int64) T, sink func(replica int, v T)) error {
	buf := make([]T, replicas)
	ready := make([]bool, replicas)
	next := 0
	var mu sync.Mutex
	return dispatch(o, replicas, func(i int) {
		v := fn(i, DeriveSeed(o.Seed, i))
		mu.Lock()
		buf[i], ready[i] = v, true
		for next < replicas && ready[next] {
			sink(next, buf[next])
			next++
		}
		mu.Unlock()
	})
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
