package runner

import "sync"

// ExecRequest describes one backend execution: replicas 0..Replicas-1 of a
// registered job kind, each a pure function of (Payload, replica, derived
// seed).
type ExecRequest struct {
	// Kind names the registered job kind (RegisterKind) to execute.
	Kind string
	// Payload is the kind's job description, opaque to the runner.
	Payload []byte
	// Replicas is the number of replicas to run; replica i executes with
	// DeriveSeed(Options.Seed, i) regardless of where it runs.
	Replicas int
	// Options carry the run's seed, parallelism bound, progress callback
	// and cancellation context.
	Options Options
}

// Result is one replica's encoded output.
type Result struct {
	// Replica is the global replica index.
	Replica int
	// Data is the replica's encoded result.
	Data []byte
}

// Lease describes one in-flight replica chunk held by a fleet endpoint — a
// live snapshot for monitoring, never part of the result contract.
type Lease struct {
	// Endpoint names the worker endpoint serving the chunk.
	Endpoint string
	// Start and Count delimit the chunk's replica range [Start, Start+Count).
	Start, Count int
	// Attempt is 1 for a first run, higher for a re-leased chunk.
	Attempt int
	// Done is how many of the chunk's replicas have reported results.
	Done int
}

// Execution is a dispatched run in flight. Results streams every replica's
// output in strict ascending replica order — the same bytes in the same
// order regardless of backend, worker count, steal schedule, or
// crash/resume history — and Wait reports the run's final error. The
// results channel is buffered for the full replica count, so calling Wait
// without draining Results cannot deadlock.
type Execution struct {
	total    int
	results  chan Result
	finished chan struct{}
	err      error

	mu      sync.Mutex
	emitted int

	leaseFn func() []Lease
}

func newExecution(total int, leases func() []Lease) *Execution {
	return &Execution{
		total:    total,
		results:  make(chan Result, total),
		finished: make(chan struct{}),
		leaseFn:  leases,
	}
}

// completedExecution is an execution that was over before it began (zero
// replicas, or a backend that failed after the point of no return).
func completedExecution(err error) *Execution {
	e := newExecution(0, nil)
	e.finish(err)
	return e
}

// emit delivers one result. Backends call it from their ordered sink, one
// goroutine at a time, in strictly ascending replica order.
func (e *Execution) emit(replica int, data []byte) {
	e.mu.Lock()
	e.emitted++
	e.mu.Unlock()
	e.results <- Result{Replica: replica, Data: data}
}

// finish seals the execution: the results channel closes and Wait unblocks
// with err. Called exactly once, after the last emit.
func (e *Execution) finish(err error) {
	e.err = err
	close(e.results)
	close(e.finished)
}

// Results streams the replica results in strict ascending replica order;
// the channel closes when the run is over (drain it, then call Wait for
// the verdict).
func (e *Execution) Results() <-chan Result { return e.results }

// Wait blocks until the run is over and returns its error, nil on success.
// Results already streamed are valid even when Wait returns an error.
func (e *Execution) Wait() error {
	<-e.finished
	return e.err
}

// Progress reports how many results have streamed so far out of the total.
// (Options.Progress remains the push-style variant: it ticks once per
// distinct completed replica, which may run ahead of the ordered stream.)
func (e *Execution) Progress() (done, total int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.emitted, e.total
}

// Leases snapshots the in-flight chunk leases. Only Fleet has lease state;
// other backends return nil.
func (e *Execution) Leases() []Lease {
	if e.leaseFn == nil {
		return nil
	}
	return e.leaseFn()
}
