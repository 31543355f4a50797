package runner

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

// Execution is a dispatched run in flight. Results streams every replica's
// output in strict ascending replica order — the same bytes in the same
// order regardless of backend, worker count, steal schedule, or
// crash/resume history — and Wait reports the run's final error. The
// results channel is buffered for the full replica count, so calling Wait
// without draining Results cannot deadlock.
type Execution struct {
	results  chan Result
	finished chan struct{}
	err      error
}

func newExecution(total int) *Execution {
	return &Execution{
		results:  make(chan Result, total),
		finished: make(chan struct{}),
	}
}

// completedExecution is an execution that was over before it began (zero
// replicas, or a backend that failed after the point of no return).
func completedExecution(err error) *Execution {
	e := newExecution(0)
	e.finish(err)
	return e
}

// emit delivers one result. Backends call it from their ordered sink, one
// goroutine at a time, in strictly ascending replica order.
func (e *Execution) emit(replica int, data []byte) {
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
