package runner

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// An Endpoint is one worker host of a Fleet: a command that, when
// executed, speaks the length-prefixed worker frame protocol on its
// stdin/stdout. A plain local exec and an ssh remote exec look identical
// from here — the protocol rides whatever byte pipe the command provides.
type Endpoint struct {
	// Name labels the endpoint in error messages.
	// Empty gets a positional default ("endpoint-i").
	Name string
	// Command is the full worker argv — e.g. {"/path/bin", runner.WorkerFlag}
	// for a local process, or {"ssh", "host", "/path/bin", runner.WorkerFlag}
	// for a remote one. Empty re-execs the current binary with WorkerFlag.
	Command []string
	// Env is extra environment appended to the parent's for each worker
	// the endpoint spawns (local commands; ssh does not forward it).
	Env []string
	// Workers bounds the in-process parallelism of each worker the
	// endpoint runs (0 = the request's Options.Workers, which in turn
	// defaults to the worker host's NumCPU). It never affects results.
	Workers int
	// Throttle pauses this long after each chunk claim before the worker
	// starts — an artificially slow host for heterogeneity tests and the
	// CI steal-schedule gate. It never affects results.
	Throttle time.Duration
}

// Fleet executes replicas across multiple worker endpoints from a shared
// chunk queue with work stealing: the replica range is cut into chunks,
// and every endpoint claims the next unclaimed chunk the moment it goes
// idle, so fast hosts drain what slow hosts never claimed instead of
// idling behind fixed ranges. Because replica i runs with
// DeriveSeed(Seed, i) no matter which endpoint executes it, and results
// are re-assembled in strict replica order, the output is bit-identical
// to InProcess for any endpoint count, steal schedule, or crash/resume
// history.
//
// Failure detection is heartbeat-based: workers interleave liveness
// frames with their results (jobFrame.Heartbeat), and an endpoint silent
// past the liveness bound loses its lease — the chunk's unfinished
// remainder returns to the shared queue for any live endpoint to pick up.
// Deterministic replicas make the re-run exact, so a steal or retry can
// never change output. An endpoint that fails several chunks in a row is
// benched; a chunk that keeps failing everywhere fails the run.
//
// With Journal set, every completed replica spills to an append-only
// on-disk journal as it arrives, and a later Dispatch of the same job
// resumes from the journal instead of replica 0 — the checkpoint story
// for multi-hour grids.
type Fleet struct {
	// Endpoints are the worker hosts; at least one is required.
	Endpoints []Endpoint
	// ChunkSize is the replicas per lease. 0 picks a size that gives each
	// endpoint about four chunks — small enough to steal, large enough to
	// amortize process spawns — but never fewer replicas than the largest
	// endpoint worker budget, so one worker process can fill its budget.
	ChunkSize int
	// Heartbeat is the liveness bound: a leased worker silent (no result,
	// no heartbeat frame) for this long is declared lost. It tolerates
	// single replicas running longer than the bound, because workers
	// heartbeat while computing. 0 means the 10-minute default; negative
	// disables detection.
	Heartbeat time.Duration
	// Retries is how many extra attempts a chunk's remainder gets after a
	// lost lease (0 = default 2; negative disables retries). Attempts are
	// counted per chunk across all endpoints.
	Retries int
	// Journal, when non-empty, is a directory of per-job replica journals
	// (the file name encodes kind, payload checksum, seed and replica
	// count). Completed replicas are appended as they arrive; on
	// Dispatch, replicas already journaled are served from disk and never
	// re-run. Corrupted journal content is detected (checksums) and
	// reported; a torn final record from a killed process is truncated
	// and recovered from.
	Journal string
}

const (
	// defaultShardTimeout is the liveness bound a zero Fleet.Heartbeat
	// resolves to.
	defaultShardTimeout = 10 * time.Minute
	// defaultChunkRetries is the extra attempts a chunk gets by default.
	defaultChunkRetries = 2
	// endpointMaxStrikes benches an endpoint after this many consecutive
	// chunk failures, so one bad host cannot grind the queue forever.
	endpointMaxStrikes = 3
)

// LocalEndpoints builds n ≥ 1 endpoints ("local-0" …) that re-exec the
// current binary as workers on this host. The in-process parallelism budget
// workers (≤ 0 = NumCPU) is divided across them, ⌈workers/n⌉ each, so n
// worker processes on one box do not oversubscribe it n-fold.
func LocalEndpoints(n, workers int) []Endpoint {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	per := (workers + n - 1) / n
	eps := make([]Endpoint, n)
	for i := range eps {
		eps[i] = Endpoint{Name: fmt.Sprintf("local-%d", i), Workers: per}
	}
	return eps
}

// heartbeat resolves the effective liveness bound: 0 means the package
// default, negative disables the watchdog (returns 0).
func (f Fleet) heartbeat() time.Duration {
	switch {
	case f.Heartbeat < 0:
		return 0
	case f.Heartbeat == 0:
		return defaultShardTimeout
	}
	return f.Heartbeat
}

// chunkSize resolves ChunkSize for a run of replicas whose request asks
// for workers in-process parallelism per worker (the fallback for an
// endpoint without its own budget; ≤ 0 = NumCPU).
func (f Fleet) chunkSize(replicas, workers int) int {
	if f.ChunkSize > 0 {
		return f.ChunkSize
	}
	n := max(1, replicas/(4*len(f.Endpoints)))
	for _, ep := range f.Endpoints {
		w := ep.Workers
		if w <= 0 {
			w = workers
		}
		if w <= 0 {
			w = runtime.NumCPU()
		}
		n = max(n, w)
	}
	return n
}

// attempts is the total tries a chunk gets before failing the run.
func (f Fleet) attempts() int {
	if f.Retries < 0 {
		return 1
	}
	if f.Retries == 0 {
		return 1 + defaultChunkRetries
	}
	return 1 + f.Retries
}

// chunk is one leasable slice of the replica range.
type chunk struct {
	start, count int
	// attempt counts failed leases so far (0 for a fresh chunk).
	attempt int
}

// fleetState is the shared chunk queue of one dispatch.
type fleetState struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []chunk
	// inFlight counts the chunks endpoints hold: while any is out, an
	// idle endpoint waits, since a lost one may requeue work to steal.
	inFlight int
	failed   error
	lastErr  error
}

// collector buffers out-of-order shard results and hands them to sink in
// strict replica order — the cross-process analogue of stream's ordered
// emission — ticking Progress once per distinct replica, serialized.
type collector struct {
	mu       sync.Mutex
	buf      [][]byte
	ready    []bool
	next     int
	done     int
	sink     func(replica int, result []byte)
	progress func(done, total int)
}

func newCollector(replicas int, sink func(int, []byte), progress func(done, total int)) *collector {
	return &collector{buf: make([][]byte, replicas), ready: make([]bool, replicas), sink: sink, progress: progress}
}

// add records one replica result; duplicates from a retried shard are
// dropped (determinism makes them byte-identical re-runs).
func (c *collector) add(replica int, b []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ready[replica] {
		return
	}
	c.buf[replica], c.ready[replica] = b, true
	c.done++
	if c.progress != nil {
		c.progress(c.done, len(c.buf))
	}
	for c.next < len(c.buf) && c.ready[c.next] {
		c.sink(c.next, c.buf[c.next])
		c.buf[c.next] = nil
		c.next++
	}
}

// kindError marks a deterministic replica-level failure (a KindFunc error
// reported by the worker) that retrying cannot fix.
type kindError struct{ err error }

func (e kindError) Error() string { return e.err.Error() }

// fatalError marks a failure that retrying on another endpoint cannot fix
// (the journal refusing an append, protocol violations that indicate a
// wrong binary); kindError plays the same role for deterministic replica
// errors. Both fail the run immediately.
type fatalError struct{ err error }

func (e fatalError) Error() string { return e.err.Error() }
func (e fatalError) Unwrap() error { return e.err }

// Dispatch implements Backend.
func (f Fleet) Dispatch(req ExecRequest) (*Execution, error) {
	if len(f.Endpoints) == 0 {
		return nil, errors.New("runner: Fleet with no endpoints")
	}
	if req.Replicas <= 0 {
		return completedExecution(nil), nil
	}
	// Resolve endpoint identities and commands up front so a bad setup
	// fails the Dispatch call, not the run.
	eps := make([]Endpoint, len(f.Endpoints))
	copy(eps, f.Endpoints)
	for i := range eps {
		if eps[i].Name == "" {
			eps[i].Name = fmt.Sprintf("endpoint-%d", i)
		}
		if len(eps[i].Command) == 0 {
			exe, err := os.Executable()
			if err != nil {
				return nil, fmt.Errorf("runner: cannot locate executable to re-exec: %w", err)
			}
			eps[i].Command = []string{exe, WorkerFlag}
		}
	}
	var jr *journal
	var recovered map[int][]byte
	if f.Journal != "" {
		var err error
		jr, recovered, err = openJournal(f.Journal, req)
		if err != nil {
			return nil, err
		}
	}
	st := &fleetState{}
	st.cond = sync.NewCond(&st.mu)
	e := newExecution(req.Replicas)
	go func() { e.finish(f.run(req, eps, st, jr, recovered, e.emit)) }()
	return e, nil
}

// run drives one fleet dispatch: recover the journal, queue the missing
// replicas as chunks, and let every endpoint loop over the queue until it
// drains, the run fails, or the context fires.
func (f Fleet) run(req ExecRequest, eps []Endpoint, st *fleetState, jr *journal, recovered map[int][]byte, emit func(int, []byte)) error {
	if jr != nil {
		defer jr.close()
	}
	parent := req.Options.Context
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	// Progress ticks once per distinct replica (journal-recovered ones
	// included) and is suppressed after cancellation, like every backend.
	progress := req.Options.Progress
	if progress != nil {
		user := progress
		progress = func(done, total int) {
			if ctx.Err() == nil {
				user(done, total)
			}
		}
	}
	coll := newCollector(req.Replicas, emit, progress)

	// Journal-recovered replicas are delivered first and never re-run:
	// the resume story. The collector orders them, so delivery order here
	// is irrelevant to output.
	for replica, data := range recovered {
		coll.add(replica, data)
	}

	// Queue the replicas the journal does not cover, in contiguous chunks.
	size := f.chunkSize(req.Replicas, req.Options.Workers)
	for start := 0; start < req.Replicas; {
		if _, ok := recovered[start]; ok {
			start++
			continue
		}
		count := 0
		for start+count < req.Replicas && count < size {
			if _, ok := recovered[start+count]; ok {
				break
			}
			count++
		}
		st.queue = append(st.queue, chunk{start: start, count: count})
		start += count
	}
	if len(st.queue) == 0 {
		return parent.Err()
	}

	timeout := f.heartbeat()

	// Cancellation must wake endpoints parked on the queue condition.
	go func() {
		<-ctx.Done()
		st.cond.Broadcast()
	}()

	var wg sync.WaitGroup
	for i := range eps {
		wg.Add(1)
		go func(ep Endpoint) {
			defer wg.Done()
			f.serve(ctx, cancel, ep, req, st, jr, coll, timeout)
		}(eps[i])
	}
	wg.Wait()

	st.mu.Lock()
	failed, lastErr := st.failed, st.lastErr
	unserved := 0
	for _, c := range st.queue {
		unserved += c.count
	}
	st.mu.Unlock()
	switch {
	case failed != nil:
		return failed
	case parent.Err() != nil:
		return parent.Err()
	case unserved > 0:
		// Every endpoint benched itself with work still queued.
		return fmt.Errorf("runner: fleet ran out of live endpoints with %d replicas unserved (last error: %w)", unserved, lastErr)
	}
	return nil
}

// serve is one endpoint's work-stealing loop: claim the next chunk the
// moment this endpoint goes idle, run it, and return its unfinished
// remainder to the queue if the lease is lost.
func (f Fleet) serve(ctx context.Context, cancel context.CancelFunc, ep Endpoint, req ExecRequest, st *fleetState, jr *journal, coll *collector, timeout time.Duration) {
	strikes := 0
	maxAttempts := f.attempts()
	for {
		st.mu.Lock()
		for len(st.queue) == 0 && st.inFlight > 0 && st.failed == nil && ctx.Err() == nil {
			// Idle but the run is not over: a lost lease may yet requeue
			// work for us to steal.
			st.cond.Wait()
		}
		if len(st.queue) == 0 || st.failed != nil || ctx.Err() != nil {
			st.mu.Unlock()
			return
		}
		ch := st.queue[0]
		st.queue = st.queue[1:]
		st.inFlight++
		st.mu.Unlock()

		if ep.Throttle > 0 {
			select {
			case <-time.After(ep.Throttle):
			case <-ctx.Done():
			}
		}
		seen, err := f.runChunk(ctx, ep, req, ch, jr, coll, timeout)

		st.mu.Lock()
		st.inFlight--
		benched := false
		switch {
		case err == nil:
			strikes = 0
		case ctx.Err() != nil:
			// Cancelled mid-chunk: nobody's fault, nothing to requeue.
		default:
			rem := chunk{start: ch.start + seen, count: ch.count - seen, attempt: ch.attempt + 1}
			fatal := false
			switch err.(type) {
			case kindError, fatalError:
				fatal = true
			}
			switch {
			case fatal:
				if st.failed == nil {
					st.failed = fmt.Errorf("runner: fleet chunk (replicas %d-%d) on %s: %w", ch.start, ch.start+ch.count-1, ep.Name, err)
					cancel()
				}
			case rem.count == 0:
				// Every result arrived before the worker died; the chunk
				// is complete and the exit noise is not worth a re-run.
				strikes = 0
			case rem.attempt >= maxAttempts:
				if st.failed == nil {
					st.failed = fmt.Errorf("runner: fleet chunk (replicas %d-%d) failed after %d attempts: %w", rem.start, rem.start+rem.count-1, rem.attempt, err)
					cancel()
				}
			default:
				// The lease is lost: the unfinished remainder returns to
				// the shared queue for any live endpoint to steal.
				st.queue = append(st.queue, rem)
				st.lastErr = err
				strikes++
				benched = strikes >= endpointMaxStrikes
			}
		}
		st.cond.Broadcast()
		st.mu.Unlock()
		if benched {
			return
		}
	}
}

// runChunk spawns one worker for a chunk and streams its frames: results
// feed the journal and the collector as they arrive, heartbeats feed the
// watchdog. It returns how many of the chunk's replicas completed (frames
// arrive in ascending order, so the remainder is exactly what is left).
func (f Fleet) runChunk(ctx context.Context, ep Endpoint, req ExecRequest, ch chunk, jr *journal, coll *collector, timeout time.Duration) (seen int, err error) {
	cmd := exec.CommandContext(ctx, ep.Command[0], ep.Command[1:]...)
	cmd.Env = append(os.Environ(), ep.Env...)
	var stderr boundedBuffer
	cmd.Stderr = &stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return 0, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	if err := cmd.Start(); err != nil {
		return 0, fmt.Errorf("spawn worker %q on %s: %w", ep.Command[0], ep.Name, err)
	}

	// The heartbeat watchdog: results and heartbeat frames both reset it;
	// total silence past the bound kills the worker and loses the lease.
	var timedOut atomic.Bool
	var watchdog *time.Timer
	if timeout > 0 {
		watchdog = time.AfterFunc(timeout, func() {
			timedOut.Store(true)
			cmd.Process.Kill()
		})
	}
	var hb time.Duration
	if timeout > 0 {
		// Several beats per bound, so one delayed tick is not a death
		// sentence; floor it so short test bounds don't spin the worker.
		hb = timeout / 4
		if hb < 10*time.Millisecond {
			hb = 10 * time.Millisecond
		}
	}

	workers := ep.Workers
	if workers == 0 {
		workers = req.Options.Workers
	}

	loopErr := func() error {
		job := jobFrame{Kind: req.Kind, Payload: req.Payload, Seed: req.Options.Seed, Start: ch.start, Count: ch.count, Workers: workers, Heartbeat: hb}
		if err := writeFrame(stdin, job); err != nil {
			return fmt.Errorf("send job: %w", err)
		}
		stdin.Close()

		br := bufio.NewReader(stdout)
		for seen < ch.count {
			var fr resultFrame
			if err := readFrame(br, &fr); err != nil {
				return fmt.Errorf("worker stream ended after %d/%d results: %w", seen, ch.count, err)
			}
			if watchdog != nil {
				watchdog.Reset(timeout)
			}
			if fr.Heartbeat {
				continue
			}
			if fr.Replica != ch.start+seen {
				return fmt.Errorf("worker answered for replica %d, want %d (chunk results must arrive in order)", fr.Replica, ch.start+seen)
			}
			if fr.Err != "" {
				return kindError{fmt.Errorf("replica %d: %s", fr.Replica, fr.Err)}
			}
			if jr != nil {
				if err := jr.append(fr.Replica, fr.Result); err != nil {
					return fatalError{err}
				}
			}
			coll.add(fr.Replica, fr.Result)
			seen++
		}
		return nil
	}()

	if watchdog != nil {
		watchdog.Stop()
	}
	stdin.Close()
	if loopErr != nil {
		cmd.Process.Kill()
	}
	waitErr := cmd.Wait()

	switch {
	case loopErr != nil:
		switch loopErr.(type) {
		case kindError, fatalError:
			return seen, loopErr
		}
		if timedOut.Load() {
			return seen, fmt.Errorf("heartbeat lost: no frame from %s for %v (%s)", ep.Name, timeout, stderrNote(&stderr))
		}
		return seen, fmt.Errorf("%w (%s)", loopErr, stderrNote(&stderr))
	case waitErr != nil && seen < ch.count:
		return seen, fmt.Errorf("worker on %s exited uncleanly (%s): %w", ep.Name, stderrNote(&stderr), waitErr)
	}
	// An unclean exit after the final result (including a watchdog that
	// fired in the read/Stop window) leaves a complete chunk; re-running
	// it would only reproduce the same bytes.
	return seen, nil
}

// boundedBuffer keeps the head of a worker's stderr for error reports
// without letting a chatty worker grow memory unboundedly.
type boundedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

const maxStderr = 4 << 10

func (b *boundedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if room := maxStderr - b.buf.Len(); room > 0 {
		if len(p) > room {
			b.buf.Write(p[:room])
		} else {
			b.buf.Write(p)
		}
	}
	return len(p), nil
}

func (b *boundedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func stderrNote(b *boundedBuffer) string {
	s := bytes.TrimSpace([]byte(b.String()))
	if len(s) == 0 {
		return "no stderr"
	}
	return "stderr: " + string(s)
}

var _ io.Writer = (*boundedBuffer)(nil)
var _ Backend = Fleet{}
