package runner

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Fleet executes replicas across Shards worker processes on this host, each
// a re-exec of the current binary behind WorkerFlag, from a shared chunk
// queue with work stealing: the replica range is cut into chunks, and every
// shard claims the next unclaimed chunk the moment it goes idle, so fast
// shards drain what slow ones never claimed instead of idling behind fixed
// ranges. Because replica i runs with DeriveSeed(Seed, i) no matter which
// shard executes it, and results land in their replica's slot, the output
// is bit-identical to Run for any shard count, steal schedule, or
// crash/resume history.
//
// The request's worker budget (Options.Workers, ≤ 0 = NumCPU) is split
// across the shards, ⌈Workers/Shards⌉ in-process workers each, so N worker
// processes on one box do not oversubscribe it N-fold.
//
// Failure detection is heartbeat-based: workers interleave liveness
// frames with their results (jobFrame.Heartbeat), and a shard silent past
// the liveness bound loses its lease — the chunk's unfinished remainder
// returns to the shared queue for any live shard to pick up. Deterministic
// replicas make the re-run exact, so a steal or retry can never change
// output. A shard that fails several chunks in a row is benched; a chunk
// that fails three leases, on any shards, fails the run.
//
// With Journal set, every completed replica spills to an append-only
// on-disk journal as it arrives, and a later Execute of the same job
// resumes from the journal instead of replica 0 — the checkpoint story for
// multi-hour grids.
type Fleet struct {
	// Shards is the number of worker processes; at least one is required.
	Shards int
	// Throttle pauses the last shard this long after each chunk claim
	// before its worker starts — an artificially slow shard for the CI
	// steal-schedule gate. It never affects results.
	Throttle time.Duration
	// Heartbeat is the liveness bound: a leased worker silent (no result,
	// no heartbeat frame) for this long is declared lost. It tolerates
	// single replicas running longer than the bound, because workers
	// heartbeat while computing. 0 means the 10-minute default; negative
	// disables detection.
	Heartbeat time.Duration
	// Journal, when non-empty, is a directory of per-job replica journals
	// (the file name encodes kind, payload checksum, seed and replica
	// count). Completed replicas are appended as they arrive; on Execute,
	// replicas already journaled are served from disk and never re-run.
	// Corrupted journal content is detected (checksums) and reported; a
	// torn final record from a killed process is truncated and recovered
	// from.
	Journal string

	// chunkSize, when positive, overrides the replicas per lease.
	chunkSize int
	// argv, when non-nil, gives shard i's worker command instead of the
	// re-exec of this binary behind WorkerFlag.
	argv func(shard int) []string
}

const (
	// defaultShardTimeout is the liveness bound a zero Fleet.Heartbeat
	// resolves to.
	defaultShardTimeout = 10 * time.Minute
	// chunkAttempts is the tries a chunk's remainder gets, counted across
	// all shards, before it fails the run.
	chunkAttempts = 3
	// shardMaxStrikes benches a shard after this many consecutive chunk
	// failures, so one broken worker cannot grind the queue forever.
	shardMaxStrikes = 3
)

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

// shardWorkers is each shard's in-process worker budget: the request's
// budget (≤ 0 = NumCPU) split across the shards, rounding up.
func (f Fleet) shardWorkers(workers int) int {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return (workers + f.Shards - 1) / f.Shards
}

// leaseSize is the replicas per lease: about four chunks per shard — small
// enough to steal, large enough to amortize process spawns — but never
// fewer than a shard's worker budget, so one worker process can fill it.
func (f Fleet) leaseSize(replicas, perShard int) int {
	if f.chunkSize > 0 {
		return f.chunkSize
	}
	return max(replicas/(4*f.Shards), perShard, 1)
}

// chunk is one leasable slice of the replica range.
type chunk struct {
	start, count int
	// attempt counts failed leases so far (0 for a fresh chunk).
	attempt int
}

// collector gathers shard results into their replica slots: it drops the
// duplicates a retried chunk re-delivers (determinism makes them
// byte-identical re-runs), journals each first arrival, and ticks Progress
// once per distinct replica, serialized.
type collector struct {
	mu       sync.Mutex
	out      [][]byte
	have     []bool
	done     int
	jr       *journal
	progress func(done, total int)
}

// add records one replica result; journal says whether it still needs
// spilling to the journal (it does not when it was recovered from there).
func (c *collector) add(replica int, b []byte, journal bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.have[replica] {
		return nil
	}
	if journal && c.jr != nil {
		if err := c.jr.append(replica, b); err != nil {
			return err
		}
	}
	c.out[replica], c.have[replica] = b, true
	c.done++
	if c.progress != nil {
		c.progress(c.done, len(c.out))
	}
	return nil
}

// kindError marks a deterministic replica-level failure (a KindFunc error
// reported by the worker) that retrying cannot fix.
type kindError struct{ err error }

func (e kindError) Error() string { return e.err.Error() }

// fatalError marks a failure that retrying on another shard cannot fix
// (the journal refusing an append); kindError plays the same role for
// deterministic replica errors. Both fail the run immediately.
type fatalError struct{ err error }

func (e fatalError) Error() string { return e.err.Error() }
func (e fatalError) Unwrap() error { return e.err }

// fleetRun is one Execute in flight: the shared chunk queue and what every
// shard's loop reads.
type fleetRun struct {
	f        Fleet // argv resolved
	req      ExecRequest
	workers  int // per shard
	timeout  time.Duration
	coll     *collector
	ctx      context.Context
	cancel   context.CancelFunc
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []chunk
	inFlight int // chunks shards hold: while any is out, an idle shard waits
	failed   error
	lastErr  error
}

// Execute implements Backend.
func (f Fleet) Execute(req ExecRequest) ([][]byte, error) {
	if f.Shards < 1 {
		return nil, errors.New("runner: Fleet with no shards")
	}
	// Parent and workers run the same binary, so they hold the same kinds.
	if _, err := lookupKind(req.Kind); err != nil {
		return nil, err
	}
	if req.Replicas <= 0 {
		return nil, nil
	}
	if f.argv == nil {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("runner: cannot locate executable to re-exec: %w", err)
		}
		f.argv = func(int) []string { return []string{exe, WorkerFlag} }
	}
	parent := req.Options.Context
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	r := &fleetRun{f: f, req: req, workers: f.shardWorkers(req.Options.Workers), timeout: f.heartbeat(), ctx: ctx, cancel: cancel}
	r.cond = sync.NewCond(&r.mu)

	// Progress ticks once per distinct replica (journal-recovered ones
	// included) and is suppressed after cancellation, as Run's is.
	var progress func(done, total int)
	if user := req.Options.Progress; user != nil {
		progress = func(done, total int) {
			if ctx.Err() == nil {
				user(done, total)
			}
		}
	}
	r.coll = &collector{out: make([][]byte, req.Replicas), have: make([]bool, req.Replicas), progress: progress}

	// Journal-recovered replicas are served from disk and never re-run:
	// the resume story.
	if f.Journal != "" {
		jr, recovered, err := openJournal(f.Journal, req)
		if err != nil {
			return nil, err
		}
		defer jr.close()
		r.coll.jr = jr
		for replica, data := range recovered {
			r.coll.add(replica, data, false)
		}
	}

	// Queue the replicas not yet collected, in contiguous chunks.
	size := f.leaseSize(req.Replicas, r.workers)
	for start := 0; start < req.Replicas; {
		if r.coll.have[start] {
			start++
			continue
		}
		count := 0
		for start+count < req.Replicas && count < size && !r.coll.have[start+count] {
			count++
		}
		r.queue = append(r.queue, chunk{start: start, count: count})
		start += count
	}
	if len(r.queue) == 0 {
		return r.coll.out, parent.Err()
	}

	// Cancellation must wake shards parked on the queue condition.
	go func() {
		<-ctx.Done()
		r.cond.Broadcast()
	}()
	var wg sync.WaitGroup
	for shard := 0; shard < f.Shards; shard++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			r.serve(shard)
		}(shard)
	}
	wg.Wait()

	unserved := 0
	for _, c := range r.queue {
		unserved += c.count
	}
	switch {
	case r.failed != nil:
		return r.coll.out, r.failed
	case parent.Err() != nil:
		return r.coll.out, parent.Err()
	case unserved > 0:
		// Every shard benched itself with work still queued.
		return r.coll.out, fmt.Errorf("runner: fleet ran out of live shards with %d replicas unserved (last error: %w)", unserved, r.lastErr)
	}
	return r.coll.out, nil
}

// serve is one shard's work-stealing loop: claim the next chunk the moment
// this shard goes idle, run it, and return its unfinished remainder to the
// queue if the lease is lost.
func (r *fleetRun) serve(shard int) {
	strikes := 0
	for {
		r.mu.Lock()
		for len(r.queue) == 0 && r.inFlight > 0 && r.failed == nil && r.ctx.Err() == nil {
			// Idle but the run is not over: a lost lease may yet requeue
			// work for us to steal.
			r.cond.Wait()
		}
		if len(r.queue) == 0 || r.failed != nil || r.ctx.Err() != nil {
			r.mu.Unlock()
			return
		}
		ch := r.queue[0]
		r.queue = r.queue[1:]
		r.inFlight++
		r.mu.Unlock()

		if shard == r.f.Shards-1 && r.f.Throttle > 0 {
			select {
			case <-time.After(r.f.Throttle):
			case <-r.ctx.Done():
			}
		}
		seen, err := r.runChunk(shard, ch)

		r.mu.Lock()
		r.inFlight--
		benched := false
		switch {
		case err == nil:
			strikes = 0
		case r.ctx.Err() != nil:
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
				r.fail(fmt.Errorf("runner: fleet chunk (replicas %d-%d) on shard %d: %w", ch.start, ch.start+ch.count-1, shard, err))
			case rem.count == 0:
				// Every result arrived before the worker died; the chunk
				// is complete and the exit noise is not worth a re-run.
				strikes = 0
			case rem.attempt >= chunkAttempts:
				r.fail(fmt.Errorf("runner: fleet chunk (replicas %d-%d) failed after %d attempts: %w", rem.start, rem.start+rem.count-1, rem.attempt, err))
			default:
				// The lease is lost: the unfinished remainder returns to
				// the shared queue for any live shard to steal.
				r.queue = append(r.queue, rem)
				r.lastErr = err
				strikes++
				benched = strikes >= shardMaxStrikes
			}
		}
		r.cond.Broadcast()
		r.mu.Unlock()
		if benched {
			return
		}
	}
}

// fail records the run's first fatal error and stops the other shards.
// Callers hold r.mu.
func (r *fleetRun) fail(err error) {
	if r.failed == nil {
		r.failed = err
		r.cancel()
	}
}

// runChunk spawns one worker for a chunk and streams its frames: results
// feed the collector as they arrive, heartbeats feed the watchdog. It
// returns how many of the chunk's replicas completed (frames arrive in
// ascending order, so the remainder is exactly what is left).
func (r *fleetRun) runChunk(shard int, ch chunk) (seen int, err error) {
	argv := r.f.argv(shard)
	cmd := exec.CommandContext(r.ctx, argv[0], argv[1:]...)
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
		return 0, fmt.Errorf("spawn worker %q for shard %d: %w", argv[0], shard, err)
	}

	// The heartbeat watchdog: results and heartbeat frames both reset it;
	// total silence past the bound kills the worker and loses the lease.
	timeout := r.timeout
	var timedOut atomic.Bool
	var watchdog *time.Timer
	var hb time.Duration
	if timeout > 0 {
		watchdog = time.AfterFunc(timeout, func() {
			timedOut.Store(true)
			cmd.Process.Kill()
		})
		// Several beats per bound, so one delayed tick is not a death
		// sentence; floor it so short test bounds don't spin the worker.
		hb = max(timeout/4, 10*time.Millisecond)
	}

	loopErr := func() error {
		job := jobFrame{Kind: r.req.Kind, Payload: r.req.Payload, Seed: r.req.Options.Seed, Start: ch.start, Count: ch.count, Workers: r.workers, Heartbeat: hb}
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
			if err := r.coll.add(fr.Replica, fr.Result, true); err != nil {
				return fatalError{err}
			}
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
			return seen, fmt.Errorf("heartbeat lost: no frame from shard %d for %v (%s)", shard, timeout, stderrNote(&stderr))
		}
		return seen, fmt.Errorf("%w (%s)", loopErr, stderrNote(&stderr))
	case waitErr != nil && seen < ch.count:
		return seen, fmt.Errorf("worker for shard %d exited uncleanly (%s): %w", shard, stderrNote(&stderr), waitErr)
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
		b.buf.Write(p[:min(len(p), room)])
	}
	return len(p), nil
}

func stderrNote(b *boundedBuffer) string {
	b.mu.Lock()
	s := bytes.TrimSpace(b.buf.Bytes())
	b.mu.Unlock()
	if len(s) == 0 {
		return "no stderr"
	}
	return "stderr: " + string(s)
}

var _ Backend = Fleet{}
