package runner

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// WorkerFlag is the hidden argv sentinel that switches a binary into shard
// worker mode. It is deliberately not a registered flag.FlagSet member:
// workers are spawned only by the Fleet backend, never by hand.
const WorkerFlag = "-runner-worker"

// MaybeWorker turns the current process into a shard worker when it was
// spawned with WorkerFlag as its first argument: it serves one jobFrame on
// stdin/stdout and exits. Binaries that offer a Fleet backend must call
// it first in main, before flag parsing. In a normal invocation it is
// a no-op.
func MaybeWorker() {
	if len(os.Args) < 2 || os.Args[1] != WorkerFlag {
		return
	}
	if err := WorkerMain(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "runner worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// WorkerMain is the shard worker loop: it reads one jobFrame from r, runs
// the shard's replicas through the in-process pool, writes one resultFrame
// per replica to w in ascending replica order, and returns. Replica i of
// the shard (global index Start+i) runs with DeriveSeed(Seed, Start+i) —
// the same seed it would get in-process, which is what makes sharded runs
// bit-identical.
//
// Every frame is flushed as it is written, so the parent's watchdog sees
// results the moment they exist; when the job asks for heartbeats
// (jobFrame.Heartbeat > 0) a ticker interleaves liveness-only frames with
// the results under the same write lock.
func WorkerMain(r io.Reader, w io.Writer) error {
	br := bufio.NewReader(r)
	bw := bufio.NewWriter(w)
	var job jobFrame
	if err := readFrame(br, &job); err != nil {
		return err
	}
	if job.Count < 0 || job.Start < 0 {
		return fmt.Errorf("runner: worker got invalid replica range [%d,%d)", job.Start, job.Start+job.Count)
	}
	fn, err := lookupKind(job.Kind)
	if err != nil {
		return err
	}
	var wmu sync.Mutex
	var writeErr error
	put := func(f resultFrame) {
		wmu.Lock()
		defer wmu.Unlock()
		if writeErr != nil {
			return
		}
		if writeErr = writeFrame(bw, f); writeErr == nil {
			writeErr = bw.Flush()
		}
	}
	stopHeartbeat := func() {}
	if job.Heartbeat > 0 {
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			t := time.NewTicker(job.Heartbeat)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					put(resultFrame{Heartbeat: true})
				case <-stop:
					return
				}
			}
		}()
		stopHeartbeat = func() { close(stop); <-done }
	}
	type res struct {
		b   []byte
		err error
	}
	err = stream(Options{Workers: job.Workers, Seed: job.Seed}, job.Count, func(i int, _ int64) res {
		replica := job.Start + i
		b, err := fn(job.Payload, replica, DeriveSeed(job.Seed, replica))
		return res{b, err}
	}, func(i int, v res) {
		f := resultFrame{Replica: job.Start + i, Result: v.b}
		if v.err != nil {
			f.Err = v.err.Error()
		}
		put(f)
	})
	// Stop the ticker before reading writeErr: after stopHeartbeat returns
	// no goroutine writes frames, so the read below is race-free.
	stopHeartbeat()
	if err != nil {
		return err
	}
	return writeErr
}
