package runner

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain doubles as the shard worker entrypoint: the fleet tests
// re-exec this test binary with WorkerFlag, and MaybeWorker diverts those
// children into the worker loop before any test machinery runs.
func TestMain(m *testing.M) {
	MaybeWorker()
	os.Exit(m.Run())
}

// testWorkerCmd re-execs this test binary as a shard worker: the argv a
// failure-injection fleet gives its healthy shards.
func testWorkerCmd(int) []string { return []string{os.Args[0], WorkerFlag} }

func init() {
	// test.echo: the deterministic happy-path kind.
	RegisterKind("test.echo", func(payload []byte, replica int, seed int64) ([]byte, error) {
		return json.Marshal(fmt.Sprintf("%s/r%d/s%d", payload, replica, seed))
	})
	// test.crash-once: hard-exits the process on one replica, but only the
	// first time (a marker file in the payload directory remembers) — the
	// injected crash for the shard-retry test.
	RegisterKind("test.crash-once", func(payload []byte, replica int, seed int64) ([]byte, error) {
		var p struct {
			Dir     string
			Replica int
		}
		if err := json.Unmarshal(payload, &p); err != nil {
			return nil, err
		}
		if replica == p.Replica {
			marker := filepath.Join(p.Dir, "crashed")
			if _, err := os.Stat(marker); os.IsNotExist(err) {
				os.WriteFile(marker, []byte("x"), 0o644)
				os.Exit(3)
			}
		}
		return json.Marshal(replica)
	})
	// test.crash-always: hard-exits on one replica, every attempt.
	RegisterKind("test.crash-always", func(payload []byte, replica int, seed int64) ([]byte, error) {
		var target int
		if err := json.Unmarshal(payload, &target); err != nil {
			return nil, err
		}
		if replica == target {
			os.Exit(3)
		}
		return json.Marshal(replica)
	})
	// test.fail: a deterministic KindFunc error on one replica.
	RegisterKind("test.fail", func(payload []byte, replica int, seed int64) ([]byte, error) {
		var target int
		if err := json.Unmarshal(payload, &target); err != nil {
			return nil, err
		}
		if replica == target {
			return nil, errors.New("synthetic kind failure")
		}
		return json.Marshal(replica)
	})
}

// executeAll runs a job on a backend and returns its results indexed by
// replica, failing the test unless every replica reported.
func executeAll(t *testing.T, b Backend, o Options, kind string, payload []byte, n int) [][]byte {
	t.Helper()
	out, err := b.Execute(ExecRequest{Kind: kind, Payload: payload, Replicas: n, Options: o})
	if err != nil {
		t.Fatalf("%T run: %v", b, err)
	}
	if len(out) != n {
		t.Fatalf("%T returned %d of %d replicas", b, len(out), n)
	}
	for i, r := range out {
		if r == nil {
			t.Fatalf("%T: replica %d never reported", b, i)
		}
	}
	return out
}

// executeErr runs a job to completion, discarding results, and returns the
// run's error.
func executeErr(b Backend, o Options, kind string, payload []byte, n int) error {
	_, err := b.Execute(ExecRequest{Kind: kind, Payload: payload, Replicas: n, Options: o})
	return err
}

// runKind is the in-process reference for a backend: the kind function
// itself, run on Run's pool.
func runKind(t *testing.T, kind string, payload []byte, seed int64, n int) [][]byte {
	t.Helper()
	fn, err := lookupKind(kind)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(Options{Seed: seed}, n, func(replica int, seed int64) []byte {
		b, err := fn(payload, replica, seed)
		if err != nil {
			t.Error(err)
		}
		return b
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sameResults fails the test at the first replica where got and want
// differ.
func sameResults(t *testing.T, name string, got, want [][]byte) {
	t.Helper()
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: replica %d = %s, want %s", name, i, got[i], want[i])
		}
	}
}

func TestFleetUnknownKind(t *testing.T) {
	// An unknown kind is a request that cannot start: Execute fails before
	// spawning a worker.
	_, err := Fleet{Shards: 1}.Execute(ExecRequest{Kind: "test.unregistered", Replicas: 1})
	if err == nil || !strings.Contains(err.Error(), "unknown job kind") {
		t.Fatalf("err = %v, want unknown-kind error", err)
	}
}

// TestCollect: every replica decodes into its own slot; the slice always
// holds req.Replicas entries, and a result that does not decode, a failed
// run or an unknown kind is reported.
func TestCollect(t *testing.T) {
	fl := Fleet{Shards: 2}
	req := ExecRequest{Kind: "test.echo", Payload: []byte(`"c"`), Replicas: 3, Options: Options{Seed: 2}}
	got, err := Collect[string](fl, req)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range got {
		if want := fmt.Sprintf(`"c"/r%d/s%d`, i, DeriveSeed(2, i)); s != want {
			t.Errorf("replica %d = %q, want %q", i, s, want)
		}
	}
	for name, tc := range map[string]struct {
		req  ExecRequest
		want string
	}{
		"undecodable":  {req, "decode test.echo replica 0"},
		"kind error":   {ExecRequest{Kind: "test.fail", Payload: []byte("1"), Replicas: 3}, "synthetic kind failure"},
		"unknown kind": {ExecRequest{Kind: "test.unregistered", Replicas: 3}, "unknown job kind"},
	} {
		out, err := Collect[int](fl, tc.req)
		if len(out) != 3 || err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %d slots, err %v; want 3 slots and an error containing %q", name, len(out), err, tc.want)
		}
	}
}

// TestFleetEndpointCountInvariance is the process-sharded analogue of
// worker-count invariance: any shard count, including more shards than
// replicas, yields byte-identical results in identical order.
func TestFleetEndpointCountInvariance(t *testing.T) {
	const n = 11
	payload := []byte(`"inv"`)
	want := runKind(t, "test.echo", payload, 7, n)
	for _, shards := range []int{1, 2, 3, 5, n + 3} {
		got := executeAll(t, Fleet{Shards: shards}, Options{Seed: 7}, "test.echo", payload, n)
		sameResults(t, fmt.Sprintf("shards=%d", shards), got, want)
	}
}

// TestFleetCancelledBeforeDispatch: a context cancelled before Execute
// starts no chunk and reports the caller's cancellation.
func TestFleetCancelledBeforeDispatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := executeErr(Fleet{Shards: 2}, Options{Seed: 1, Context: ctx}, "test.echo", []byte(`"c"`), 8)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestWorkerMainProtocol drives the worker loop in-memory: one job frame
// in, ascending per-replica result frames out.
func TestWorkerMainProtocol(t *testing.T) {
	var in, out bytes.Buffer
	job := jobFrame{Kind: "test.echo", Payload: []byte(`"w"`), Seed: 9, Start: 3, Count: 4, Workers: 2}
	if err := writeFrame(&in, job); err != nil {
		t.Fatal(err)
	}
	if err := WorkerMain(&in, &out); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(&out)
	for i := 0; i < job.Count; i++ {
		var f resultFrame
		if err := readFrame(br, &f); err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		replica := job.Start + i
		if f.Replica != replica || f.Err != "" {
			t.Fatalf("frame %d = %+v", i, f)
		}
		want, _ := json.Marshal(fmt.Sprintf(`"w"/r%d/s%d`, replica, DeriveSeed(job.Seed, replica)))
		if !bytes.Equal(f.Result, want) {
			t.Errorf("replica %d result = %s, want %s", replica, f.Result, want)
		}
	}
}

// TestProgressAndPartialResultsUnderCancellation is the regression test
// for the dispatch gate: a replica finishing after cancellation keeps its
// result but must not tick Progress.
func TestProgressAndPartialResultsUnderCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ticks []int
	out, err := Run(Options{Workers: 1, Seed: 1, Context: ctx, Progress: func(done, total int) {
		ticks = append(ticks, done)
	}}, 10, func(replica int, seed int64) int {
		if replica == 2 {
			cancel()
		}
		return replica + 100
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// One serial worker: replicas 0 and 1 tick progress; replica 2 runs to
	// completion after cancelling, so its result is recorded but its tick
	// is suppressed; replicas 3+ are never claimed.
	if want := []int{1, 2}; len(ticks) != len(want) || ticks[0] != 1 || ticks[1] != 2 {
		t.Errorf("progress ticks = %v, want %v", ticks, want)
	}
	for i, want := range []int{100, 101, 102, 0, 0} {
		if out[i] != want {
			t.Errorf("out[%d] = %d, want %d", i, out[i], want)
		}
	}
}
