package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

func init() {
	// test.stop-once: SIGSTOPs its own process on one replica, but only the
	// first time (a marker file remembers) — the injected silent worker for
	// the heartbeat-loss test. A stopped process sends no frames and no
	// heartbeats but is still alive, which is exactly the failure mode the
	// heartbeat watchdog exists to catch.
	RegisterKind("test.stop-once", func(payload []byte, replica int, seed int64) ([]byte, error) {
		var p struct {
			Dir     string
			Replica int
		}
		if err := json.Unmarshal(payload, &p); err != nil {
			return nil, err
		}
		if replica == p.Replica {
			marker := filepath.Join(p.Dir, "stopped")
			if _, err := os.Stat(marker); os.IsNotExist(err) {
				os.WriteFile(marker, []byte("x"), 0o644)
				syscall.Kill(syscall.Getpid(), syscall.SIGSTOP)
			}
		}
		return json.Marshal(replica)
	})
	// test.echo-log: appends its replica index to a shared log before
	// echoing, so resume tests can prove which replicas actually executed
	// (journal-recovered ones must not).
	RegisterKind("test.echo-log", func(payload []byte, replica int, seed int64) ([]byte, error) {
		var p struct{ Dir string }
		if err := json.Unmarshal(payload, &p); err != nil {
			return nil, err
		}
		f, err := os.OpenFile(filepath.Join(p.Dir, "ran.log"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(f, "%d\n", replica)
		f.Close()
		return json.Marshal(fmt.Sprintf("r%d/s%d", replica, seed))
	})
}

// TestTimeoutResolution pins the one-knob liveness contract: a zero
// Fleet.Heartbeat resolves to the package default, a negative one disables
// the watchdog, and a positive one is used as is.
func TestTimeoutResolution(t *testing.T) {
	for _, tc := range []struct {
		heartbeat, want time.Duration
	}{
		{0, defaultShardTimeout},
		{-1, 0},
		{-time.Minute, 0},
		{time.Second, time.Second},
		{time.Minute, time.Minute},
	} {
		if got := (Fleet{Heartbeat: tc.heartbeat}).heartbeat(); got != tc.want {
			t.Errorf("Fleet{Heartbeat: %v}.heartbeat() = %v, want %v", tc.heartbeat, got, tc.want)
		}
	}
}

// TestFleetShardWorkers: the fleet divides the request's worker budget
// across its shards, rounding up, with NumCPU standing in for an unset
// budget.
func TestFleetShardWorkers(t *testing.T) {
	for _, tc := range []struct{ shards, workers, want int }{
		{3, 8, 3},
		{3, 0, (runtime.NumCPU() + 2) / 3},
		{3, -1, (runtime.NumCPU() + 2) / 3},
		{1, 5, 5},
		{4, 2, 1},
	} {
		if got := (Fleet{Shards: tc.shards}).shardWorkers(tc.workers); got != tc.want {
			t.Errorf("Fleet{Shards: %d}.shardWorkers(%d) = %d, want %d", tc.shards, tc.workers, got, tc.want)
		}
	}
}

// TestFleetDefaultChunkSize: the default lease gives each shard about four
// chunks but never fewer replicas than a shard's worker budget, so a
// sharded run keeps the parallelism its budget allows.
func TestFleetDefaultChunkSize(t *testing.T) {
	for _, tc := range []struct {
		name              string
		fl                Fleet
		replicas, workers int
		want              int
	}{
		{"quarter per shard", Fleet{Shards: 2}, 80, 2, 10},
		{"at least the budget", Fleet{Shards: 4}, 32, 16, 4},
		{"unset budget is NumCPU", Fleet{Shards: 1}, 1, 0, runtime.NumCPU()},
		{"explicit size wins", Fleet{Shards: 4, chunkSize: 1}, 32, 16, 1},
	} {
		if got := tc.fl.leaseSize(tc.replicas, tc.fl.shardWorkers(tc.workers)); got != tc.want {
			t.Errorf("%s: leaseSize(%d) with %d workers = %d, want %d", tc.name, tc.replicas, tc.workers, got, tc.want)
		}
	}
}

func TestFleetNoEndpoints(t *testing.T) {
	_, err := Fleet{}.Execute(ExecRequest{Kind: "test.echo", Replicas: 1})
	if err == nil || !strings.Contains(err.Error(), "no shards") {
		t.Fatalf("err = %v, want a no-shards error", err)
	}
}

// TestInProcessBackendMatchesKindFunc: the in-process reference the fleet
// tests compare against (the kind function on Run's pool) gives each
// replica its own slot and its derived seed.
func TestInProcessBackendMatchesKindFunc(t *testing.T) {
	const n = 9
	payload := []byte(`"p"`)
	got := runKind(t, "test.echo", payload, 5, n)
	if len(got) != n {
		t.Fatalf("got %d of %d replicas", len(got), n)
	}
	for i := 0; i < n; i++ {
		want, _ := json.Marshal(fmt.Sprintf("%s/r%d/s%d", payload, i, DeriveSeed(5, i)))
		if !bytes.Equal(got[i], want) {
			t.Errorf("replica %d = %s, want %s", i, got[i], want)
		}
	}
}

// TestFleetMatchesInProcess is the core invariant: a multi-shard
// work-stealing fleet produces byte-identical results in identical order
// to the kind function run in process, for several shard and chunk
// geometries.
func TestFleetMatchesInProcess(t *testing.T) {
	const n = 13
	payload := []byte(`"fleet"`)
	want := runKind(t, "test.echo", payload, 11, n)
	for _, tc := range []struct{ shards, chunk int }{
		{1, 0}, {2, 2}, {3, 1}, {4, 5},
	} {
		got := executeAll(t, Fleet{Shards: tc.shards, chunkSize: tc.chunk}, Options{Seed: 11}, "test.echo", payload, n)
		sameResults(t, fmt.Sprintf("shards=%d chunk=%d", tc.shards, tc.chunk), got, want)
	}
}

// TestFleetStealScheduleInvariance: a throttled last shard produces the
// same bytes as two uniform shards — the steal schedule moves work between
// shards but can never move results.
func TestFleetStealScheduleInvariance(t *testing.T) {
	const n = 12
	payload := []byte(`"steal"`)
	want := runKind(t, "test.echo", payload, 23, n)
	for name, fl := range map[string]Fleet{
		"uniform": {Shards: 2, chunkSize: 2},
		"skewed":  {Shards: 2, Throttle: 40 * time.Millisecond, chunkSize: 2},
	} {
		sameResults(t, name, executeAll(t, fl, Options{Seed: 23}, "test.echo", payload, n), want)
	}
}

// TestFleetWorkerCrashMidGrid: killing a worker mid-run loses a lease, the
// chunk remainder returns to the queue, and the final results are identical
// to an undisturbed run.
func TestFleetWorkerCrashMidGrid(t *testing.T) {
	dir := t.TempDir()
	payload, _ := json.Marshal(struct {
		Dir     string
		Replica int
	}{dir, 5})
	const n = 9
	fl := Fleet{Shards: 2, chunkSize: 3}
	got := executeAll(t, fl, Options{Seed: 1}, "test.crash-once", payload, n)
	for i := range got {
		want, _ := json.Marshal(i)
		if !bytes.Equal(got[i], want) {
			t.Errorf("replica %d = %s, want %s", i, got[i], want)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "crashed")); err != nil {
		t.Fatal("the injected crash never fired; the lease-loss path was not exercised")
	}
}

// TestFleetHeartbeatLossRequeues: a worker that goes silent without dying
// (SIGSTOP) is declared lost via missed heartbeats, its chunk remainder is
// requeued, and the run still completes with correct results.
func TestFleetHeartbeatLossRequeues(t *testing.T) {
	dir := t.TempDir()
	payload, _ := json.Marshal(struct {
		Dir     string
		Replica int
	}{dir, 3})
	const n = 6
	fl := Fleet{Shards: 1, chunkSize: 3, Heartbeat: 500 * time.Millisecond}
	got := executeAll(t, fl, Options{Seed: 2, Workers: 1}, "test.stop-once", payload, n)
	for i := range got {
		want, _ := json.Marshal(i)
		if !bytes.Equal(got[i], want) {
			t.Errorf("replica %d = %s, want %s", i, got[i], want)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "stopped")); err != nil {
		t.Fatal("the injected stall never fired; the heartbeat-loss path was not exercised")
	}
}

func TestFleetKindErrorFailsWithoutRetry(t *testing.T) {
	payload, _ := json.Marshal(3)
	fl := Fleet{Shards: 2, chunkSize: 2}
	err := executeErr(fl, Options{Seed: 1}, "test.fail", payload, 6)
	if err == nil || !strings.Contains(err.Error(), "synthetic kind failure") {
		t.Fatalf("err = %v, want the replica's own failure", err)
	}
	if !strings.Contains(err.Error(), "replica 3") {
		t.Errorf("error does not name the failing replica: %v", err)
	}
}

func TestFleetPersistentCrashFailsTheRun(t *testing.T) {
	payload, _ := json.Marshal(2)
	fl := Fleet{Shards: 2, chunkSize: 2}
	err := executeErr(fl, Options{Seed: 1}, "test.crash-always", payload, 6)
	if err == nil {
		t.Fatal("run succeeded despite a deterministic worker crash")
	}
	if !strings.Contains(err.Error(), "failed after 3 attempts") {
		t.Errorf("error does not report the exhausted attempts: %v", err)
	}
}

// TestFleetBadEndpointIsBenched: a shard whose worker fails every chunk it
// touches is benched after a few strikes, and the remaining shards finish
// the queue — one broken worker cannot take down the run.
func TestFleetBadEndpointIsBenched(t *testing.T) {
	const n = 12
	payload := []byte(`"bench"`)
	want := runKind(t, "test.echo", payload, 31, n)
	// chunkSize 1 gives the broken shard many distinct chunks to fail, so
	// it strikes out before any single chunk exhausts its attempts.
	fl := Fleet{Shards: 2, chunkSize: 1, argv: func(shard int) []string {
		if shard == 1 {
			return []string{"/bin/false"}
		}
		return testWorkerCmd(shard)
	}}
	sameResults(t, "benched", executeAll(t, fl, Options{Seed: 31}, "test.echo", payload, n), want)
}

// deadWorker is the argv of a shard whose worker always fails.
func deadWorker(int) []string { return []string{"/bin/false"} }

// readLog parses test.echo-log's executed-replica log.
func readLog(t *testing.T, dir string) []int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "ran.log"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		t.Fatal(err)
	}
	var out []int
	for _, line := range strings.Fields(string(data)) {
		var v int
		fmt.Sscanf(line, "%d", &v)
		out = append(out, v)
	}
	return out
}

// TestFleetJournalResume is the checkpoint/resume story end to end: a run
// cancelled partway leaves a journal; re-running the same job resumes from
// it, re-running only the un-journaled replicas, and the combined output is
// byte-identical to an uninterrupted in-process run. A third run on the
// now-complete journal succeeds with no live worker at all.
func TestFleetJournalResume(t *testing.T) {
	dir := t.TempDir()
	jdir := filepath.Join(dir, "journal")
	payload, _ := json.Marshal(struct{ Dir string }{dir})
	const n = 10
	want := runKind(t, "test.echo-log", payload, 5, n)
	os.Remove(filepath.Join(dir, "ran.log"))

	req := func(ctx context.Context, progress func(int, int)) ExecRequest {
		return ExecRequest{Kind: "test.echo-log", Payload: payload, Replicas: n,
			Options: Options{Seed: 5, Workers: 1, Context: ctx, Progress: progress}}
	}
	fl := Fleet{Shards: 1, chunkSize: 2, Journal: jdir}

	// First run: cancel once a few replicas have completed (and therefore
	// hit the journal — every result is journaled before it is delivered).
	ctx, cancel := context.WithCancel(context.Background())
	_, err := fl.Execute(req(ctx, func(done, total int) {
		if done >= 3 {
			cancel()
		}
	}))
	if err != context.Canceled {
		t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
	}
	cancel()

	// The journal now holds the completed prefix of the run.
	jr, journaled, err := openJournal(jdir, req(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	jr.close()
	if len(journaled) < 3 {
		t.Fatalf("journal holds %d replicas after 3 progress ticks", len(journaled))
	}
	ranBefore := readLog(t, dir)

	// Resume: same job, same journal directory. Only the complement of the
	// journaled set may execute.
	got := executeAll(t, fl, Options{Seed: 5, Workers: 1}, "test.echo-log", payload, n)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("resumed replica %d = %s, want %s", i, got[i], want[i])
		}
	}
	reran := readLog(t, dir)[len(ranBefore):]
	sort.Ints(reran)
	var wantReran []int
	for i := 0; i < n; i++ {
		if _, ok := journaled[i]; !ok {
			wantReran = append(wantReran, i)
		}
	}
	if fmt.Sprint(reran) != fmt.Sprint(wantReran) {
		t.Errorf("resume executed replicas %v, want exactly the un-journaled %v", reran, wantReran)
	}

	// With the journal complete, a fleet whose only worker is broken still
	// serves the whole job from disk.
	dead := Fleet{Shards: 1, Journal: jdir, argv: deadWorker}
	got = executeAll(t, dead, Options{Seed: 5, Workers: 1}, "test.echo-log", payload, n)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("journal-only replica %d = %s, want %s", i, got[i], want[i])
		}
	}
	if after := readLog(t, dir); len(after) != len(ranBefore)+len(reran) {
		t.Error("the journal-only run executed replicas it should have recovered from disk")
	}
}

// journalFile finds the single journal file written under dir.
func journalFile(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.journal"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("journal dir holds %v (err %v), want exactly one file", matches, err)
	}
	return matches[0]
}

// completeJournal runs a job to completion under a fresh journal dir and
// returns the dir, the request, and the expected results.
func completeJournal(t *testing.T, seed int64) (string, ExecRequest, [][]byte) {
	t.Helper()
	jdir := t.TempDir()
	payload, _ := json.Marshal(fmt.Sprintf("j%d", seed))
	const n = 6
	fl := Fleet{Shards: 1, chunkSize: 2, Journal: jdir}
	want := executeAll(t, fl, Options{Seed: seed}, "test.echo", payload, n)
	return jdir, ExecRequest{Kind: "test.echo", Payload: payload, Replicas: n, Options: Options{Seed: seed}}, want
}

// TestFleetJournalTornTailRecovered: a torn final record — the parent died
// mid-append — is truncated away and the journal stays usable.
func TestFleetJournalTornTailRecovered(t *testing.T) {
	jdir, req, want := completeJournal(t, 41)
	f, err := os.OpenFile(journalFile(t, jdir), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A frame header promising 100 bytes, followed by only 4: torn.
	f.Write([]byte{0, 0, 0, 100, 'x', 'x', 'x', 'x'})
	f.Close()

	dead := Fleet{Shards: 1, Journal: jdir, argv: deadWorker}
	got := executeAll(t, dead, req.Options, req.Kind, req.Payload, req.Replicas)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("replica %d = %s, want %s", i, got[i], want[i])
		}
	}
}

// TestFleetJournalCorruptionDetected: a flipped byte inside a record is a
// hard, reported error — never silently wrong results.
func TestFleetJournalCorruptionDetected(t *testing.T) {
	jdir, req, _ := completeJournal(t, 43)
	path := journalFile(t, jdir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the first record's Result payload (the header
	// frame ends at 4+len(header); the record's own framing starts there).
	idx := bytes.Index(data, []byte(`"Result":"`))
	if idx < 0 {
		t.Fatal("no Result field found in journal")
	}
	data[idx+len(`"Result":"`)] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	fl := Fleet{Shards: 1, Journal: jdir}
	_, err = fl.Execute(req)
	if err == nil || !strings.Contains(err.Error(), "corrupted") {
		t.Fatalf("err = %v, want a corruption report", err)
	}
}

// TestFleetJournalChecksumCatchesReplicaRemap: a record whose Replica field
// was altered (bytes still valid JSON) fails its checksum — the CRC covers
// the replica index, not just the result bytes.
func TestFleetJournalChecksumCatchesReplicaRemap(t *testing.T) {
	jdir, req, _ := completeJournal(t, 47)
	path := journalFile(t, jdir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the second record's replica index from 1 to 7: same length,
	// valid JSON, wrong identity.
	idx := bytes.Index(data, []byte(`"Replica":1,`))
	if idx < 0 {
		t.Fatal("no replica-1 record found in journal")
	}
	data[idx+len(`"Replica":`)] = '7'
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	fl := Fleet{Shards: 1, Journal: jdir}
	_, err = fl.Execute(req)
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("err = %v, want a checksum failure", err)
	}
}

// TestFleetJournalJobMismatch: a journal copied under another job's name is
// refused — the header binds the file to the job that wrote it.
func TestFleetJournalJobMismatch(t *testing.T) {
	jdir, _, _ := completeJournal(t, 53)
	other := ExecRequest{Kind: "test.echo", Payload: []byte(`"different"`), Replicas: 6, Options: Options{Seed: 53}}
	src, _ := os.ReadFile(journalFile(t, jdir))
	if err := os.WriteFile(journalPath(jdir, other), src, 0o644); err != nil {
		t.Fatal(err)
	}
	fl := Fleet{Shards: 1, Journal: jdir}
	_, err := fl.Execute(other)
	if err == nil || !strings.Contains(err.Error(), "different job") {
		t.Fatalf("err = %v, want a job-mismatch report", err)
	}
}

// TestProgressSingleTickUnderShardRetry pins the Progress contract under
// retries: a retried shard re-runs replicas whose results already arrived,
// and the collector must tick done exactly once per distinct replica — the
// sequence is 1..n with no repeats regardless of crash history.
func TestProgressSingleTickUnderShardRetry(t *testing.T) {
	t.Run("fleet", func(t *testing.T) {
		dir := t.TempDir()
		payload, _ := json.Marshal(struct {
			Dir     string
			Replica int
		}{dir, 4})
		const n = 9
		var mu sync.Mutex
		var ticks []int
		fl := Fleet{Shards: 2, chunkSize: 3}
		err := executeErr(fl, Options{Seed: 1, Progress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if total != n {
				t.Errorf("progress total = %d, want %d", total, n)
			}
			ticks = append(ticks, done)
		}}, "test.crash-once", payload, n)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(dir, "crashed")); err != nil {
			t.Fatal("the injected crash never fired; the retry path was not exercised")
		}
		mu.Lock()
		defer mu.Unlock()
		if len(ticks) != n {
			t.Fatalf("progress ticked %d times, want %d (%v)", len(ticks), n, ticks)
		}
		for i, d := range ticks {
			if d != i+1 {
				t.Fatalf("tick %d reported done=%d, want %d (a retried replica double-ticked)", i, d, i+1)
			}
		}
	})
}
