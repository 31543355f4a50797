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

// TestLocalEndpointsSplit: the one-host fleet divides the worker budget
// across its endpoints, rounding up, with NumCPU standing in for an unset
// budget; every endpoint re-execs the current binary.
func TestLocalEndpointsSplit(t *testing.T) {
	for _, tc := range []struct{ n, workers, want int }{
		{3, 8, 3},
		{3, 0, (runtime.NumCPU() + 2) / 3},
		{1, 5, 5},
	} {
		eps := LocalEndpoints(tc.n, tc.workers)
		if len(eps) != tc.n {
			t.Fatalf("LocalEndpoints(%d, %d) built %d endpoints", tc.n, tc.workers, len(eps))
		}
		for i, ep := range eps {
			if ep.Workers != tc.want {
				t.Errorf("LocalEndpoints(%d, %d)[%d].Workers = %d, want %d", tc.n, tc.workers, i, ep.Workers, tc.want)
			}
			if want := fmt.Sprintf("local-%d", i); ep.Name != want || len(ep.Command) != 0 {
				t.Errorf("LocalEndpoints(%d, %d)[%d] = %+v, want name %s and the re-exec default command", tc.n, tc.workers, i, ep, want)
			}
		}
	}
}

// TestFleetDefaultChunkSize: the default lease gives each endpoint about
// four chunks but never fewer replicas than an endpoint's worker budget,
// so a sharded run keeps the parallelism its budget allows.
func TestFleetDefaultChunkSize(t *testing.T) {
	for _, tc := range []struct {
		name              string
		fl                Fleet
		replicas, workers int
		want              int
	}{
		{"quarter per endpoint", Fleet{Endpoints: LocalEndpoints(2, 2)}, 80, 0, 10},
		{"at least the budget", Fleet{Endpoints: LocalEndpoints(4, 16)}, 32, 0, 4},
		{"request budget fallback", Fleet{Endpoints: []Endpoint{{}, {}}}, 8, 3, 3},
		{"unset budget is NumCPU", Fleet{Endpoints: []Endpoint{{}}}, 1, 0, runtime.NumCPU()},
		{"explicit size wins", Fleet{Endpoints: LocalEndpoints(4, 16), ChunkSize: 1}, 32, 0, 1},
	} {
		if got := tc.fl.chunkSize(tc.replicas, tc.workers); got != tc.want {
			t.Errorf("%s: chunkSize(%d, %d) = %d, want %d", tc.name, tc.replicas, tc.workers, got, tc.want)
		}
	}
}

func TestFleetNoEndpoints(t *testing.T) {
	_, err := Fleet{}.Dispatch(ExecRequest{Kind: "test.echo", Replicas: 1})
	if err == nil || !strings.Contains(err.Error(), "no endpoints") {
		t.Fatalf("err = %v, want a no-endpoints error", err)
	}
}

// TestFleetMatchesInProcess is the core invariant: a multi-endpoint
// work-stealing fleet produces byte-identical results in identical order to
// the in-process pool, for several endpoint and chunk geometries.
func TestFleetMatchesInProcess(t *testing.T) {
	const n = 13
	payload := []byte(`"fleet"`)
	want := executeAll(t, InProcess{}, Options{Seed: 11}, "test.echo", payload, n)
	for _, tc := range []struct{ endpoints, chunk int }{
		{1, 0}, {2, 2}, {3, 1}, {4, 5},
	} {
		fl := Fleet{Endpoints: LocalEndpoints(tc.endpoints, 0), ChunkSize: tc.chunk}
		got := executeAll(t, fl, Options{Seed: 11}, "test.echo", payload, n)
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("endpoints=%d chunk=%d: replica %d = %s, want %s",
					tc.endpoints, tc.chunk, i, got[i], want[i])
			}
		}
	}
}

// TestFleetStealScheduleInvariance: one fast and one artificially slow
// endpoint produce the same bytes as two uniform endpoints — the steal
// schedule moves work between hosts but can never move results.
func TestFleetStealScheduleInvariance(t *testing.T) {
	const n = 12
	payload := []byte(`"steal"`)
	want := executeAll(t, InProcess{}, Options{Seed: 23}, "test.echo", payload, n)

	skewed := LocalEndpoints(2, 0)
	skewed[1].Throttle = 40 * time.Millisecond
	for name, fl := range map[string]Fleet{
		"uniform": {Endpoints: LocalEndpoints(2, 0), ChunkSize: 2},
		"skewed":  {Endpoints: skewed, ChunkSize: 2},
	} {
		got := executeAll(t, fl, Options{Seed: 23}, "test.echo", payload, n)
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%s: replica %d = %s, want %s", name, i, got[i], want[i])
			}
		}
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
	fl := Fleet{Endpoints: LocalEndpoints(2, 0), ChunkSize: 3}
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
	fl := Fleet{Endpoints: LocalEndpoints(1, 1), ChunkSize: 3, Heartbeat: 500 * time.Millisecond}
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
	fl := Fleet{Endpoints: LocalEndpoints(2, 0), ChunkSize: 2}
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
	fl := Fleet{Endpoints: LocalEndpoints(2, 0), ChunkSize: 2}
	err := executeErr(fl, Options{Seed: 1}, "test.crash-always", payload, 6)
	if err == nil {
		t.Fatal("run succeeded despite a deterministic worker crash")
	}
	if !strings.Contains(err.Error(), "failed after 3 attempts") {
		t.Errorf("error does not report the exhausted attempts: %v", err)
	}
}

// TestFleetBadEndpointIsBenched: an endpoint that fails every chunk it
// touches is benched after a few strikes, and the remaining endpoints
// finish the queue — one bad host cannot take down the run.
func TestFleetBadEndpointIsBenched(t *testing.T) {
	const n = 12
	payload := []byte(`"bench"`)
	want := executeAll(t, InProcess{}, Options{Seed: 31}, "test.echo", payload, n)
	eps := []Endpoint{
		{Name: "good", Command: testWorkerCmd()},
		{Name: "broken", Command: []string{"/bin/false"}},
	}
	// ChunkSize 1 gives the broken endpoint many distinct chunks to fail,
	// so it strikes out before any single chunk exhausts its attempts.
	fl := Fleet{Endpoints: eps, ChunkSize: 1}
	got := executeAll(t, fl, Options{Seed: 31}, "test.echo", payload, n)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("replica %d = %s, want %s", i, got[i], want[i])
		}
	}
}

// TestFleetRemoteStyleCommand runs an endpoint through a shell exec — the
// same shape as an ssh remote command — proving the protocol only needs a
// byte pipe, not a direct child process.
func TestFleetRemoteStyleCommand(t *testing.T) {
	const n = 8
	payload := []byte(`"remote"`)
	want := executeAll(t, InProcess{}, Options{Seed: 17}, "test.echo", payload, n)
	cmd := testWorkerCmd()
	eps := []Endpoint{{
		Name:    "sh-tunnel",
		Command: []string{"/bin/sh", "-c", `exec "$0" "$1"`, cmd[0], cmd[1]},
	}}
	fl := Fleet{Endpoints: eps, ChunkSize: 3}
	got := executeAll(t, fl, Options{Seed: 17}, "test.echo", payload, n)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("replica %d = %s, want %s", i, got[i], want[i])
		}
	}
}

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
// cancelled partway leaves a journal; re-dispatching the same job resumes
// from it, re-running only the un-journaled replicas, and the combined
// output is byte-identical to an uninterrupted in-process run. A third
// dispatch on the now-complete journal succeeds with no live endpoint at
// all.
func TestFleetJournalResume(t *testing.T) {
	dir := t.TempDir()
	jdir := filepath.Join(dir, "journal")
	payload, _ := json.Marshal(struct{ Dir string }{dir})
	const n = 10
	want := executeAll(t, InProcess{}, Options{Seed: 5}, "test.echo-log", payload, n)
	os.Remove(filepath.Join(dir, "ran.log"))

	req := func(ctx context.Context, progress func(int, int)) ExecRequest {
		return ExecRequest{Kind: "test.echo-log", Payload: payload, Replicas: n,
			Options: Options{Seed: 5, Workers: 1, Context: ctx, Progress: progress}}
	}
	fl := Fleet{Endpoints: LocalEndpoints(1, 0), ChunkSize: 2, Journal: jdir}

	// First run: cancel once a few replicas have completed (and therefore
	// hit the journal — every result is journaled before it is delivered).
	ctx, cancel := context.WithCancel(context.Background())
	ex, err := fl.Dispatch(req(ctx, func(done, total int) {
		if done >= 3 {
			cancel()
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	for range ex.Results() {
	}
	if err := ex.Wait(); err != context.Canceled {
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

	// With the journal complete, a fleet of only broken endpoints still
	// serves the whole job from disk.
	dead := Fleet{Endpoints: []Endpoint{{Name: "dead", Command: []string{"/bin/false"}}}, Journal: jdir}
	got = executeAll(t, dead, Options{Seed: 5, Workers: 1}, "test.echo-log", payload, n)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("journal-only replica %d = %s, want %s", i, got[i], want[i])
		}
	}
	if after := readLog(t, dir); len(after) != len(ranBefore)+len(reran) {
		t.Error("the journal-only dispatch executed replicas it should have recovered from disk")
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
	fl := Fleet{Endpoints: LocalEndpoints(1, 0), ChunkSize: 2, Journal: jdir}
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

	dead := Fleet{Endpoints: []Endpoint{{Name: "dead", Command: []string{"/bin/false"}}}, Journal: jdir}
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

	fl := Fleet{Endpoints: LocalEndpoints(1, 0), Journal: jdir}
	_, err = fl.Dispatch(req)
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

	fl := Fleet{Endpoints: LocalEndpoints(1, 0), Journal: jdir}
	_, err = fl.Dispatch(req)
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
	fl := Fleet{Endpoints: LocalEndpoints(1, 0), Journal: jdir}
	_, err := fl.Dispatch(other)
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
		fl := Fleet{Endpoints: LocalEndpoints(2, 0), ChunkSize: 3}
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
