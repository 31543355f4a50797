package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// run runs qnpsim on args and returns its stdout, failing on a non-zero
// exit status.
func run(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := qnpsimMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("qnpsim %s: exit status %d; stderr:\n%s", strings.Join(args, " "), code, stderr.String())
	}
	return stdout.String()
}

// goldens are argument lists whose stdout is pinned in testdata/<name>.txt:
// single runs and -replicas runs over every topology, workload family,
// allocation policy and both physics engines.
var goldens = []struct{ name, args string }{
	{"chain", "-nodes 4 -fidelity 0.85 -pairs 20"},
	{"dumbbell-short", "-topology dumbbell -src A0 -dst B1 -fidelity 0.8 -pairs 10 -cutoff short"},
	{"grid-continuous", "-topology grid -rows 3 -cols 3 -circuits 3 -workload continuous -horizon 10"},
	{"random-replicas", "-topology random -nodes 10 -seed 7 -pairs 5 -replicas 8"},
	{"random-replicas-seed8", "-topology random -nodes 10 -seed 8 -pairs 5 -replicas 4"},
	{"grid-werner-replicas", "-topology grid -rows 3 -cols 3 -pairs 5 -replicas 6 -physics werner"},
	{"churn-model-streaming", churnArgs},
	{"churn-static", "-topology dumbbell -circuits 4 -workload churn -mineer 5 -alloc static -horizon 20 -replicas 4 -seed 3"},
	{"star-interval", "-topology star -nodes 9 -circuits 4 -workload interval -interval 0.5 -horizon 10 -replicas 4"},
	{"nearterm", "-nearterm -nodes 3 -fidelity 0.5 -pairs 5"},
}

// churnArgs drives admission-controlled churn with k-candidate,
// model-weighted placement and streaming metrics: the replica path with
// the most state per replica.
const churnArgs = "-topology dumbbell -circuits 4 -workload churn -mineer 5 -alloc model -paths 3 -streaming -horizon 20 -replicas 5"

func TestGolden(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", g.name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if got := run(t, strings.Fields(g.args)...); got != string(want) {
				t.Errorf("stdout differs from testdata/%s.txt\ngot:\n%s\nwant:\n%s", g.name, got, want)
			}
		})
	}
}

// TestReplicaBackendEquivalence: the replica means are byte-identical on
// the default pool and on one or three workers.
func TestReplicaBackendEquivalence(t *testing.T) {
	args := strings.Fields(churnArgs)
	want := run(t, args...)
	for _, workers := range []string{"1", "3"} {
		if got := run(t, append(args, "-workers", workers)...); got != want {
			t.Errorf("-workers %s: stdout differs from the default pool\ngot:\n%s\nwant:\n%s", workers, got, want)
		}
	}
}

// TestUsageErrors: bad command lines exit 2 with a message and print
// nothing to stdout; -h exits 0.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args   string
		status int
		stderr string
	}{
		{"-h", 0, "-topology"},
		{"-topology foo", 2, `unknown topology "foo"`},
		{"-nodes 4 stray", 2, `unexpected argument "stray"`},
		{"-topology grid rows 3", 2, `unexpected argument "rows"`},
		{"-src A0", 2, "-src and -dst must be given together"},
		{"-paths 0", 2, "-paths must be ≥ 1"},
		{"-circuits 0", 2, "-circuits must be ≥ 1"},
		{"-replicas 0", 2, "-replicas must be ≥ 1"},
		{"-pairs -1", 2, "-pairs must be ≥ 0"},
		{"-hold -1", 2, "-hold must be ≥ 0"},
		{"-mineer -1", 2, "-mineer must be ≥ 0"},
		{"-maxeer -1", 2, "-maxeer must be ≥ 0"},
		{"-horizon -5", 2, "-horizon must be > 0"},
		{"-horizon 0", 2, "-horizon must be > 0"},
		{"-fidelity -1", 2, "-fidelity must be in (0, 1] (got -1)"},
		{"-fidelity 0", 2, "-fidelity must be in (0, 1] (got 0)"},
		{"-fidelity 1.5", 2, "-fidelity must be in (0, 1] (got 1.5)"},
		{"-fidelity NaN", 2, "-fidelity must be in (0, 1] (got NaN)"},
		{"-interval -1 -workload interval", 2, "-interval must be > 0 for -workload interval"},
		{"-interval 0 -workload churn", 2, "-interval must be > 0 for -workload churn"},
		{"-v -replicas 2 -pairs 2 -horizon 5", 2, "-v logs a single run and cannot be combined with -replicas 2"},
		{"-topology dumbbell -src A0 -dst B0 -circuits 2", 2, "-src/-dst name a single circuit and cannot be combined with -circuits 2"},
		{"-topology dumbbell -src A0 -circuits 3", 2, "-src/-dst name a single circuit and cannot be combined with -circuits 3"},
		{"-nosuchflag", 2, "flag provided but not defined"},
		{"-shards 2", 2, "flag provided but not defined: -shards"},
		{"-resume x", 2, "flag provided but not defined: -resume"},
	} {
		var stdout, stderr bytes.Buffer
		if code := qnpsimMain(strings.Fields(tc.args), &stdout, &stderr); code != tc.status {
			t.Errorf("%s: exit status %d, want %d", tc.args, code, tc.status)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: stdout = %q, want empty", tc.args, stdout.String())
		}
		if !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%s: stderr = %q, want it to contain %q", tc.args, stderr.String(), tc.stderr)
		}
	}
}

// TestRunErrorExitsOne: a scenario that parses but cannot run reports the
// error and exits 1.
func TestRunErrorExitsOne(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := qnpsimMain([]string{"-fidelity", "0.99"}, &stdout, &stderr); code != 1 {
		t.Errorf("exit status %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "cannot reach end-to-end fidelity") {
		t.Errorf("stderr = %q, want the routing error", stderr.String())
	}
}

// TestReplicaErrorsReported: each distinct replica error reaches stderr
// once, with the number of replicas it stopped, and a -replicas run in
// which no replica ran exits 1 without a summary.
func TestReplicaErrorsReported(t *testing.T) {
	for _, tc := range []struct {
		args   string
		status int
		stderr []string
	}{
		{"-topology random -nodes 10 -seed 8 -pairs 5 -replicas 4", 0, []string{
			"2 of 4 replicas failed: qnet: scenario circuit \"cli\": routing: 7-hop path cannot reach end-to-end fidelity 0.850\n",
		}},
		{"-topology random -nodes 10 -seed 9 -pairs 5 -replicas 4", 0, []string{
			"1 of 4 replicas failed: qnet: scenario circuit \"cli\": routing: 7-hop path cannot reach end-to-end fidelity 0.850\n",
			"1 of 4 replicas failed: qnet: scenario circuit \"cli\": routing: 9-hop path cannot reach end-to-end fidelity 0.850\n",
		}},
		{"-fidelity 0.99 -replicas 3", 1, []string{
			"3 of 3 replicas failed: qnet: scenario circuit \"cli\": routing: 2-hop path cannot reach end-to-end fidelity 0.990\n",
			"none of the 3 replicas ran\n",
		}},
	} {
		var stdout, stderr bytes.Buffer
		if code := qnpsimMain(strings.Fields(tc.args), &stdout, &stderr); code != tc.status {
			t.Errorf("%s: exit status %d, want %d", tc.args, code, tc.status)
		}
		if want := strings.Join(tc.stderr, ""); stderr.String() != want {
			t.Errorf("%s: stderr = %q, want %q", tc.args, stderr.String(), want)
		}
		if tc.status != 0 && stdout.Len() != 0 {
			t.Errorf("%s: stdout = %q, want empty", tc.args, stdout.String())
		}
	}
}
