package qnet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"qnp/internal/runner"
	"qnp/internal/sim"
)

// TestMain doubles as the shard worker entrypoint for the backend
// equivalence tests, which re-exec this test binary behind WorkerFlag.
func TestMain(m *testing.M) {
	runner.MaybeWorker()
	os.Exit(m.Run())
}

// replicaKind is a test-only job kind: its payload names a scenario in
// replicaScenarios, and each replica returns that scenario's metrics JSON
// at the replica seed. The table is compiled into the test binary, so a
// re-exec'd worker resolves the same names as the parent.
const replicaKind = "qnet.test.replica"

var replicaScenarios = map[string]func() Scenario{
	"sharded":   shardedScenario,
	"churn":     churnReplicaScenario,
	"placement": placementScenario,
}

func init() { runner.RegisterKind(replicaKind, runReplicaJob) }

func runReplicaJob(payload []byte, _ int, seed int64) ([]byte, error) {
	mk, ok := replicaScenarios[string(payload)]
	if !ok {
		return nil, fmt.Errorf("unknown test scenario %q", payload)
	}
	sc := mk()
	sc.Config.Seed = seed
	res, err := sc.Run()
	if err != nil {
		return nil, err
	}
	return json.Marshal(res.Metrics)
}

// replicaMetrics runs replicas of the named scenario from base seed on b
// and returns each replica's metrics JSON in replica order. A nil b runs
// them on runner.Run's goroutine pool, with no job codec in between.
func replicaMetrics(t *testing.T, name string, replicas int, seed int64, b runner.Backend) [][]byte {
	t.Helper()
	if b == nil {
		out, err := runner.Run(runner.Options{Seed: seed}, replicas, func(r int, s int64) []byte {
			m, err := runReplicaJob([]byte(name), r, s)
			if err != nil {
				t.Error(err)
			}
			return m
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	raw, err := runner.Collect[json.RawMessage](b, runner.ExecRequest{
		Kind: replicaKind, Payload: []byte(name), Replicas: replicas,
		Options: runner.Options{Seed: seed},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, len(raw))
	for i, r := range raw {
		out[i] = r
	}
	return out
}

// checkBackends fails unless every backend in backends returns, replica
// by replica, the same metrics JSON as want.
func checkBackends(t *testing.T, name string, seed int64, want [][]byte, backends map[string]runner.Backend) {
	t.Helper()
	for bn, b := range backends {
		got := replicaMetrics(t, name, len(want), seed, b)
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("%s: replica %d metrics diverged\n want %s\n  got %s", bn, i, want[i], got[i])
			}
		}
	}
}

func shardedScenario() Scenario {
	return Scenario{
		Name:     "sharded",
		Topology: WaxmanTopo(8, 0.7, 0.4),
		Circuits: []CircuitSpec{{
			ID: "r", Select: RandomPairs(2), Fidelity: 0.8,
			Workload: ContinuousKeep{}, Optional: true, RecordFidelity: true,
		}},
		Horizon: 2 * sim.Second,
	}
}

// TestRunReplicatedBackendEquivalence is the scenario-level shard-count
// invariance proof: the in-process pool, the InProcess backend (bytes
// codec, same process), one-host fleets of 1 and 3 endpoints, and a
// two-endpoint Fleet with a throttled endpoint must produce bit-identical
// metrics in identical order.
func TestRunReplicatedBackendEquivalence(t *testing.T) {
	const replicas, seed = 6, 21
	want := replicaMetrics(t, "sharded", replicas, seed, nil)
	worker := []string{os.Args[0], runner.WorkerFlag}
	checkBackends(t, "sharded", seed, want, map[string]runner.Backend{
		"in-process": runner.InProcess{},
		"shards-1":   runner.Fleet{Endpoints: runner.LocalEndpoints(1, 0)},
		"shards-3":   runner.Fleet{Endpoints: runner.LocalEndpoints(3, 0)},
		"fleet-2": runner.Fleet{Endpoints: []runner.Endpoint{
			{Name: "a", Command: worker},
			{Name: "b", Command: worker, Throttle: 20 * time.Millisecond},
		}, ChunkSize: 2},
	})
}
