package qnet

import (
	"bytes"
	"encoding/json"
	"testing"

	"qnp/internal/runner"
	"qnp/internal/sim"
)

// replicaScenarios are the scenarios the worker-count checks replicate.
var replicaScenarios = map[string]func() Scenario{
	"replicated": replicatedScenario,
	"churn":      churnReplicaScenario,
	"placement":  placementScenario,
}

// replicaMetrics runs replicas of the named scenario from base seed on a
// pool of the given size and returns each replica's metrics JSON in
// replica order.
func replicaMetrics(t *testing.T, name string, replicas int, seed int64, workers int) [][]byte {
	t.Helper()
	out, err := runner.Run(runner.Options{Workers: workers, Seed: seed}, replicas, func(_ int, s int64) []byte {
		sc := replicaScenarios[name]()
		sc.Config.Seed = s
		res, err := sc.Run()
		if err != nil {
			t.Error(err)
			return nil
		}
		m, err := json.Marshal(res.Metrics)
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

// checkBackends fails unless three workers return, replica by replica, the
// same metrics JSON as want.
func checkBackends(t *testing.T, name string, seed int64, want [][]byte) {
	t.Helper()
	got := replicaMetrics(t, name, len(want), seed, 3)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("%s: replica %d metrics diverged on 3 workers\n want %s\n  got %s", name, i, want[i], got[i])
		}
	}
}

func replicatedScenario() Scenario {
	return Scenario{
		Name:     "replicated",
		Topology: WaxmanTopo(8, 0.7, 0.4),
		Circuits: []CircuitSpec{{
			ID: "r", Select: RandomPairs(2), Fidelity: 0.8,
			Workload: ContinuousKeep{}, Optional: true, RecordFidelity: true,
		}},
		Horizon: 2 * sim.Second,
	}
}

// TestRunReplicatedBackendEquivalence is the scenario-level worker-count
// invariance proof: one worker and three must produce bit-identical
// metrics in identical order.
func TestRunReplicatedBackendEquivalence(t *testing.T) {
	const replicas, seed = 6, 21
	checkBackends(t, "replicated", seed, replicaMetrics(t, "replicated", replicas, seed, 1))
}
