package qnet

import (
	"os"
	"testing"

	"qnp/internal/runner"
	"qnp/internal/sim"
)

// churnyScenario is a small arrival/departure mix on the dumbbell
// bottleneck — enough membership changes to trigger re-fits when (and only
// when) the network enforces admission.
func churnyScenario(enforce bool) Scenario {
	cfg := DefaultConfig()
	cfg.EnforceEER = enforce
	return Scenario{
		Config:   cfg,
		Topology: DumbbellTopo(),
		Circuits: []CircuitSpec{
			{ID: "a", Src: "A0", Dst: "B0", Fidelity: 0.85, Policy: CutoffShort,
				HoldFor: 3 * sim.Second, Workload: MeasureStream{Rate: 10}},
			{ID: "b", Src: "A1", Dst: "B1", Fidelity: 0.85, Policy: CutoffShort,
				ArriveAt: sim.Second, HoldFor: 3 * sim.Second, Workload: MeasureStream{Rate: 10}},
			{ID: "c", Src: "A0", Dst: "B1", Fidelity: 0.85, Policy: CutoffShort,
				ArriveAt: 2 * sim.Second, Workload: MeasureStream{Rate: 10}},
		},
		Horizon: 6 * sim.Second,
	}
}

// TestNonEnforcingChurnEmitsNoUpdateTraffic is the regression test for the
// EnforceEER refit gating fix: a network that does not enforce admission
// must never emit UpdateMsg traffic on churn — observable as zero
// allocation re-fits applied at any node. The enforcing twin proves the
// counter actually sees refit traffic.
func TestNonEnforcingChurnEmitsNoUpdateTraffic(t *testing.T) {
	sumUpdates := func(m *Metrics) uint64 {
		var total uint64
		for _, st := range m.NodeStats {
			total += st.EERUpdates
		}
		return total
	}
	res, err := churnyScenario(false).Run()
	if err != nil {
		t.Fatal(err)
	}
	if n := sumUpdates(res.Metrics); n != 0 {
		t.Errorf("non-enforcing churn applied %d EER updates, want 0", n)
	}
	res, err = churnyScenario(true).Run()
	if err != nil {
		t.Fatal(err)
	}
	if n := sumUpdates(res.Metrics); n == 0 {
		t.Error("enforcing churn applied no EER updates; counter is not observing refit traffic")
	}
}

func placementScenario() Scenario {
	cfg := DefaultConfig()
	cfg.EnforceEER = true
	cfg.Alloc = AllocModelWeighted
	return Scenario{
		Name:     "placement-determinism",
		Config:   cfg,
		Topology: GridTopo(4, 4),
		Circuits: []CircuitSpec{{
			Select: RandomPairs(6), Fidelity: 0.8, Policy: CutoffShort,
			Candidates: 3, MinEER: 1, Optional: true,
			Holding:  &Dist{Kind: DistExponential, Mean: 2 * sim.Second},
			Workload: ContinuousKeep{},
		}},
		Horizon: 4 * sim.Second,
	}
}

// TestPlacementDeterminismAcrossBackends: model-weighted k-candidate
// placement under churn reads only the replica's own RNG streams, so the
// replicas' metrics are bit-identical in process and on worker processes,
// whatever the shard count or chunking.
func TestPlacementDeterminismAcrossBackends(t *testing.T) {
	const replicas, seed = 4, 11
	want := replicaMetrics(t, "placement", replicas, seed, nil)
	admitted := 0
	for r := 0; r < replicas; r++ {
		sc := placementScenario()
		sc.Config.Seed = runner.DeriveSeed(seed, r)
		res, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		admitted += res.Metrics.Admitted
	}
	if admitted == 0 {
		t.Fatal("no circuits admitted; placement never exercised")
	}
	checkBackends(t, "placement", seed, want, map[string]runner.Backend{
		"in-process": runner.InProcess{},
		"shards-1":   runner.Fleet{Endpoints: runner.LocalEndpoints(1, 0)},
		"shards-3":   runner.Fleet{Endpoints: runner.LocalEndpoints(3, 0)},
		"fleet-2": runner.Fleet{Endpoints: []runner.Endpoint{
			{Name: "a", Command: []string{os.Args[0], runner.WorkerFlag}},
			{Name: "b", Command: []string{os.Args[0], runner.WorkerFlag}},
		}, ChunkSize: 1},
	})
}
