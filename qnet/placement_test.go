package qnet

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"qnp/internal/runner"
	"qnp/internal/sim"
)

// TestSpecRoundTripsPlacementFields: Candidates and the allocation policy
// survive the scenario wire format.
func TestSpecRoundTripsPlacementFields(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnforceEER = true
	cfg.Alloc = AllocModelWeighted
	sc := Scenario{
		Name:     "placement",
		Config:   cfg,
		Topology: GridTopo(3, 3),
		Circuits: []CircuitSpec{{
			ID: "c", Src: "n0", Dst: "n8", Fidelity: 0.8,
			Candidates: 3, Workload: ContinuousKeep{}, Optional: true,
		}},
		Horizon: sim.Second,
	}
	spec, err := sc.Spec()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back ScenarioSpec
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	sc2, err := back.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if sc2.Config.Alloc != AllocModelWeighted {
		t.Errorf("Alloc did not round-trip: %v", sc2.Config.Alloc)
	}
	if len(sc2.Circuits) != 1 || sc2.Circuits[0].Candidates != 3 {
		t.Errorf("Candidates did not round-trip: %+v", sc2.Circuits)
	}
}

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

// TestPlacementDeterminismAcrossBackends: k-candidate, model-weighted
// placement under churn must stay a pure function of the scenario value
// and seed — bit-identical metrics from the in-process pool, the InProcess
// backend and subprocess sharding at 1 and 3 shards.
func TestPlacementDeterminismAcrossBackends(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnforceEER = true
	cfg.Alloc = AllocModelWeighted
	sc := Scenario{
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
	const replicas = 4
	opts := func(b runner.Backend) ReplicaOptions {
		return ReplicaOptions{Replicas: replicas, Seed: 11, Backend: b}
	}
	want, err := sc.RunReplicated(opts(nil))
	if err != nil {
		t.Fatal(err)
	}
	admitted := 0
	wantJSON := make([][]byte, replicas)
	for i, m := range want {
		admitted += m.Admitted
		var err error
		wantJSON[i], err = json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
	}
	if admitted == 0 {
		t.Fatal("no circuits admitted; placement never exercised")
	}
	backends := map[string]runner.Backend{
		"in-process": runner.InProcess{},
		"shards-1":   runner.Fleet{Endpoints: runner.LocalEndpoints(1, 0)},
		"shards-3":   runner.Fleet{Endpoints: runner.LocalEndpoints(3, 0)},
		"fleet-2": runner.Fleet{Endpoints: []runner.Endpoint{
			{Name: "a", Command: []string{os.Args[0], runner.WorkerFlag}},
			{Name: "b", Command: []string{os.Args[0], runner.WorkerFlag}},
		}, ChunkSize: 1},
	}
	for name, b := range backends {
		got, err := sc.RunReplicated(opts(b))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range want {
			g, err := json.Marshal(got[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(g, wantJSON[i]) {
				t.Errorf("%s: replica %d placement metrics diverged", name, i)
			}
		}
	}
}
