package qnet

import (
	"fmt"
	"strings"
	"testing"

	"qnp/internal/runner"
	"qnp/internal/sim"
)

func TestScenarioQuickstart(t *testing.T) {
	res, err := Scenario{
		Topology: ChainTopo(3),
		Circuits: []CircuitSpec{{
			ID: "vc", Src: "n0", Dst: "n2", Fidelity: 0.8,
			Workload:       KeepBatch{Count: 1, Pairs: 5},
			RecordFidelity: true,
		}},
		Horizon: 30 * sim.Second,
		WaitFor: []CircuitID{"vc"},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	cm := res.Metrics.Circuit("vc")
	if !cm.Established || cm.Delivered != 5 || !cm.AllComplete() {
		t.Fatalf("established=%v delivered=%d complete=%v", cm.Established, cm.Delivered, cm.AllComplete())
	}
	if len(cm.Fidelities) != 5 || len(cm.States) != 5 {
		t.Fatalf("recorded %d fidelities / %d states", len(cm.Fidelities), len(cm.States))
	}
	for i, f := range cm.Fidelities {
		if f < 0.5 || f > 1 {
			t.Errorf("fidelity[%d] = %v", i, f)
		}
		if !cm.States[i].Valid() {
			t.Errorf("state[%d] invalid", i)
		}
	}
	if rm := cm.Requests[0]; !rm.Done || rm.CompletedAt <= rm.SubmittedAt {
		t.Errorf("request metrics: %+v", rm)
	}
	if res.Metrics.ClassicalMessages == 0 || res.Metrics.Nodes != 3 || res.Metrics.Links != 2 {
		t.Errorf("network totals: %+v", res.Metrics)
	}
	if res.Net.circuits["vc"] == nil {
		t.Error("live circuit not exposed")
	}
}

// TestStartOrderDeterminism is the regression net for Network.Start's wiring
// order: two fresh networks from the same seed must produce identical
// delivered-pair traces. Before Start iterated node IDs in sorted order this
// depended on Go's randomised map iteration.
func TestStartOrderDeterminism(t *testing.T) {
	trace := func() string {
		res, err := Scenario{
			Topology: DumbbellTopo(),
			Circuits: []CircuitSpec{
				{ID: "a", Src: "A0", Dst: "B0", Fidelity: 0.85,
					Workload: KeepBatch{Count: 1, Pairs: 8}, RecordFidelity: true},
				{ID: "b", Src: "A1", Dst: "B1", Fidelity: 0.85,
					Workload: KeepBatch{Count: 1, Pairs: 8}, RecordFidelity: true},
			},
			Horizon: 60 * sim.Second,
			WaitFor: []CircuitID{"a", "b"},
		}.Run()
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, cm := range res.Metrics.Circuits {
			for i, at := range cm.DeliveryTimes {
				fmt.Fprintf(&b, "%s %d %d %v %.9f\n", cm.ID, i, at, cm.States[i], cm.Fidelities[i])
			}
		}
		return b.String()
	}
	first := trace()
	for run := 1; run < 3; run++ {
		if got := trace(); got != first {
			t.Fatalf("run %d produced a different delivered-pair trace:\n--- first ---\n%s--- run %d ---\n%s",
				run, first, run, got)
		}
	}
}

// TestEstablishDeadlineNoOvershoot pins the bounded installation wait: when
// the CONFIRM cannot return in time, EstablishPlan must fail without firing
// events beyond its deadline — virtual time never silently overshoots.
func TestEstablishDeadlineNoOvershoot(t *testing.T) {
	net := Chain(DefaultConfig(), 3)
	dec, _, err := net.Controller.Place(PlacementRequest{Src: "n0", Dst: "n2", Fidelity: 0.8, Cutoff: CutoffLong, Probe: true})
	if err != nil {
		t.Fatal(err)
	}
	plan := dec.Plan
	// The installation deadline is 4× the path's propagation delay plus
	// 1 ms of slack; a per-hop processing delay far beyond that makes the
	// SETUP/CONFIRM round trip impossible to finish in time.
	net.Classical.SetProcessingDelay(10 * sim.Second)
	start := net.Sim.Now()
	deadline := start.Add(net.Classical.PathDelay(toNodeIDs(plan.Path)).Scale(4) + sim.Millisecond)
	if _, err := net.EstablishPlan("late", plan); err == nil {
		t.Fatal("installation confirmed despite a 10 s per-hop processing delay")
	}
	if now := net.Sim.Now(); now > deadline {
		t.Errorf("Sim.Now() = %v after failed confirm, beyond the deadline %v", now, deadline)
	}
}

// TestScenarioMultiCircuitTeardown covers two circuits sharing the dumbbell
// bottleneck: both install, both deliver, and tearing one down leaves the
// other's handlers intact and delivering.
func TestScenarioMultiCircuitTeardown(t *testing.T) {
	res, err := Scenario{
		Topology: DumbbellTopo(),
		Circuits: []CircuitSpec{
			{ID: "c1", Src: "A0", Dst: "B0", Fidelity: 0.85, Workload: KeepBatch{Count: 1, Pairs: 3}},
			{ID: "c2", Src: "A1", Dst: "B1", Fidelity: 0.85, Workload: KeepBatch{Count: 1, Pairs: 3}},
		},
		Horizon: 60 * sim.Second,
		WaitFor: []CircuitID{"c1", "c2"},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if !m.Circuit("c1").AllComplete() || !m.Circuit("c2").AllComplete() {
		t.Fatalf("initial deliveries: c1=%d c2=%d", m.Circuit("c1").Delivered, m.Circuit("c2").Delivered)
	}
	// Tear down c1; c2's handler table must survive and keep delivering.
	res.Net.circuits["c1"].Teardown()
	more := 0
	done := false
	res.Net.circuits["c2"].HandleHead(Handlers{
		AutoConsume: true,
		OnPair:      func(Delivered) { more++ },
		OnComplete:  func(RequestID) { done = true },
	})
	if err := res.Net.circuits["c2"].Submit(Request{ID: "again", Type: Keep, NumPairs: 3}); err != nil {
		t.Fatal(err)
	}
	res.Net.Run(60 * sim.Second)
	if more != 3 || !done {
		t.Errorf("after teardown of c1: c2 delivered %d more pairs, done=%v", more, done)
	}
}

func TestScenarioSelectors(t *testing.T) {
	// DiameterPair must pick the chain's ends.
	res, err := Scenario{
		Topology: ChainTopo(4),
		Circuits: []CircuitSpec{{ID: "d", Select: DiameterPair(), Fidelity: 0.8,
			Workload: KeepBatch{Count: 1, Pairs: 1}}},
		Horizon: 30 * sim.Second,
		WaitFor: []CircuitID{"d"},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	cm := res.Metrics.Circuit("d")
	if cm.Src != "n0" || cm.Dst != "n3" || cm.Delivered != 1 {
		t.Errorf("diameter circuit %s→%s delivered %d", cm.Src, cm.Dst, cm.Delivered)
	}

	// RandomPairs expands one spec into k distinct circuits, and the same
	// seed draws the same pairs.
	endpoints := func(seed int64) []string {
		cfg := DefaultConfig()
		cfg.Seed = seed
		res, err := Scenario{
			Config:   cfg,
			Topology: GridTopo(3, 3),
			Circuits: []CircuitSpec{{ID: "r", Select: RandomPairs(3), Fidelity: 0.8, Optional: true}},
			Horizon:  sim.Millisecond,
		}.Run()
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, cm := range res.Metrics.Circuits {
			out = append(out, string(cm.ID)+":"+cm.Src+"-"+cm.Dst)
		}
		return out
	}
	a, b := endpoints(7), endpoints(7)
	if len(a) != 3 {
		t.Fatalf("RandomPairs(3) expanded to %d circuits: %v", len(a), a)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("selector not deterministic: %v vs %v", a, b)
		}
	}
	seen := map[string]bool{}
	for _, e := range a {
		pair := e[strings.Index(e, ":")+1:]
		if seen[pair] {
			t.Errorf("duplicate endpoint pair %s in %v", pair, a)
		}
		seen[pair] = true
	}
	if c := endpoints(8); fmt.Sprint(a) == fmt.Sprint(c) {
		t.Errorf("different seeds drew identical pairs: %v", a)
	}
}

func TestScenarioTimedWorkloads(t *testing.T) {
	run := func(w Workload) *CircuitMetrics {
		res, err := Scenario{
			Topology: ChainTopo(2),
			Circuits: []CircuitSpec{{ID: "c", Src: "n0", Dst: "n1", Fidelity: 0.85, Workload: w}},
			Horizon:  4 * sim.Second,
		}.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics.Circuit("c")
	}
	iv := run(IntervalKeep{Interval: sim.Second, Pairs: 1})
	// Arrivals at 0,1,2,3,4 s: five requests inside the horizon.
	if len(iv.Requests) != 5 {
		t.Errorf("IntervalKeep issued %d requests, want 5", len(iv.Requests))
	}
	po := run(PoissonKeep{Mean: sim.Second, Pairs: 1})
	if len(po.Requests) == 0 {
		t.Error("PoissonKeep issued no requests")
	}
	oo := run(OnOffKeep{On: sim.Second, Off: sim.Second, Interval: 250 * sim.Millisecond, Pairs: 1})
	if len(oo.Requests) == 0 {
		t.Error("OnOffKeep issued no requests")
	}
	// Bursts cover half the horizon: strictly fewer arrivals than the
	// always-on interval source at the same spacing would make.
	alwaysOn := run(IntervalKeep{Interval: 250 * sim.Millisecond, Pairs: 1})
	if len(oo.Requests) >= len(alwaysOn.Requests) {
		t.Errorf("OnOffKeep (%d) not sparser than always-on interval (%d)",
			len(oo.Requests), len(alwaysOn.Requests))
	}
}

func TestScenarioMeasureStream(t *testing.T) {
	res, err := Scenario{
		Topology: ChainTopo(3),
		Circuits: []CircuitSpec{{ID: "m", Src: "n0", Dst: "n2", Fidelity: 0.8,
			Workload: MeasureStream{Pairs: 10}}},
		Horizon: 60 * sim.Second,
		WaitFor: []CircuitID{"m"},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	cm := res.Metrics.Circuit("m")
	if cm.Delivered != 10 || !cm.AllComplete() {
		t.Errorf("measure stream delivered %d, complete=%v", cm.Delivered, cm.AllComplete())
	}
}

func TestScenarioEstablishErrors(t *testing.T) {
	// Impossible fidelity: the run fails unless the circuit is Optional.
	base := Scenario{
		Topology: ChainTopo(3),
		Circuits: []CircuitSpec{{ID: "x", Src: "n0", Dst: "n2", Fidelity: 0.9999}},
		Horizon:  sim.Second,
	}
	if _, err := base.Run(); err == nil {
		t.Error("infeasible circuit did not fail the run")
	}
	base.Circuits[0].Optional = true
	res, err := base.Run()
	if err != nil {
		t.Fatalf("optional circuit failed the run: %v", err)
	}
	cm := res.Metrics.Circuit("x")
	if cm.Established || cm.Err == "" {
		t.Errorf("optional infeasible circuit recorded as %+v", cm)
	}
	// WaitFor must name declared circuits.
	bad := base
	bad.WaitFor = []CircuitID{"nope"}
	if _, err := bad.Run(); err == nil {
		t.Error("unknown WaitFor circuit accepted")
	}
}

// TestRunReplicatedWorkerInvariance: scenario replicas on runner.Run give
// the same per-replica results on one worker and on four.
func TestRunReplicatedWorkerInvariance(t *testing.T) {
	sc := Scenario{
		Topology: ChainTopo(3),
		Circuits: []CircuitSpec{{ID: "c", Select: DiameterPair(), Fidelity: 0.8,
			Workload: KeepBatch{Count: 1, Pairs: 3}, RecordFidelity: true}},
		Horizon: 30 * sim.Second,
		WaitFor: []CircuitID{"c"},
	}
	render := func(workers int) string {
		ms, err := runner.Run(runner.Options{Workers: workers, Seed: 3}, 6, func(_ int, seed int64) *Metrics {
			replica := sc
			replica.Config.Seed = seed
			res, err := replica.Run()
			if err != nil {
				t.Error(err)
				return &Metrics{}
			}
			return res.Metrics
		})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for i, m := range ms {
			cm := m.Circuit("c")
			fmt.Fprintf(&b, "replica %d: %d delivered, EER %.9f, meanF %.9f\n",
				i, cm.Delivered, cm.EER(m.Start, m.End), cm.MeanFidelity())
		}
		return b.String()
	}
	if a, b := render(1), render(4); a != b {
		t.Fatalf("worker count changed replicated results:\n--- 1 worker ---\n%s--- 4 workers ---\n%s", a, b)
	}
}

// TestScenarioEERPolicing pins the CircuitSpec.MaxEER path end to end: an
// explicit allocation polices an oversized rate request away and paces an
// admitted one at or below the allocation.
func TestScenarioEERPolicing(t *testing.T) {
	run := func(rate float64) *CircuitMetrics {
		res, err := Scenario{
			Topology: ChainTopo(2),
			Circuits: []CircuitSpec{{
				ID: "p", Src: "n0", Dst: "n1", Fidelity: 0.85, MaxEER: 20,
				Workload: Batch{Requests: []Request{{ID: "m", Type: Measure, Rate: rate}}},
			}},
			Horizon: 5 * sim.Second,
		}.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics.Circuit("p")
	}
	over := run(50) // demands 2.5× the allocation: policed away
	if over.Rejected != 1 || over.Delivered != 0 {
		t.Errorf("oversized request: rejected=%d delivered=%d", over.Rejected, over.Delivered)
	}
	ok := run(15) // fits: admitted and paced
	if ok.Rejected != 0 || ok.Delivered == 0 {
		t.Fatalf("admitted request: rejected=%d delivered=%d", ok.Rejected, ok.Delivered)
	}
	if eer := float64(ok.Delivered) / 5.0; eer > 20*1.02 {
		t.Errorf("measured EER %.2f exceeds the 20 pairs/s allocation", eer)
	}
}
