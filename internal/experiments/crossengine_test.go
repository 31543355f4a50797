package experiments

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"qnp/internal/runner"
	"qnp/internal/sim"
	"qnp/qnet"
)

// The Werner scalar engine is wired so that it consumes the same RNG
// streams in the same draw order as the exact density-matrix engine, and
// fidelity readout never feeds back into protocol timing. Both facts
// together make the validation set's event timelines — and therefore every
// counter-and-latency figure — identical between engines; only the oracle
// fidelity differs, and there only by the re-twirl approximation. These
// tests are the CI gate for that contract.

// wernerOpts is QuickOptions on the Werner engine.
func wernerOpts() Options {
	o := QuickOptions()
	o.Physics = qnet.PhysicsWerner
	return o
}

// TestCrossEngineValidationGrids runs the validation-set grids (fig9, eer,
// churn) under both physics engines and demands byte-identical rendered
// aggregates. The issue tolerance is "EER within 2%"; because the engines
// share timelines the achieved agreement is exact, which this pins down so
// a draw-order regression in either engine fails loudly instead of drifting
// inside a tolerance band.
func TestCrossEngineValidationGrids(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		// Trimmed single replicas of each run function.
		seed := runner.DeriveSeed(1, 0)
		fe := fig9Run(seed, qnet.PhysicsExact, true, 0.3, 10*sim.Second, 6*sim.Second)
		fw := fig9Run(seed, qnet.PhysicsWerner, true, 0.3, 10*sim.Second, 6*sim.Second)
		if fe != fw {
			t.Errorf("fig9 point diverged: exact %+v werner %+v", fe, fw)
		}
		cell := EERPoint{Requests: 2, AllocatedPS: dumbbellAllocation(eerTargetF)}
		ee := eerRun(seed, qnet.PhysicsExact, cell, 4*sim.Second)
		ew := eerRun(seed, qnet.PhysicsWerner, cell, 4*sim.Second)
		if ee != ew {
			t.Errorf("eer point diverged: exact %+v werner %+v", ee, ew)
		}
		p := churnParams{Horizon: 2 * sim.Second, Holds: []sim.Duration{sim.Second}, Circuits: 4}
		c := churnCell{topo: "dumbbell", hold: sim.Second}
		demand := churnDemand()
		ce := churnRun(seed, qnet.PhysicsExact, c, p, demand)
		cw := churnRun(seed, qnet.PhysicsWerner, c, p, demand)
		if ce != cw {
			t.Errorf("churn point diverged: exact %+v werner %+v", ce, cw)
		}
		return
	}
	render := func(o Options) string {
		var buf bytes.Buffer
		Fig9(o).Print(&buf)
		EERSaturation(o).Print(&buf)
		Churn(o).Print(&buf)
		return buf.String()
	}
	exact := render(QuickOptions())
	werner := render(wernerOpts())
	if exact != werner {
		t.Fatalf("validation grids diverged between engines:\n--- exact ---\n%s\n--- werner ---\n%s", exact, werner)
	}
}

// TestCrossEngineCityQuick extends the timeline-identity gate to the
// city-scale streaming scenario (admission churn on a 10×10 grid).
func TestCrossEngineCityQuick(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("city quick is too heavy for -short")
	}
	render := func(o Options) string {
		var buf bytes.Buffer
		City(o).Print(&buf)
		return buf.String()
	}
	exact := render(QuickOptions())
	werner := render(wernerOpts())
	if exact != werner {
		t.Fatalf("city quick diverged between engines:\n--- exact ---\n%s\n--- werner ---\n%s", exact, werner)
	}
}

// fidelityProbe delivers recorded-fidelity pairs over a k-node chain (k−2
// swaps each) at the given end-to-end fidelity target and returns (mean
// oracle fidelity, deliveries).
func fidelityProbe(t *testing.T, physics qnet.Physics, k int, target float64, seed int64) (float64, int) {
	t.Helper()
	cfg := qnet.DefaultConfig()
	cfg.Seed = seed
	cfg.Physics = physics
	res, err := qnet.Scenario{
		Name:     "crossengine-fidelity",
		Config:   cfg,
		Topology: qnet.ChainTopo(k),
		Circuits: []qnet.CircuitSpec{{
			ID: "f", Src: "n0", Dst: fmt.Sprintf("n%d", k-1),
			Fidelity: target, Policy: qnet.CutoffShort,
			Workload:       qnet.IntervalKeep{Interval: 300 * sim.Millisecond, Pairs: 2},
			RecordFidelity: true,
		}},
		Horizon: 8 * sim.Second,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	cm := res.Metrics.Circuit("f")
	return cm.MeanFidelity(), cm.Delivered
}

// TestCrossEngineMeanFidelity is the accuracy half of the gate. The Werner
// engine is lossless on swap-free paths — link states re-twirled at
// generation carry their fidelity exactly through decoherence and readout —
// so chain-2 must agree to float precision. Across swaps it is an
// approximation: link states keep dephasing error inside the Ψ subspace
// and bright-state error inside the Φ subspace, while the single scalar
// spreads both uniformly, so post-swap fidelity picks up a declared-class
// systematic that grows as the link operating point degrades. Empirically
// (four seeds, one- and two-swap chains) the mean delivered fidelity
// tracks the exact engine within 1e-3 for end-to-end targets of 0.90 and
// up, and within 2e-3 at the paper's 0.85 target; the bands below pin
// those measurements so a model regression fails loudly. The README's
// "Physics engines" section documents the envelope.
func TestCrossEngineMeanFidelity(t *testing.T) {
	t.Parallel()
	seeds := []int64{1, 7, 13, 42}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, tc := range []struct {
		k      int
		target float64
		tol    float64
	}{
		{2, 0.85, 1e-9}, // swap-free: lossless
		{3, 0.85, 2e-3}, // one swap at the paper's operating point
		{4, 0.85, 2e-3}, // two swaps at the paper's operating point
		{3, 0.90, 1e-3},
		{4, 0.90, 1e-3},
		{3, 0.95, 1e-3},
		{4, 0.95, 1e-3},
	} {
		for _, seed := range seeds {
			fe, ne := fidelityProbe(t, qnet.PhysicsExact, tc.k, tc.target, seed)
			fw, nw := fidelityProbe(t, qnet.PhysicsWerner, tc.k, tc.target, seed)
			if ne != nw {
				t.Fatalf("chain-%d F%.2f seed %d: delivered diverged: exact %d werner %d", tc.k, tc.target, seed, ne, nw)
			}
			if ne == 0 {
				t.Fatalf("chain-%d F%.2f seed %d: no deliveries", tc.k, tc.target, seed)
			}
			if d := math.Abs(fe - fw); d > tc.tol {
				t.Errorf("chain-%d F%.2f seed %d: mean fidelity diverged by %.2e > %.0e (exact %.6f werner %.6f, n=%d)",
					tc.k, tc.target, seed, d, tc.tol, fe, fw, ne)
			}
		}
	}
}

// TestWernerShardInvariance mirrors TestShardCountInvariance on the Werner
// engine: the scalar fast path must render bit-identical churn and Fig. 9
// aggregates however many workers share the replicas.
func TestWernerShardInvariance(t *testing.T) {
	t.Parallel()
	assertWorkerCountInvariant(t, func(workers int) string {
		o := wernerOpts()
		o.Workers = workers
		var buf bytes.Buffer
		churn(o, trimmedChurn).Print(&buf)
		if !testing.Short() {
			Fig9(o).Print(&buf)
		}
		return buf.String()
	})
}
